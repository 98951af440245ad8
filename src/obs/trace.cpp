#include "obs/trace.hpp"

#include <algorithm>
#include <fstream>

#include "util/config.hpp"

namespace ca::obs {
namespace {

std::chrono::steady_clock::time_point process_epoch() {
  static const auto epoch = std::chrono::steady_clock::now();
  return epoch;
}

// Touch the epoch at static-init time so concurrent first calls from rank
// threads never race on the function-local static's first use ordering
// relative to timestamps (the static itself is thread-safe; this just pins
// t=0 near process start instead of first-span time).
const auto kEpochAnchor = process_epoch();

}  // namespace

TraceOptions TraceOptions::env_resolved() const {
  // An empty Config still resolves CA_AGCM_* environment overrides, so the
  // operator can force tracing on (or dumps off) for a whole run without
  // touching call sites.
  util::Config env;
  TraceOptions o;
  o.trace = env.get_bool("obs.trace", trace);
  o.dump_on_failure = env.get_bool("obs.dump_on_failure", dump_on_failure);
  o.ring_events = env.get_int("obs.ring_events", ring_events);
  o.dump_dir = env.get_string("obs.dump_dir", dump_dir);
  return o;
}

double Tracer::now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - process_epoch())
      .count();
}

Span& Span::operator=(Span&& other) noexcept {
  if (this != &other) {
    finish();
    tracer_ = other.tracer_;
    name_ = other.name_;
    category_ = other.category_;
    t0_us_ = other.t0_us_;
    depth_ = other.depth_;
    other.tracer_ = nullptr;
  }
  return *this;
}

void Span::finish() {
  if (tracer_ == nullptr) return;
  Tracer* t = tracer_;
  tracer_ = nullptr;
  const double t1 = Tracer::now_us();
  if (depth_ >= 0) t->close_phase(static_cast<std::size_t>(depth_), t1);
  if (t->recording_)
    t->record(name_, category_, t0_us_, std::max(0.0, t1 - t0_us_),
              /*instant=*/false, {});
}

Span Tracer::phase_span(util::Phase phase, const char* name) {
  const char* category = util::phase_name(phase);
  if (name == nullptr) name = category;
  if (phase_sink_ == nullptr) return span(name, category);
  const double t = now_us();
  // Pause the parent: its self time stops while this span runs.
  if (!open_.empty()) charge_top(t);
  open_.push_back({phase, t});
  return Span(this, name, category, t, static_cast<int>(open_.size()) - 1);
}

void Tracer::charge_top(double t_us) {
  const OpenPhase& top = open_.back();
  (*phase_sink_)[top.phase].seconds +=
      std::max(0.0, t_us - top.resume_us) * 1e-6;
}

void Tracer::close_phase(std::size_t depth, double t_us) {
  // Spans close innermost first, so `depth` is normally the top; a span
  // closed out of order also closes the ones opened inside it.
  if (depth >= open_.size()) return;
  charge_top(t_us);
  open_.resize(depth);
  if (!open_.empty()) open_.back().resume_us = t_us;
}

void Tracer::configure(const TraceOptions& opts, int tid,
                       util::PhaseTimers* phase_sink,
                       TraceCollector* collector, int pid) {
  opts_ = opts;
  tid_ = tid;
  pid_ = pid;
  phase_sink_ = phase_sink;
  open_.clear();
  collector_ = collector;
  exporting_ = opts_.trace && collector_ != nullptr;
  recording_ = opts_.trace || opts_.dump_on_failure;
  ring_capacity_ = static_cast<std::size_t>(std::max(8, opts_.ring_events));
  ring_.clear();
  ring_.reserve(ring_capacity_);
  head_ = 0;
  wrapped_ = false;
  recorded_ = 0;
  dropped_ = 0;
}

void Tracer::record(const char* name, const char* category, double ts_us,
                    double dur_us, bool instant, std::string detail) {
  ++recorded_;
  TraceEvent ev{name, category, ts_us, dur_us, instant, std::move(detail)};
  if (ring_.size() < ring_capacity_) {
    ring_.push_back(std::move(ev));
    return;
  }
  if (exporting_) {
    // Exporting runs keep the complete stream: spill the full ring to the
    // collector and start over.  The ring still holds the most recent
    // events for flight dumps.
    collector_->add(pid_, tid_, ring_snapshot());
    ring_.clear();
    head_ = 0;
    wrapped_ = false;
    ring_.push_back(std::move(ev));
    return;
  }
  // Flight-recorder mode: bounded ring, overwrite the oldest.
  ring_[head_] = std::move(ev);
  head_ = (head_ + 1) % ring_capacity_;
  wrapped_ = true;
  ++dropped_;
}

void Tracer::instant(const char* name, const char* category,
                     std::string detail) {
  if (!recording_) return;
  record(name, category, now_us(), 0.0, /*instant=*/true, std::move(detail));
}

std::vector<TraceEvent> Tracer::ring_snapshot() const {
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  if (wrapped_) {
    for (std::size_t i = 0; i < ring_.size(); ++i)
      out.push_back(ring_[(head_ + i) % ring_.size()]);
  } else {
    out = ring_;
  }
  return out;
}

void Tracer::flush() {
  if (!exporting_ || ring_.empty()) return;
  collector_->add(pid_, tid_, ring_snapshot());
  ring_.clear();
  head_ = 0;
  wrapped_ = false;
}

util::Json Tracer::flight_json(const std::string& reason) const {
  util::Json doc = util::Json::object();
  doc["schema"] = "ca-agcm/obs-flight/v1";
  doc["rank"] = tid_;
  doc["job"] = pid_;
  doc["reason"] = reason;
  doc["recorded"] = static_cast<double>(recorded_);
  doc["dropped"] = static_cast<double>(dropped_);
  util::Json events = util::Json::array();
  for (const TraceEvent& ev : ring_snapshot()) {
    util::Json j = util::Json::object();
    j["name"] = ev.name;
    j["cat"] = ev.category;
    j["ts_us"] = ev.ts_us;
    if (ev.instant)
      j["instant"] = true;
    else
      j["dur_us"] = ev.dur_us;
    if (!ev.detail.empty()) j["detail"] = ev.detail;
    events.push_back(std::move(j));
  }
  doc["events"] = std::move(events);
  return doc;
}

std::string Tracer::dump_flight(const std::string& reason) {
  if (!opts_.dump_on_failure) return "";
  std::string dir = opts_.dump_dir.empty() ? std::string(".") : opts_.dump_dir;
  if (dir.back() != '/') dir += '/';
  const std::string stem =
      tid_ >= 0 ? "obs_dump_rank" + std::to_string(tid_) : "obs_dump_service";
  // The first incident for this timeline keeps the legacy name; later
  // ones get a monotonic incident suffix instead of truncating it —
  // clobbering the dump of the FIRST failure with a later (often
  // secondary) one would destroy exactly the postmortem an operator
  // needs.  The existence probe makes the sequence robust across Tracer
  // instances: each attempt constructs its own rank tracers, so an
  // in-memory counter would restart at 0 and clobber anyway.
  std::string path = dir + stem + ".json";
  for (int incident = 1; std::ifstream(path).good(); ++incident) {
    if (incident > 9999) return "";  // runaway loop guard; give up loudly
    path = dir + stem + ".incident" + std::to_string(incident) + ".json";
  }
  std::ofstream out(path, std::ios::trunc);
  if (!out) return "";
  out << flight_json(reason).dump(2) << "\n";
  return out ? path : "";
}

void TraceCollector::add(int pid, int tid, std::vector<TraceEvent> events) {
  std::lock_guard<std::mutex> lock(mutex_);
  // No exact reserve here: growing to exactly size + n on every spill
  // would move the whole stream each time (quadratic in run length).
  for (TraceEvent& ev : events) items_.push_back(Item{pid, tid, std::move(ev)});
}

void TraceCollector::set_process_name(int pid, std::string name) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [p, n] : process_names_)
    if (p == pid) {
      n = std::move(name);
      return;
    }
  process_names_.emplace_back(pid, std::move(name));
}

void TraceCollector::set_thread_name(int pid, int tid, std::string name) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [key, n] : thread_names_)
    if (key == std::make_pair(pid, tid)) {
      n = std::move(name);
      return;
    }
  thread_names_.emplace_back(std::make_pair(pid, tid), std::move(name));
}

std::size_t TraceCollector::event_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return items_.size();
}

util::Json TraceCollector::chrome_trace() const {
  std::lock_guard<std::mutex> lock(mutex_);
  util::Json doc = util::Json::object();
  util::Json events = util::Json::array();
  for (const auto& [pid, name] : process_names_) {
    util::Json m = util::Json::object();
    m["name"] = "process_name";
    m["ph"] = "M";
    m["pid"] = pid;
    m["tid"] = 0;
    util::Json args = util::Json::object();
    args["name"] = name;
    m["args"] = std::move(args);
    events.push_back(std::move(m));
  }
  for (const auto& [key, name] : thread_names_) {
    util::Json m = util::Json::object();
    m["name"] = "thread_name";
    m["ph"] = "M";
    m["pid"] = key.first;
    m["tid"] = key.second;
    util::Json args = util::Json::object();
    args["name"] = name;
    m["args"] = std::move(args);
    events.push_back(std::move(m));
  }
  // Stable ts order within each (pid, tid) timeline keeps the export
  // deterministic for tests and diffs.
  std::vector<const Item*> ordered;
  ordered.reserve(items_.size());
  for (const Item& it : items_) ordered.push_back(&it);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const Item* a, const Item* b) {
                     if (a->pid != b->pid) return a->pid < b->pid;
                     if (a->tid != b->tid) return a->tid < b->tid;
                     return a->ev.ts_us < b->ev.ts_us;
                   });
  for (const Item* it : ordered) {
    util::Json j = util::Json::object();
    j["name"] = it->ev.name;
    j["cat"] = it->ev.category;
    j["ph"] = it->ev.instant ? "i" : "X";
    j["ts"] = it->ev.ts_us;
    if (!it->ev.instant) j["dur"] = it->ev.dur_us;
    j["pid"] = it->pid;
    j["tid"] = it->tid;
    if (it->ev.instant) j["s"] = "t";
    if (!it->ev.detail.empty()) {
      util::Json args = util::Json::object();
      args["detail"] = it->ev.detail;
      j["args"] = std::move(args);
    }
    events.push_back(std::move(j));
  }
  doc["traceEvents"] = std::move(events);
  doc["displayTimeUnit"] = "ms";
  return doc;
}

bool TraceCollector::write(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << chrome_trace().dump(1) << "\n";
  return static_cast<bool>(out);
}

std::string validate_chrome_trace(const util::Json& doc) {
  if (!doc.is_object()) return "document is not an object";
  const util::Json* events = doc.find("traceEvents");
  if (events == nullptr || !events->is_array())
    return "missing traceEvents array";
  std::size_t i = 0;
  for (const util::Json& ev : events->items()) {
    const std::string where = "traceEvents[" + std::to_string(i++) + "]";
    if (!ev.is_object()) return where + " is not an object";
    const util::Json* name = ev.find("name");
    if (name == nullptr || !name->is_string())
      return where + " lacks a string name";
    const util::Json* ph = ev.find("ph");
    if (ph == nullptr || !ph->is_string())
      return where + " lacks a string ph";
    const std::string& phase = ph->as_string();
    if (phase != "X" && phase != "i" && phase != "M")
      return where + " has unsupported ph '" + phase + "'";
    for (const char* key : {"pid", "tid"}) {
      const util::Json* v = ev.find(key);
      if (v == nullptr || !v->is_number())
        return where + " lacks numeric " + key;
    }
    if (phase == "M") continue;
    const util::Json* ts = ev.find("ts");
    if (ts == nullptr || !ts->is_number() || ts->as_double() < 0.0)
      return where + " lacks a non-negative ts";
    if (phase == "X") {
      const util::Json* dur = ev.find("dur");
      if (dur == nullptr || !dur->is_number() || dur->as_double() < 0.0)
        return where + " lacks a non-negative dur";
    }
  }
  return "";
}

}  // namespace ca::obs
