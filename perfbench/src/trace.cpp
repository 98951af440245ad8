#include "trace.hpp"

#include <cstdio>

#include "common.hpp"

namespace pb {

void Trace::Scope::finish() {
  if (trace_ == nullptr) return;
  trace_->close(id_);
  trace_ = nullptr;
}

Trace::Scope Trace::span(int tid, const char* name, double work) {
  if (!enabled_) return Scope{};
  std::lock_guard<std::mutex> lock(mu_);
  auto& stack = open_[tid];
  SpanRecord s;
  s.name = name;
  s.tid = tid;
  s.parent = stack.empty() ? -1 : stack.back();
  s.work = work;
  const int id = static_cast<int>(spans_.size());
  stack.push_back(id);
  s.t0 = now_s();
  spans_.push_back(s);
  return Scope(this, id);
}

void Trace::close(int id) {
  const double t1 = now_s();
  std::lock_guard<std::mutex> lock(mu_);
  SpanRecord& s = spans_[static_cast<std::size_t>(id)];
  s.t1 = t1;
  auto& stack = open_[s.tid];
  if (!stack.empty() && stack.back() == id) stack.pop_back();
}

void Trace::add(int tid, const char* name, double t0, double t1, double work) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  SpanRecord s;
  s.name = name;
  s.tid = tid;
  s.t0 = t0;
  s.t1 = t1;
  s.work = work;
  spans_.push_back(s);
}

std::vector<SpanRecord> Trace::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Trace::write_chrome(const std::string& path) const {
  const std::vector<SpanRecord> all = spans();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 0, \"tid\": %d, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %d, \"work\": %.17g}}",
                 i == 0 ? "" : ",\n", s.name, s.tid, 1e6 * s.t0, 1e6 * s.dur(),
                 i, s.parent, s.work);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

std::vector<double> durations(const std::vector<SpanRecord>& spans,
                              const std::string& name, int tid) {
  std::vector<double> out;
  for (const SpanRecord& s : spans)
    if (name == s.name && (tid < 0 || s.tid == tid)) out.push_back(s.dur());
  return out;
}

double total_work(const std::vector<SpanRecord>& spans, const std::string& name,
                  int tid) {
  double w = 0.0;
  for (const SpanRecord& s : spans)
    if (name == s.name && (tid < 0 || s.tid == tid)) w += s.work;
  return w;
}

}  // namespace pb
