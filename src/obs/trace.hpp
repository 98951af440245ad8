// Tracing spans and the crash flight recorder.
//
// Each logical rank (and the service's scheduler thread) owns a Tracer: an
// RAII span API writing into a bounded per-rank ring buffer.  Three consumers
// share the same clock reads:
//
//   * the rank's record (util::PhaseRecord, reached as ctx.timers()) —
//     spans opened with phase_span() charge their exclusive time to their
//     phase: a nested span pauses its parent, so the operator, exchange and
//     collective layers of a step add up to the step span;
//   * the trace export — when obs.trace is on, rings spill into the run's
//     TraceCollector, which merges all ranks into one Chrome trace_event
//     JSON (load chrome://tracing or https://ui.perfetto.dev);
//   * the flight recorder — the last N events stay in the ring and are
//     dumped to obs_dump_rank<r>.json when a rank dies (PeerDeadError,
//     ChecksumError, kill), a job exhausts its retries, or a checkpoint
//     chain read falls back, turning incidents into readable postmortems.
//
// With obs off (obs.trace=0 obs.dump_on_failure=0) span() reduces to a
// single branch and no clock is read; phase_span() still reads the clock
// on open and close to keep the record.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "util/json.hpp"
#include "util/timer.hpp"

namespace ca::obs {

/// Runtime observability knobs, all env-overridable (CA_AGCM_OBS_*).
struct TraceOptions {
  /// Export spans to the run's TraceCollector (Chrome trace JSON).
  bool trace = false;
  /// Keep the flight-recorder ring armed and dump it on failures.
  bool dump_on_failure = true;
  /// Ring capacity (events per rank) for the flight recorder: 1024 holds
  /// two original Y-Z steps at M = 3 (about 370 events each).
  int ring_events = 1024;
  /// Directory receiving obs_dump_rank<r>.json flight dumps.
  std::string dump_dir = ".";

  /// This options value with CA_AGCM_OBS_* environment overrides applied on
  /// top (same pattern as the service.replicate env default): programmatic
  /// settings survive unless the operator exported an override.
  TraceOptions env_resolved() const;
};

struct TraceEvent {
  const char* name = "";
  const char* category = "";
  double ts_us = 0.0;   // relative to the process-wide steady epoch
  double dur_us = 0.0;
  bool instant = false;
  std::string detail;   // optional free-form annotation ("args.detail")
};

class TraceCollector;
class Tracer;

/// Movable RAII handle; closes (and records) the span on destruction.
/// Phase spans nest innermost-first: close one before opening the next at
/// the same level (a new phase span assigned over a live one would open
/// inside it and close with it).
class Span {
 public:
  Span() = default;
  Span(Span&& other) noexcept { *this = std::move(other); }
  Span& operator=(Span&& other) noexcept;
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { finish(); }

  /// Closes the span early (idempotent).
  void finish();
  bool active() const { return tracer_ != nullptr; }

 private:
  friend class Tracer;
  Span(Tracer* tracer, const char* name, const char* category, double t0_us,
       int depth)
      : tracer_(tracer), name_(name), category_(category), t0_us_(t0_us),
        depth_(depth) {}

  Tracer* tracer_ = nullptr;
  const char* name_ = "";
  const char* category_ = "";
  double t0_us_ = 0.0;
  int depth_ = -1;  // slot on the tracer's phase stack; -1 = trace-only
};

class Tracer {
 public:
  Tracer() = default;

  /// Arms the tracer.  tid identifies this ring in merged traces and dump
  /// file names (world rank; -1 = the service scheduler).  phase_sink, when
  /// set, is the record phase_span() charges (the rank's ctx.timers()).
  /// collector, when set and opts.trace is on, receives the full span
  /// stream under (pid, tid).
  void configure(const TraceOptions& opts, int tid,
                 util::PhaseTimers* phase_sink = nullptr,
                 TraceCollector* collector = nullptr, int pid = 0);

  /// True when events are being recorded (trace export or flight ring).
  bool recording() const { return recording_; }
  const TraceOptions& options() const { return opts_; }

  /// Trace-only span: a single predicted-false branch when obs is off.
  Span span(const char* name, const char* category = "core") {
    if (!recording_) return Span{};
    return Span(this, name, category, now_us(), -1);
  }

  /// Span charging its exclusive time to `phase` in the record; traced as
  /// `name` (default: the phase's name) under the phase's name as category.
  Span phase_span(util::Phase phase, const char* name = nullptr);

  /// Runs f() under phase_span(phase).
  template <typename F>
  void timed(util::Phase phase, F&& f) {
    Span span = phase_span(phase);
    f();
  }

  /// Point event (heartbeat beat, retransmit request, scheduler decision).
  void instant(const char* name, const char* category = "comm",
               std::string detail = {});

  /// Events recorded / overwritten-before-export since configure().
  std::uint64_t recorded() const { return recorded_; }
  std::uint64_t dropped() const { return dropped_; }

  /// Ring contents, oldest first.
  std::vector<TraceEvent> ring_snapshot() const;

  /// Pushes any ring remainder to the collector (when exporting).  Called
  /// once when the owning rank finishes; safe to call repeatedly.
  void flush();

  /// Flight-recorder document for this ring (schema ca-agcm/obs-flight/v1).
  util::Json flight_json(const std::string& reason) const;

  /// Writes flight_json to <dump_dir>/obs_dump_rank<tid>.json (tid < 0 =>
  /// obs_dump_service.json).  A second incident for the same timeline
  /// never clobbers the first: once the legacy name exists, later dumps
  /// append a monotonic `.incident<seq>` suffix (probe-based, so the
  /// sequence survives Tracer reconstruction across attempts).  No-op
  /// returning "" when dump_on_failure is off; returns the path written
  /// otherwise.
  std::string dump_flight(const std::string& reason);

  /// Microseconds since the process-wide steady epoch shared by every
  /// tracer, so per-rank timelines merge without skew.
  static double now_us();

 private:
  friend class Span;
  void record(const char* name, const char* category, double ts_us,
              double dur_us, bool instant, std::string detail);
  /// Charges the innermost open phase span's self time up to t_us.
  void charge_top(double t_us);
  /// charge_top, then pops the stack down to `depth`; the new top resumes
  /// at t_us.
  void close_phase(std::size_t depth, double t_us);

  struct OpenPhase {
    util::Phase phase;
    double resume_us;  // start of the current self-time interval
  };

  TraceOptions opts_;
  bool recording_ = false;
  bool exporting_ = false;
  int tid_ = 0;
  int pid_ = 0;
  util::PhaseTimers* phase_sink_ = nullptr;
  std::vector<OpenPhase> open_;  // open phase spans, innermost last
  TraceCollector* collector_ = nullptr;
  std::vector<TraceEvent> ring_;
  std::size_t ring_capacity_ = 0;
  std::size_t head_ = 0;  // oldest entry once the ring has wrapped
  bool wrapped_ = false;
  std::uint64_t recorded_ = 0;
  std::uint64_t dropped_ = 0;
};

/// Thread-safe sink merging every rank's spans of a run (pid = job id,
/// tid = rank) into one Chrome trace_event document.
class TraceCollector {
 public:
  void add(int pid, int tid, std::vector<TraceEvent> events);
  void set_process_name(int pid, std::string name);
  void set_thread_name(int pid, int tid, std::string name);

  std::size_t event_count() const;
  /// {"traceEvents": [...], "displayTimeUnit": "ms"} — "X" complete events
  /// and "i" instants, plus "M" metadata naming processes/threads.
  util::Json chrome_trace() const;
  /// Serializes chrome_trace() to `path`; returns false on I/O failure.
  bool write(const std::string& path) const;

 private:
  struct Item {
    int pid;
    int tid;
    TraceEvent ev;
  };
  mutable std::mutex mutex_;
  std::vector<Item> items_;
  std::vector<std::pair<int, std::string>> process_names_;
  std::vector<std::pair<std::pair<int, int>, std::string>> thread_names_;
};

/// Structural validation of a Chrome trace document ("" = valid, else a
/// description of the first violation).  Used by tests and the bench gates.
std::string validate_chrome_trace(const util::Json& doc);

}  // namespace ca::obs
