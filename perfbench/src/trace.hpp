// The benchmark's own span recorder.  Spans are opened by the benchmark
// around its calls into the library (never inside it), kept in memory, and
// written as one Chrome trace_event file when the run ends.  Every
// per-layer metric is derived from these spans plus the counters the
// library already exposes.
#pragma once

#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace pb {

struct SpanRecord {
  const char* name = "";
  int tid = 0;       ///< lane: rank id, or a fixed lane of the main thread
  double t0 = 0.0;   ///< seconds on pb::now_s()
  double t1 = 0.0;
  int parent = -1;   ///< index of the enclosing span on the same lane
  double work = 0.0; ///< cells, bytes or lines handled by the call
  double dur() const { return t1 - t0; }
};

class Trace {
 public:
  explicit Trace(bool enabled) : enabled_(enabled) {}
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  bool enabled() const { return enabled_; }

  /// RAII span; inert (no clock read) when tracing is off.
  class Scope {
   public:
    Scope() = default;
    Scope(Scope&& o) noexcept : trace_(o.trace_), id_(o.id_) { o.trace_ = nullptr; }
    Scope& operator=(Scope&&) = delete;
    Scope(const Scope&) = delete;
    ~Scope() { finish(); }
    void finish();

   private:
    friend class Trace;
    Scope(Trace* t, int id) : trace_(t), id_(id) {}
    Trace* trace_ = nullptr;
    int id_ = -1;
  };

  Scope span(int tid, const char* name, double work = 0.0);
  /// Records an already-finished span (e.g. a job from its due time to
  /// its terminal state, observed by another thread).
  void add(int tid, const char* name, double t0, double t1, double work = 0.0);

  std::vector<SpanRecord> spans() const;
  /// Writes {"traceEvents": [...]} with one "X" event per span; returns
  /// false on I/O failure.
  bool write_chrome(const std::string& path) const;

 private:
  void close(int id);

  bool enabled_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  std::map<int, std::vector<int>> open_;  // lane -> stack of open span ids
};

/// Durations of the spans called `name` (on lane `tid`, or every lane
/// when tid < 0).
std::vector<double> durations(const std::vector<SpanRecord>& spans,
                              const std::string& name, int tid = -1);
/// Summed work of the spans called `name`.
double total_work(const std::vector<SpanRecord>& spans, const std::string& name,
                  int tid = -1);

}  // namespace pb
