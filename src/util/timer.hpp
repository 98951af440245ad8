// Wall-clock timers and per-phase second totals used by the functional runs
// to attribute time to the phases the paper reports (collective, stencil
// communication, computation).
#pragma once

#include <chrono>
#include <map>
#include <string>

namespace ca::util {

class Timer {
 public:
  Timer() : start_(clock::now()) {}

  void reset() { start_ = clock::now(); }

  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Accumulates elapsed seconds under string keys.  Not thread-safe; each
/// logical rank keeps its own.
class PhaseTimers {
 public:
  /// Adds an externally measured duration (obs:: spans charge their elapsed
  /// time here so trace timelines and phase totals share one clock pair).
  void add(const std::string& phase, double seconds);
  double total(const std::string& phase) const;
  const std::map<std::string, double>& totals() const { return totals_; }
  void clear();

 private:
  std::map<std::string, double> totals_;
};

}  // namespace ca::util
