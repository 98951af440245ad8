// Wall-clock timers and the per-rank record: one counter struct per
// accounting phase, shared by the comm runtime's traffic counters, the
// obs spans' seconds and the event simulator's per-rank result, so the
// paper's split of a step into collective communication, stencil
// communication and computation is kept one way everywhere.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string_view>

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

/// The accounting phases.  Traffic is charged to the sticky phase a rank
/// sets (comm::CommStats::set_phase); seconds to the innermost open span
/// (obs::Tracer::phase_span).  The simulator charges stencil, collective
/// and compute.
enum class Phase : std::uint8_t {
  // Traffic phases, and the simulator's stencil / collective / compute.
  kDefault, kStencil, kCollective, kService, kReplicate, kHealth, kCompute,
  // The exchange engine: pack/post and unpack, and blocked receives.
  kExchange, kExchangeWait,
  // A step and its layers; kUpdate is the RK stage combination.
  kStep, kLocalDiag, kColumn, kAdaptation, kAdvection, kFilter, kSmoothing,
  kUpdate, kBoundaryFill,
  kCount
};

inline constexpr std::size_t kPhaseCount =
    static_cast<std::size_t>(Phase::kCount);

/// The name table: report, JSON and CSV output, and trace span names.
const char* phase_name(Phase p);

struct PhaseStats {
  double seconds = 0.0;
  std::uint64_t p2p_messages = 0;
  std::uint64_t p2p_bytes = 0;
  std::uint64_t collective_calls = 0;
  /// Bytes sent while inside collective algorithms.
  std::uint64_t collective_bytes = 0;

  PhaseStats& operator+=(const PhaseStats& o);
  bool operator==(const PhaseStats&) const = default;
};

/// One rank's record: a PhaseStats per phase.  Not thread-safe; each
/// logical rank keeps its own.
class PhaseRecord {
 public:
  PhaseStats& operator[](Phase p) {
    return stats_[static_cast<std::size_t>(p)];
  }
  const PhaseStats& operator[](Phase p) const {
    return stats_[static_cast<std::size_t>(p)];
  }
  /// Seconds charged to the phase named `name` (0 for an unknown name).
  double total(std::string_view name) const;
  /// Every phase summed.
  PhaseStats sum() const;
  void clear() { stats_ = {}; }

 private:
  std::array<PhaseStats, kPhaseCount> stats_{};
};

/// The record's name where perfbench reads per-phase seconds
/// (`total("exchange" | "exchange_wait" | "collective")`).
using PhaseTimers = PhaseRecord;

}  // namespace ca::util
