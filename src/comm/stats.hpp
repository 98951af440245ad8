// Per-rank communication statistics, charged to the rank's phase record
// (util/timer.hpp).  The schedule-level performance model is validated
// against these counters (tests/schedule_match_test.cpp): the event
// simulator must predict exactly the message counts and byte volumes the
// functional runtime incurs.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/timer.hpp"

namespace ca::comm {

/// The record's counter struct under the name perfbench reads
/// (`ctx.stats().grand_totals()`).
using PhaseStats = util::PhaseStats;

/// Snapshot of the fault-injection layer's event counters (see
/// comm/fault.hpp).  `injected` events were placed by the FaultPlan,
/// `detected` ones surfaced as typed errors, `recovered` ones were healed
/// transparently (retransmission, duplicate suppression, late delivery).
struct FaultSummary {
  std::uint64_t injected_delay = 0;
  std::uint64_t injected_duplicate = 0;
  std::uint64_t injected_drop = 0;
  std::uint64_t injected_corrupt = 0;
  std::uint64_t injected_stall = 0;
  std::uint64_t injected_kill = 0;
  std::uint64_t injected_hang = 0;
  /// In-memory prognostic-state pokes (kCorruptState numerical faults).
  std::uint64_t injected_state_corrupt = 0;
  std::uint64_t detected_checksum = 0;
  std::uint64_t detected_timeout = 0;
  /// Receives abandoned by the heartbeat watchdog (PeerDeadError).
  std::uint64_t detected_peer_dead = 0;
  /// NumericalError incidents raised by the health sentinel under
  /// injection (the detection side of kCorruptState).
  std::uint64_t detected_numeric = 0;
  std::uint64_t recovered_delay = 0;
  std::uint64_t recovered_duplicate = 0;
  std::uint64_t recovered_drop = 0;

  std::uint64_t injected_total() const;
  std::uint64_t detected_total() const;
};

/// Buffer-pool behavior of the hot communication paths (halo pack/recv
/// buffers).  Steady-state tests assert that after warm-up every acquire
/// is a reuse: a growing pool in the step loop is a perf regression.
struct PoolStats {
  /// Pool acquires that had to grow a buffer's heap capacity.
  std::uint64_t allocations = 0;
  /// Pool acquires served entirely from existing capacity.
  std::uint64_t reuses = 0;
};

/// The traffic side of a rank's record: the sticky phase sends are
/// charged to, collective nesting and the exchange pools.  The record
/// itself also holds the seconds the rank's spans charge.
class CommStats {
 public:
  void set_phase(util::Phase phase) { phase_ = phase; }
  util::Phase phase() const { return phase_; }

  /// Marks subsequent sends as part of a collective algorithm.
  void enter_collective();
  void leave_collective();
  bool in_collective() const { return collective_depth_ > 0; }

  void record_send(std::size_t bytes);
  void record_collective_call();

  /// One exchange-pool buffer acquire; `grew` marks a heap allocation.
  void record_pool_acquire(bool grew);
  const PoolStats& pool() const { return pool_; }

  const PhaseStats& phase_totals(util::Phase phase) const {
    return record_[phase];
  }
  PhaseStats grand_totals() const { return record_.sum(); }

  util::PhaseRecord& record() { return record_; }
  const util::PhaseRecord& record() const { return record_; }

 private:
  util::Phase phase_ = util::Phase::kDefault;
  int collective_depth_ = 0;
  util::PhaseRecord record_;
  PoolStats pool_;
};

}  // namespace ca::comm
