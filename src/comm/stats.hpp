// Per-rank communication statistics, attributed to named phases.  The
// schedule-level performance model is validated against these counters
// (tests/schedule_match_test.cpp): the event simulator must predict exactly
// the message counts and byte volumes the functional runtime incurs.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace ca::comm {

struct PhaseStats {
  std::uint64_t p2p_messages = 0;
  std::uint64_t p2p_bytes = 0;
  std::uint64_t collective_calls = 0;
  /// Bytes this rank sent while inside collective algorithms.
  std::uint64_t collective_bytes = 0;

  PhaseStats& operator+=(const PhaseStats& o) {
    p2p_messages += o.p2p_messages;
    p2p_bytes += o.p2p_bytes;
    collective_calls += o.collective_calls;
    collective_bytes += o.collective_bytes;
    return *this;
  }
};

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
  std::uint64_t recovered_total() const;
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

class CommStats {
 public:
  void set_phase(std::string phase) { phase_ = std::move(phase); }
  const std::string& phase() const { return phase_; }

  /// Marks subsequent sends as part of a collective algorithm.
  void enter_collective();
  void leave_collective();
  bool in_collective() const { return collective_depth_ > 0; }

  void record_send(std::size_t bytes);
  void record_collective_call();

  /// One exchange-pool buffer acquire; `grew` marks a heap allocation.
  void record_pool_acquire(bool grew);
  const PoolStats& pool() const { return pool_; }

  PhaseStats phase_totals(const std::string& phase) const;
  PhaseStats grand_totals() const;
  void clear();

 private:
  std::string phase_ = "default";
  int collective_depth_ = 0;
  std::map<std::string, PhaseStats> stats_;
  PoolStats pool_;
};

}  // namespace ca::comm
