// Deterministic, seedable fault injection for the comm runtime.  A
// FaultPlan holds a set of rules scoped by sender phase, tag, and world
// rank pair; every injection decision is a pure hash of (seed, rule,
// message identity), so two runs with the same seed and the same traffic
// inject exactly the same faults regardless of thread interleaving.
//
// Faults are injected at the mailbox boundary:
//   - kDelay:     the message becomes visible only after `param` receive
//                 polls of the destination mailbox.
//   - kDuplicate: a second copy is enqueued; the receiver suppresses it
//                 via the sequence number.
//   - kDrop:      the message is withheld ("dropped once") until the
//                 receiver's poll loop requests retransmission; with
//                 retries disabled the receive times out instead.
//   - kCorrupt:   `param` payload bytes are flipped after the checksum is
//                 computed, so verification fails with ChecksumError.
//   - kStall:     the matching rank sleeps `param` poll intervals at the
//                 step boundary (Context::notify_step).
//
// The plan also owns the injected/detected/recovered counters (shared by
// all ranks of a run), snapshotted as comm::FaultSummary.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "comm/message.hpp"
#include "comm/stats.hpp"

namespace ca::comm {

enum class FaultKind {
  kDelay,
  kDuplicate,
  kDrop,
  kCorrupt,
  kStall,
  /// Process-level fault: the rank throws RankKilledError at the step
  /// boundary and never responds again (a node loss).  Peers with the
  /// heartbeat watchdog enabled unwind with PeerDeadError.
  kKillRank,
  /// Process-level fault: the rank sleeps `param` milliseconds at the
  /// step boundary without stamping its heartbeat — long enough hangs
  /// trip the peers' watchdog exactly like a kill.
  kHangRank,
  /// Numerical fault: an in-memory poke of one prognostic field cell on
  /// the matching rank right after the step completes (NaN, Inf, or an
  /// out-of-bounds value per `param` — see FaultPlan::state_fault).  The
  /// comm layer never executes this one; the service's runner queries
  /// state_fault() from the campaign's on_step_state hook and performs
  /// the poke, which the numerical-health sentinel must then detect.
  kCorruptState,
};

/// One injection rule.  Unset scopes (empty phase, kAnyTag, kAnySource)
/// match everything; src/dst are world ranks.
struct FaultRule {
  FaultKind kind = FaultKind::kDrop;
  double probability = 0.0;
  std::string phase;       // sender's stats phase; empty = any
  int tag = kAnyTag;       // exact tag; kAnyTag = any
  int src = kAnySource;    // sender world rank (for kStall / kKillRank /
                           // kHangRank: the afflicted rank)
  int dst = kAnySource;    // destination world rank
  /// kDelay: visibility delay in polls; kCorrupt: bytes flipped;
  /// kStall: poll intervals slept per stalled step; kHangRank:
  /// milliseconds the rank hangs.
  int param = 1;
  /// kKillRank / kHangRank / kCorruptState trigger step: >= 0 fires
  /// exactly at that step boundary (0-based count of Context::notify_step
  /// calls within one run); < 0 rolls `probability` at every step instead.
  int step = -1;
  /// Attempt scope: 0 matches every attempt; n > 0 matches only the n-th
  /// attempt (1-based, see FaultPlan::set_attempt).  Fixed-step rules
  /// would otherwise re-fire identically on every retry — the per-attempt
  /// reseed only perturbs probability rolls — so a transient fault that a
  /// rollback must survive is expressed as `attempt = 1`.
  int attempt = 0;
};

/// Shared event counters (atomic: senders inject, receivers detect and
/// recover on different threads).
struct FaultCounters {
  std::atomic<std::uint64_t> injected_delay{0};
  std::atomic<std::uint64_t> injected_duplicate{0};
  std::atomic<std::uint64_t> injected_drop{0};
  std::atomic<std::uint64_t> injected_corrupt{0};
  std::atomic<std::uint64_t> injected_stall{0};
  std::atomic<std::uint64_t> injected_kill{0};
  std::atomic<std::uint64_t> injected_hang{0};
  std::atomic<std::uint64_t> injected_state_corrupt{0};
  std::atomic<std::uint64_t> detected_checksum{0};
  std::atomic<std::uint64_t> detected_timeout{0};
  std::atomic<std::uint64_t> detected_peer_dead{0};
  /// NumericalError incidents the health sentinel raised while injection
  /// was active (stamped by the service's runner, not the comm layer).
  std::atomic<std::uint64_t> detected_numeric{0};
  std::atomic<std::uint64_t> recovered_delay{0};
  std::atomic<std::uint64_t> recovered_duplicate{0};
  std::atomic<std::uint64_t> recovered_drop{0};

  FaultSummary summary() const;
};

class FaultPlan {
 public:
  FaultPlan() = default;
  explicit FaultPlan(std::uint64_t seed) : seed_(seed) {}

  void add_rule(FaultRule rule) { rules_.push_back(std::move(rule)); }
  bool enabled() const { return !rules_.empty(); }
  std::uint64_t seed() const { return seed_; }
  const std::vector<FaultRule>& rules() const { return rules_; }

  /// Message-level decision, evaluated by the sender.  Independent rules
  /// compose: a message can be both delayed and duplicated.
  struct Injection {
    bool drop = false;
    bool duplicate = false;
    int delay_polls = 0;
    int corrupt_bytes = 0;
    bool any() const {
      return drop || duplicate || delay_polls > 0 || corrupt_bytes > 0;
    }
  };
  Injection decide(std::string_view phase, int src, int dst, int tag,
                   std::uint64_t seq) const;

  /// Poll intervals rank `rank` must sleep at step `step` (0 = no stall).
  int stall_polls(int rank, std::uint64_t step) const;

  /// Process-level fault decision at a step boundary (kKillRank /
  /// kHangRank rules; evaluated by Context::notify_step).
  struct StepFault {
    bool kill = false;
    int hang_ms = 0;
    bool any() const { return kill || hang_ms > 0; }
  };
  StepFault step_fault(int rank, std::uint64_t step) const;

  /// Numerical fault decision right after a step (kCorruptState rules;
  /// evaluated by the service runner's on_step_state hook).  `param`
  /// encodes field * 10 + mode: field 0 = u, 1 = v, 2 = phi, 3 = psa;
  /// mode 0 = NaN, 1 = Inf, 2 = out-of-bounds finite (1e30).
  struct StateFault {
    bool fire = false;
    int field = 0;
    int mode = 0;
    bool any() const { return fire; }
  };
  StateFault state_fault(int rank, std::uint64_t step) const;

  /// 1-based attempt number the next run executes under; rules with an
  /// `attempt` scope match only when it equals this.  The runner calls
  /// this right before each attempt, alongside the per-attempt reseed.
  void set_attempt(int attempt) { attempt_ = attempt; }
  int attempt() const { return attempt_; }

  FaultCounters& counters() const { return *counters_; }
  FaultSummary summary() const { return counters_->summary(); }

 private:
  std::uint64_t seed_ = 0;
  int attempt_ = 1;
  std::vector<FaultRule> rules_;
  /// Shared so FaultPlan stays copyable (copies share the counters).
  std::shared_ptr<FaultCounters> counters_ =
      std::make_shared<FaultCounters>();
};

}  // namespace ca::comm
