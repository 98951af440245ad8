// SPMD launcher: Runtime::run(p, fn) executes fn(Context&) on p logical
// ranks, each backed by a std::thread with its own mailbox.  Exceptions
// thrown by any rank are captured and the first one is rethrown after all
// ranks have been joined.
//
// The RunOptions overload threads a FaultPlan and the bounded-wait
// parameters (receive timeout, poll interval, retry budget) through every
// mailbox of the run; the default overload runs fault-free with the
// default (generous but finite) timeout.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "comm/health.hpp"
#include "comm/mailbox.hpp"
#include "obs/trace.hpp"

namespace ca::comm {

class Context;
class FaultPlan;

/// Run-wide communication knobs.  Defaults keep the fault-free fast path:
/// no injection, no per-message bookkeeping, one bounded wait per recv.
struct RunOptions {
  /// Fault-injection plan (not owned); null disables injection entirely.
  FaultPlan* faults = nullptr;
  /// Deadline of every blocking receive; beyond it TimeoutError is raised.
  std::chrono::milliseconds recv_timeout{120000};
  /// Receive poll period while a FaultPlan is active (delay aging and
  /// retransmission run on this cadence; also the unit of kStall sleeps).
  std::chrono::microseconds poll_interval{200};
  /// Retransmissions a receiver may request for a withheld ("dropped")
  /// message; 0 turns drop recovery off so drops surface as timeouts.
  int max_resends = 1;
  /// Heartbeat watchdog: a blocked receive fails with PeerDeadError once a
  /// peer's liveness stamp is older than this.  0 (the default) disables
  /// the watchdog and keeps the fault-free single-wait receive path.
  /// Must exceed the longest communication-free compute span of the run,
  /// or healthy-but-busy ranks get flagged.
  std::chrono::milliseconds heartbeat_timeout{0};
  /// Observability knobs for every rank of the run (tracing ring, flight
  /// dumps).  World applies CA_AGCM_OBS_* env overrides on top, so even
  /// call sites passing RunOptions{} honour an operator's obs.trace=1.
  obs::TraceOptions obs{};
  /// Merged-trace sink (not owned); rank rings flush here when obs.trace
  /// is on.  trace_pid labels this run's timeline (the service passes the
  /// job id; standalone runs keep 0).
  obs::TraceCollector* trace_sink = nullptr;
  int trace_pid = 0;
};

/// Shared state of one SPMD execution.
class World {
 public:
  explicit World(int nranks, const RunOptions& options = {});

  int size() const { return static_cast<int>(mailboxes_.size()); }
  Mailbox& mailbox(int rank) { return *mailboxes_[rank]; }
  const RunOptions& options() const { return options_; }
  FaultPlan* fault_plan() const { return options_.faults; }
  HealthBoard& health() { return health_; }

  /// Allocates `count` consecutive communicator ids; returns the first.
  std::uint64_t allocate_comm_ids(std::uint64_t count);

 private:
  RunOptions options_;
  /// Declared before the mailboxes: configure() hands each mailbox a
  /// pointer into this board.
  HealthBoard health_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::atomic<std::uint64_t> next_comm_id_{1};  // 0 = world communicator
};

class Runtime {
 public:
  /// Runs fn on nranks logical ranks and blocks until all finish.
  static void run(int nranks, const std::function<void(Context&)>& fn);
  /// As above with explicit communication options (fault plan, timeouts).
  static void run(int nranks, const RunOptions& options,
                  const std::function<void(Context&)>& fn);
};

}  // namespace ca::comm
