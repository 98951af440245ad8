// Executes ONE attempt of a job on the calling worker thread: spins up a
// comm::Runtime rank group sized to the job's decomposition (a one-rank
// world for serial jobs), restores the job's checkpoint when resuming,
// drives the campaign loop, and gathers the final global state plus
// per-attempt comm metrics.  Failure (a detected fault, a timeout, any
// exception out of the rank group) is reported as an error string, never
// thrown — the WorkerPool's retry logic decides what happens next.
#pragma once

#include <array>
#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "comm/stats.hpp"
#include "core/health.hpp"
#include "obs/trace.hpp"
#include "service/job.hpp"

namespace ca::service {

class ReplicaStore;

/// Where a resumed attempt's state came from.  Collectively agreed: the
/// ranks either ALL restore from RAM replicas or ALL from disk, never a
/// mix (a mixed set has no consistent trajectory).
enum class RestoreSource { kNone = 0, kDisk = 1, kRam = 2 };

struct AttemptResult {
  /// The campaign yielded at a checkpoint (preemption) — not a failure.
  bool yielded = false;
  /// Absolute step reached (== spec.steps when the job completed).
  int end_step = 0;
  /// Job-local world rank that died (RankKilledError) or went silent past
  /// the heartbeat (PeerDeadError) during this attempt; -1 otherwise.
  /// The pool maps it back to a pool rank id for quarantine.
  int dead_rank = -1;
  /// Nonempty = the attempt failed with this diagnostic.
  std::string error;
  /// The attempt failed NUMERICALLY (core::NumericalError: NaN/Inf,
  /// out-of-bounds field, runaway integral) rather than from an
  /// infrastructure fault.  The pool charges these against the separate
  /// service.numeric_retry budget and rolls the job back to its last
  /// healthy checkpoint instead of quarantining ranks.
  bool numeric = false;
  /// Step at which the sentinel tripped (-1 unless `numeric`).
  int numeric_step = -1;
  double run_seconds = 0.0;
  /// Resume provenance: buddy RAM, disk, or a fresh start.
  RestoreSource restored_from = RestoreSource::kNone;
  /// Wall-clock of the restore section (max over ranks): checkpoint
  /// fetch/read + parse + carry restore + halo refresh — the recovery
  /// latency the RAM path exists to cut.
  double restore_seconds = 0.0;
  /// p2p/collective traffic summed over the attempt's ranks.
  comm::PhaseStats comm;
  /// Fault events injected/detected/recovered during this attempt.
  comm::FaultSummary faults;
  /// Gathered full-domain final state (completed attempts only).
  state::State global;

  bool completed(int target_steps) const {
    return error.empty() && !yielded && end_step == target_steps;
  }
};

struct AttemptOptions {
  /// 1-based attempt number; reseeds the job's FaultPlan
  /// (seed + attempt - 1) so injected faults are transient across
  /// retries.
  int attempt = 1;
  /// start_step > 0 means "resume from the per-rank checkpoints under
  /// checkpoint_prefix" (which a prior attempt wrote); the steps actually
  /// re-run are header.step+1 .. spec.steps — the checkpoint header, not
  /// start_step, is the source of truth, because a failed attempt may
  /// have checkpointed past the caller's mark before dying.  start_step
  /// only bounds it from below.  The restore is one agreed loop: each
  /// round every rank loads one candidate (its RAM replica first, then
  /// its disk chain at a target step, starting at the tip), checks it
  /// locally (CRCs, step in [start_step, spec.steps], health), and one
  /// allreduce gives every rank the same verdict.  Rank steps that
  /// disagree retarget every chain to the minimum step; a rank without a
  /// usable candidate fails the attempt on every rank at once.
  int start_step = 0;
  std::string checkpoint_prefix;
  /// May be null; polled at checkpoint boundaries.
  std::function<bool()> should_yield;
  /// Decomposition for THIS attempt ({0,0,0} = spec.dims).  Differs from
  /// spec.dims after the pool reshaped the job for a degraded budget.
  std::array<int, 3> dims{0, 0, 0};
  /// spec.node_faults whose `src` is a pool rank id are remapped to
  /// job-local world ranks through this assignment (pool_ranks[i] backs
  /// job rank i); rules whose pool rank is not assigned are dropped —
  /// that is what makes a node fault survivable by reassignment.  Empty =
  /// identity mapping over spec.node_faults' srcs.
  std::vector<int> pool_ranks;
  /// Non-null enables in-memory replication: every checkpoint cadence
  /// deposits each rank's image here (self + ring buddy), and a resume
  /// prefers a CRC-valid, collectively-agreed RAM set over the disk
  /// files.  The store must outlive the attempt (the pool owns it).
  ReplicaStore* replicas = nullptr;
  /// Checkpoint delta chaining (util::DeltaOptions::chain_cap): 0 writes
  /// a full file every cadence (the historical behavior), > 0 writes at
  /// most that many delta files between full bases.
  int delta_chain = 0;
  /// Dirty-diff granularity for delta checkpoints [bytes].
  std::size_t delta_block_bytes = 4096;
  /// Observability of the attempt's rank group: span recording / flight
  /// recorder knobs forwarded into comm::RunOptions.  Env overrides
  /// (CA_AGCM_OBS_*) still apply on top inside the rank group.
  obs::TraceOptions obs{};
  /// Non-null receives every rank's span stream for a merged Chrome
  /// trace; must outlive the attempt (the pool owns it).
  obs::TraceCollector* trace_sink = nullptr;
  /// Trace process id for this job's rank group (the pool passes the job
  /// id so per-job timelines separate in the merged trace).
  int trace_pid = 0;
  /// Numerical-health sentinel for the attempt's campaign (default OFF;
  /// the pool injects its service-level default here).  When enabled,
  /// restores are also verified: a candidate that fails the static
  /// bounds check on any rank is treated as poisoned — an unhealthy RAM
  /// replica purges the job's replica set and sends every rank to disk,
  /// and an unhealthy disk step rewinds every rank's delta chain one
  /// checkpoint cadence (max_step) per round until all ranks hold a
  /// healthy common step, or fails once the rewind would pass start_step.
  core::HealthOptions health{};
};

/// Runs the job to spec.steps with the given attempt options.
AttemptResult run_attempt(const JobSpec& spec, const AttemptOptions& opts);

}  // namespace ca::service
