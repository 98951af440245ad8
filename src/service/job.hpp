// Job model of the ensemble service: what a simulation request looks
// like (JobSpec), the lifecycle it moves through (JobState), and what the
// service reports back (JobMetrics / JobResult).  Validation happens at
// submit time so malformed requests are rejected before they ever reach a
// worker slot's rank group.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "comm/fault.hpp"
#include "comm/runtime.hpp"
#include "comm/stats.hpp"
#include "core/dycore_config.hpp"
#include "state/initial.hpp"
#include "state/state.hpp"

namespace ca::service {

enum class CoreKind { kSerial, kOriginal, kCA };

/// One simulation request.  The service copies the spec at submit; later
/// mutation by the caller has no effect on the queued job.
struct JobSpec {
  std::string name = "job";
  CoreKind core = CoreKind::kSerial;
  core::DycoreConfig config;
  /// Decomposition scheme (original core only; CA is always Y-Z).
  core::DecompScheme scheme = core::DecompScheme::kYZ;
  /// Algorithm switches of the CA core (CA jobs only).  Jobs that must
  /// stay bitwise across a degraded-pool reshard or elastic
  /// shrink/re-grow should clear fresh_c_on_block_face — paper mode's
  /// block-face collectives make the trajectory decomposition-dependent
  /// (same error class as the approximate iteration).  Exact mode is
  /// bitwise invariant to the y split; a reshard that changes pz still
  /// regroups the z-collective partial sums and lands in the same
  /// round-off class as the original core's cross-shape resume (1e-8).
  core::CAOptions ca_options{};
  /// Process grid {px, py, pz}; its product is the job's rank demand on
  /// the pool.  Must be {1,1,1} for the serial core.
  std::array<int, 3> dims{1, 1, 1};
  /// Target absolute step count.
  int steps = 1;
  state::InitialOptions initial;
  /// Apply Held-Suarez forcing after every step (forcing_dt <= 0 uses the
  /// core's dt_advect).
  bool held_suarez = false;
  double forcing_dt = 0.0;

  /// Larger runs first; FIFO within a priority level.
  int priority = 0;
  /// Soft wall-clock deadline from submit [s] (0 = none).  Purely an SLO
  /// marker: the report flags jobs that finished late.
  double deadline_seconds = 0.0;

  /// Checkpoint cadence in steps; > 0 makes the job preemptible (it can
  /// yield its ranks at checkpoint boundaries and resume later).  All
  /// three cores support this: the CA core's cross-step carry state
  /// (deferred smoothing, stale C products, step counter) travels in the
  /// checkpoint's v3 core-carry block, so a resumed CA run is bitwise
  /// identical to an uninterrupted one.
  int checkpoint_every = 0;

  /// Fault-injection plan for this job's rank group (enabled() drives
  /// injection).  Every attempt reseeds the plan with seed + attempt - 1:
  /// the deterministic injector would otherwise replay the identical
  /// fault on every retry, which models a hard fault — with reseeding an
  /// injected fault is transient and a retry can succeed.
  comm::FaultPlan faults;
  /// Node-resident process faults (kKillRank / kHangRank rules) whose
  /// `src` is a POOL rank id, not a job rank: the fault lives on the
  /// node, so after the pool quarantines that rank and reassigns the job
  /// to healthy ranks, the rule no longer applies and the retry can
  /// succeed.  (A kill/hang rule in `faults` above would instead follow
  /// the job to every assignment — a job-resident fault.)  The runner
  /// remaps these to job-local ranks per attempt via the pool assignment.
  std::vector<comm::FaultRule> node_faults;
  /// Attempt budget (>= 1).  A failed attempt is retried with exponential
  /// backoff until the budget is exhausted, then the job ends kFailed
  /// with the accumulated FaultSummary.  Rank-death recoveries do NOT
  /// burn attempts (they are the pool's fault, not the job's); they are
  /// bounded separately by the pool's recovery cap.
  int max_attempts = 1;
  /// Base backoff before attempt n+1 [s]; doubles per retry.
  double retry_backoff_seconds = 0.0;

  /// Bounded-wait knobs of the job's rank group (comm.faults is ignored;
  /// the plan above travels separately).  Fault-injected jobs should keep
  /// recv_timeout short: after one rank dies of a detected fault, the
  /// surviving ranks take a full timeout to unwind.
  comm::RunOptions comm;

  int ranks() const { return dims[0] * dims[1] * dims[2]; }
};

/// Lifecycle: kQueued -> kRunning -> kCompleted | kFailed, with kRunning
/// -> kPreempted -> kRunning loops (checkpoint yield) and kRunning ->
/// kBackoff -> kRunning loops (failed attempt awaiting retry).
enum class JobState {
  kQueued,
  kRunning,
  kPreempted,
  kBackoff,
  kCompleted,
  kFailed,
};

const char* to_string(JobState s);
const char* to_string(CoreKind k);

/// Per-job service metrics (all attempts accumulated).
struct JobMetrics {
  double queue_wait_seconds = 0.0;  ///< total time spent waiting in queue
  double run_seconds = 0.0;         ///< total time on a worker slot
  double backoff_seconds = 0.0;     ///< scheduled retry backoff
  double steps_per_second = 0.0;    ///< steps executed / run_seconds
  std::uint64_t messages = 0;       ///< p2p messages, summed over ranks
  std::uint64_t bytes = 0;
  std::uint64_t collective_calls = 0;
  int attempts = 0;
  int preemptions = 0;
  /// Scheduler dispatches of OTHER jobs that happened while this job sat
  /// queued (summed over all of its queue residencies).  A wall-clock-free
  /// fairness measure: aging bounds how many times a low-priority job can
  /// be overtaken, regardless of how slow the machine is.
  std::uint64_t dispatches_overtaken = 0;
  /// Attempts abandoned to a dead/hung rank and re-queued onto healthy
  /// ranks (checkpoint recovery; not counted against max_attempts).
  int rank_recoveries = 0;
  /// Attempts the health sentinel aborted (core::NumericalError) and the
  /// pool rolled back to the last healthy checkpoint.  Charged against
  /// the pool's service.numeric_retry budget, NOT against max_attempts —
  /// a blowup is the trajectory's fault, not the infrastructure's.
  int numeric_rollbacks = 0;
  /// Resumes served from in-memory buddy replicas (no checkpoint file
  /// was read) vs. from the on-disk checkpoint chain.
  int ram_restores = 0;
  int disk_restores = 0;
  /// Total wall-clock spent restoring state across all resumed attempts
  /// (max over ranks per attempt) — the recovery latency replication cuts.
  double restore_seconds = 0.0;
  bool deadline_missed = false;
};

/// Terminal snapshot of a job, returned by EnsembleService::result().
struct JobResult {
  int id = -1;
  std::string name;
  JobState state = JobState::kQueued;
  int steps_done = 0;
  /// Decomposition of the job's last/next attempt; == the spec's dims
  /// unless the pool reshaped the job for a degraded rank budget.
  std::array<int, 3> active_dims{1, 1, 1};
  JobMetrics metrics;
  comm::FaultSummary faults;
  std::string error;  ///< terminal failure message (kFailed only)
  /// Gathered full-domain final state (kCompleted only).
  state::State final_state;
  /// True when an EARLIER state-taking snapshot already moved the final
  /// state out: final_state above is then default-constructed (empty),
  /// and comparing against it would be a silent bug.  Callers that want
  /// the state must check this instead of trusting kCompleted alone.
  bool state_already_taken = false;
};

/// Checks a spec against the pool's rank budget; returns an empty string
/// when valid, otherwise a description of the first problem.  Mirrors the
/// cores' constructor preconditions so bad jobs are rejected at submit,
/// not by an exception inside a worker's rank group.
std::string validate(const JobSpec& spec, int rank_budget);

/// Internal job record shared by scheduler, worker pool, and service.
/// Mutable fields are guarded by the owning WorkerPool's mutex, except
/// yield_requested which workers' rank groups poll lock-free.
struct Job {
  Job(int id, JobSpec s) : id(id), spec(std::move(s)), active_dims(spec.dims) {}

  const int id;
  const JobSpec spec;

  /// Preemption flag: set by the pool, polled (and collectively agreed
  /// on) by the job's campaign at checkpoint boundaries.
  std::atomic<bool> yield_requested{false};

  // --- guarded by the pool mutex ---
  JobState state = JobState::kQueued;
  std::uint64_t sequence = 0;  ///< FIFO order within a priority level
  /// Times a smaller job was popped past this one while it headed the
  /// ready queue without fitting; Scheduler::kMaxBypasses bounds it so
  /// backfill cannot starve the job (reset every time it is popped).
  int bypassed = 0;
  std::chrono::steady_clock::time_point submitted_at{};
  std::chrono::steady_clock::time_point last_queued_at{};
  /// Pool dispatch counter value at this job's latest queue entry; the
  /// pop site accrues metrics.dispatches_overtaken from the difference.
  std::uint64_t dispatch_mark = 0;
  std::chrono::steady_clock::time_point ready_at{};  ///< backoff gate
  int steps_done = 0;       ///< last checkpointed absolute step
  /// Decomposition the NEXT attempt runs with.  Starts as spec.dims;
  /// shrinks when the pool re-factorizes the job for a permanently
  /// degraded rank budget or an elastic squeeze under queue pressure,
  /// and re-grows toward spec.dims when budget returns (distributed
  /// cores only — the CA carry reshards geometrically; serial jobs are
  /// always {1,1,1}).
  std::array<int, 3> active_dims;
  /// Non-zero when the on-disk checkpoint set still has the PREVIOUS
  /// decomposition's shape and must be resharded before the next attempt.
  std::array<int, 3> reshard_from{0, 0, 0};
  /// Pool rank ids backing the current attempt, job world-rank order.
  std::vector<int> assigned_ranks;
  /// Current rank demand (product of active_dims).
  int ranks() const {
    return active_dims[0] * active_dims[1] * active_dims[2];
  }
  JobMetrics metrics;
  comm::FaultSummary faults;
  std::string error;
  state::State final_state;
  /// final_state has been moved out by a take_state snapshot; the member
  /// above is now default-constructed and must not be handed out again.
  bool final_state_taken = false;
  std::string checkpoint_prefix;
};

}  // namespace ca::service
