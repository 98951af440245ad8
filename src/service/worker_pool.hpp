// Worker pool of the ensemble service: N slot threads multiplex queued
// jobs over a shared rank budget.  Each slot that picks a job spins up a
// comm::Runtime rank group sized to the job's decomposition (via
// service::run_attempt), so the budget bounds the total logical ranks in
// flight, not the number of jobs.
//
// The pool implements the two reliability behaviors on top of the
// Scheduler's policy:
//   - preemption: when the best ready job does not fit the free budget,
//     the pool asks enough lower-priority preemptible running jobs to
//     yield; their campaigns stop at the next checkpoint boundary and the
//     jobs re-enter the queue with a resume offset, so short
//     high-priority work is never starved by long runs;
//   - retry with backoff: a failed attempt (detected fault, timeout, any
//     exception out of the rank group) re-enters the queue gated by an
//     exponentially growing ready_at until the attempt budget is spent,
//     after which the job ends kFailed with its accumulated FaultSummary;
//   - rank health: the budget is tracked per rank.  An attempt that ends
//     with a dead/hung rank (AttemptResult::dead_rank) quarantines that
//     pool rank for quarantine_seconds, and a circuit breaker retires it
//     permanently after max_rank_strikes quarantines.  The job re-queues
//     WITHOUT burning an attempt and resumes from its last checkpoint on
//     healthy ranks — re-factorized to a smaller process grid when its
//     shape can no longer fit the surviving budget.  This covers every
//     distributed core: the CA core's cross-step carry travels in the
//     checkpoint's reshardable carry blocks, so reshard_checkpoints
//     redistributes it geometrically along with the field interiors;
//   - elasticity (opt-in, PoolOptions::elastic): under queue pressure a
//     preemptible job that cannot fit the idle ranks is squeezed to a
//     smaller valid decomposition and runs narrow instead of waiting for
//     preemption to free its full shape; when it is next dispatched with
//     room to spare it re-grows toward its submitted dims.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/health.hpp"
#include "obs/trace.hpp"
#include "service/job.hpp"
#include "service/replica.hpp"
#include "service/scheduler.hpp"

namespace ca::service {

struct PoolOptions {
  int slots = 2;                    ///< worker slot threads
  int rank_budget = 4;              ///< total logical ranks in flight
  std::size_t queue_capacity = 16;  ///< backpressure bound on submissions
  /// Directory for the per-job checkpoint files preemption rides on.
  std::string checkpoint_dir = ".";
  /// Quarantines before a rank is retired for good (circuit breaker).
  int max_rank_strikes = 3;
  /// How long a struck rank sits out before rejoining the budget.
  double quarantine_seconds = 0.25;
  /// Scheduler aging rate [priority points per waiting second]; 0 = off.
  double aging_rate = 0.0;
  /// In-memory buddy replication of checkpoint images: every cadence
  /// each rank deposits its image into the pool's ReplicaStore (self +
  /// ring buddy), and resumes prefer the RAM set over the disk files
  /// (env override CA_AGCM_SERVICE_REPLICATE).
  bool replicate = false;
  /// Voluntary rank elasticity (env override CA_AGCM_SERVICE_ELASTIC).
  /// On: a preemptible job whose demand does not fit the idle ranks is
  /// squeezed to the largest valid smaller decomposition and runs narrow
  /// instead of waiting for preemption, re-growing toward its submitted
  /// dims when room returns.  Off (the default): decompositions change
  /// only when the usable budget shrinks permanently (a rank retired).
  bool elastic = false;
  /// Checkpoint delta chaining: > 0 writes at most that many dirty-block
  /// delta files between full bases (0 = full file every cadence; env
  /// override CA_AGCM_SERVICE_DELTA_CHAIN).
  int delta_chain = 0;
  /// Dirty-diff granularity for delta checkpoints [bytes].
  std::size_t delta_block_bytes = 4096;
  /// Numerical-health sentinel for every attempt's campaign — ON by
  /// default at the service layer (cadence 1): a production pool must
  /// never complete a blown-up trajectory or persist/replicate a
  /// poisoned state.  Env overrides CA_AGCM_HEALTH_*; cadence 0 turns
  /// the sentinel off entirely.
  core::HealthOptions health{.cadence = 1};
  /// Separate retry budget for NUMERIC rollbacks (env override
  /// CA_AGCM_SERVICE_NUMERIC_RETRY): how many times a job's sentinel trip
  /// may roll it back to its last healthy checkpoint before it fails.
  /// Distinct from JobSpec::max_attempts — comm faults and blowups have
  /// different causes and different bounded budgets.
  int numeric_retry = 2;
  /// Observability knobs forwarded to every attempt's rank group and to
  /// the pool's own scheduler tracer (tid -1 in merged traces).
  obs::TraceOptions obs{};
  /// Non-null receives every job's span stream (pid = job id) plus the
  /// scheduler timeline; must outlive the pool.
  obs::TraceCollector* trace_sink = nullptr;
};

/// Reportable health of one pool rank (see PoolCounters::ranks).
struct RankHealthInfo {
  int id = 0;
  std::string status;  ///< "healthy" | "quarantined" | "retired"
  int strikes = 0;
  int quarantines = 0;
};

/// The pool's service-level accounting, read under one lock at one clock
/// instant (WorkerPool::counters), so the time integrals and wall_seconds
/// agree: rank_seconds_busy never exceeds rank_budget * wall_seconds.
/// Stable once the pool is drained.
struct PoolCounters {
  /// Seconds since the pool was constructed, at the snapshot instant.
  double wall_seconds = 0.0;
  int max_concurrent_jobs = 0;
  int max_ranks_in_flight = 0;
  std::uint64_t preemptions = 0;
  std::uint64_t retries = 0;
  /// Elastic refits (options().elastic only): jobs squeezed below their
  /// submitted decomposition to run on idle ranks, and re-grown toward it
  /// when room returned.
  std::uint64_t elastic_shrinks = 0;
  std::uint64_t elastic_grows = 0;
  /// Integral of ranks-in-use over time [rank-seconds]; utilization is
  /// this over (rank_budget * wall_seconds).
  double rank_seconds_busy = 0.0;
  // --- rank health (the report's `health` section) ---
  std::vector<RankHealthInfo> ranks;  ///< index = pool rank id
  /// Attempts abandoned to a dead rank and re-queued for recovery.
  std::uint64_t jobs_recovered = 0;
  /// Sentinel-tripped attempts rolled back to a healthy checkpoint
  /// (NumericalError incidents, summed over jobs).
  std::uint64_t numeric_rollbacks = 0;
  /// Quarantine events (a rank may contribute several).
  std::uint64_t quarantines = 0;
  /// Ranks permanently retired by the circuit breaker.
  int ranks_retired = 0;
  /// Integral of impaired (quarantined + retired) ranks over time
  /// [rank-seconds]: how much advertised capacity was lost to faults.
  double degraded_rank_seconds = 0.0;
};

class WorkerPool {
 public:
  explicit WorkerPool(const PoolOptions& options);
  ~WorkerPool();  // drains the queue, then stops the slots

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  const PoolOptions& options() const { return options_; }

  /// The pool's replica cache (thread-safe on its own mutex).  Tests use
  /// it to inspect/corrupt deposits; it is populated only when
  /// options().replicate is set.
  ReplicaStore& replicas() { return replicas_; }
  const ReplicaStore& replicas() const { return replicas_; }

  /// Enqueues a validated job.  Blocks while the queue is full
  /// (backpressure) when `block`; otherwise returns false immediately.
  /// Returns false after shutdown() as well.
  bool submit(const std::shared_ptr<Job>& job, bool block);

  /// Blocks until the job reaches kCompleted or kFailed.
  void wait(const Job& job);
  /// Locked snapshot of a job's reportable fields; `take_state` moves a
  /// completed job's final state into the result exactly once.  Later
  /// state-taking snapshots come back with `state_already_taken` set (and
  /// an empty final_state) so a caller comparing against the state fails
  /// loudly instead of matching a default-constructed State.
  JobResult snapshot(Job& job, bool take_state);
  JobState state(const Job& job) const;
  /// Blocks until every submitted job is terminal.
  void drain();
  /// Stops accepting submissions, drains what is queued, joins the slots.
  /// Backoff gates are cancelled: pending retries run immediately, so the
  /// drain is never held up by a long exponential backoff.
  void shutdown();

  /// One consistent snapshot of the service-level counters.
  PoolCounters counters() const;

 private:
  enum class RankStatus { kHealthy, kQuarantined, kRetired };
  struct RankHealth {
    RankStatus status = RankStatus::kHealthy;
    int strikes = 0;
    int quarantines = 0;
    std::chrono::steady_clock::time_point until{};  ///< quarantine expiry
    bool busy = false;  ///< currently backing a running attempt
  };

  void worker_loop();
  /// Runs one attempt of `job` outside the lock and applies the outcome.
  void execute(const std::shared_ptr<Job>& job);
  /// Under lock: ask lower-priority preemptible running jobs to yield
  /// until `needed` ranks will come free for a job of `priority`.
  void request_preemption(int priority, int needed);
  /// Under lock: fold the elapsed busy/impaired time into the integrals.
  void accrue_busy_time();
  /// Under lock: ranks available for assignment (healthy and idle).
  int free_rank_count() const;
  /// Under lock: ranks not permanently retired (the ceiling any job's
  /// demand must fit under, quarantined ranks included — they return).
  int usable_rank_count() const;
  /// Under lock: return expired quarantines to the budget; returns the
  /// earliest pending expiry (TimePoint::max() when none).
  std::chrono::steady_clock::time_point revive_ranks(
      std::chrono::steady_clock::time_point now);
  /// Under lock: strike + quarantine (or retire) a pool rank after a
  /// dead-rank attempt.
  void quarantine_rank(int pool_rank,
                       std::chrono::steady_clock::time_point now);
  /// Under lock: refit `job`'s decomposition to the largest valid process
  /// grid whose rank count fits `target` (capped at the submitted
  /// spec.dims) — shrinking for a degraded budget or an elastic squeeze,
  /// re-growing for an elastic expansion.  Schedules a checkpoint reshard
  /// and drops the stale RAM replicas when the shape actually changes.
  /// Returns empty on success, else the reason no shape fits.
  std::string refit_job(Job& job, int target);
  /// Under lock: fail (or reshape) every queued job whose demand exceeds
  /// the permanently usable budget; called after a rank retires.
  void handle_shrunken_budget();
  /// Under lock: the single queue-entry point.  When ranks have been
  /// permanently retired, a job demanding more than the usable budget is
  /// reshaped (or failed) BEFORE it is queued — otherwise it would wait
  /// forever for capacity that cannot return, wedging drain()/shutdown().
  /// Returns false when the job was terminally failed instead of queued
  /// (fail_job has then already done the in_flight_ bookkeeping).
  bool push_job_checked(const std::shared_ptr<Job>& job);
  /// Under lock: mark a job failed and finish it.
  void fail_job(Job& job, const std::string& error);
  /// Under lock: a terminal job's metrics and in_flight_; wakes drain().
  void finish_job(Job& job, std::chrono::steady_clock::time_point now);

  PoolOptions options_;
  /// RAM replica cache shared by every job's attempts; own mutex, never
  /// touched under mu_ ordering constraints.
  ReplicaStore replicas_;
  /// The scheduler-decision tracer.  Its ring is only ever touched under
  /// mu_ (every instant site holds the pool lock), flushed once after the
  /// slots join.
  obs::Tracer tracer_;
  mutable std::mutex mu_;
  std::condition_variable work_cv_;   ///< workers: queue/budget changed
  std::condition_variable space_cv_;  ///< submitters: queue has space
  std::condition_variable done_cv_;   ///< waiters: a job went terminal
  Scheduler scheduler_;
  std::vector<std::shared_ptr<Job>> running_;
  std::vector<std::thread> slots_;
  std::vector<RankHealth> ranks_;  ///< index = pool rank id
  int in_flight_ = 0;  ///< queued + running + gated jobs, for drain()
  bool stopping_ = false;
  /// Slot joining happens exactly once even when shutdown() is called
  /// concurrently (explicit shutdown racing the destructor, or two user
  /// threads); a second join of the same std::thread is UB.
  std::once_flag shutdown_once_;
  int max_concurrent_ = 0;
  int max_ranks_in_flight_ = 0;
  std::uint64_t preemptions_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t elastic_shrinks_ = 0;
  std::uint64_t elastic_grows_ = 0;
  /// Scheduler dispatch counter backing the jobs' dispatches_overtaken
  /// metric (see Job::dispatch_mark).
  std::uint64_t dispatches_ = 0;
  std::uint64_t jobs_recovered_ = 0;
  std::uint64_t numeric_rollbacks_ = 0;
  std::uint64_t quarantines_ = 0;
  int ranks_retired_ = 0;
  double rank_seconds_busy_ = 0.0;
  double degraded_rank_seconds_ = 0.0;
  std::chrono::steady_clock::time_point started_at_;
  std::chrono::steady_clock::time_point busy_mark_;
};

}  // namespace ca::service
