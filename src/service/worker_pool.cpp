#include "service/worker_pool.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <string_view>

#include "service/runner.hpp"
#include "util/checkpoint.hpp"
#include "util/config.hpp"
#include "util/proc_grid.hpp"

namespace ca::service {
namespace {

using Clock = std::chrono::steady_clock;

/// A `*.ckpt.tmp` file younger than this may be a sibling pool's atomic
/// checkpoint write in flight; only older ones are swept at startup.
constexpr std::chrono::seconds kStaleTmpAge{60};

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::chrono::steady_clock::duration to_duration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

void add_summary(comm::FaultSummary& acc, const comm::FaultSummary& s) {
  acc.injected_delay += s.injected_delay;
  acc.injected_duplicate += s.injected_duplicate;
  acc.injected_drop += s.injected_drop;
  acc.injected_corrupt += s.injected_corrupt;
  acc.injected_stall += s.injected_stall;
  acc.injected_kill += s.injected_kill;
  acc.injected_hang += s.injected_hang;
  acc.injected_state_corrupt += s.injected_state_corrupt;
  acc.detected_checksum += s.detected_checksum;
  acc.detected_timeout += s.detected_timeout;
  acc.detected_peer_dead += s.detected_peer_dead;
  acc.detected_numeric += s.detected_numeric;
  acc.recovered_delay += s.recovered_delay;
  acc.recovered_duplicate += s.recovered_duplicate;
  acc.recovered_drop += s.recovered_drop;
}

}  // namespace

WorkerPool::WorkerPool(const PoolOptions& options)
    : options_(options),
      scheduler_(options.queue_capacity),
      ranks_(static_cast<std::size_t>(std::max(0, options.rank_budget))),
      started_at_(Clock::now()),
      busy_mark_(started_at_) {
  scheduler_.set_aging_rate(options_.aging_rate);
  // The CA_AGCM_* environment overrides of the pool's knobs are read here
  // and only here, so a CI leg can flip replication, delta chaining,
  // elasticity, the sentinel and tracing for every pool.  An empty Config
  // resolves only the environment; absent vars keep the passed values.
  {
    const util::Config env;
    options_.replicate = env.get_bool("service.replicate", options_.replicate);
    options_.elastic = env.get_bool("service.elastic", options_.elastic);
    options_.delta_chain =
        env.get_int("service.delta_chain", options_.delta_chain);
    // The sentinel knobs (CA_AGCM_HEALTH_*).
    auto& h = options_.health;
    h.cadence = env.get_int("health.cadence", h.cadence);
    h.max_wind = env.get_double("health.max_wind", h.max_wind);
    h.max_phi = env.get_double("health.max_phi", h.max_phi);
    h.max_psa = env.get_double("health.max_psa", h.max_psa);
    h.max_energy_growth =
        env.get_double("health.max_energy_growth", h.max_energy_growth);
    h.max_mass_growth =
        env.get_double("health.max_mass_growth", h.max_mass_growth);
    h.growth_warmup = env.get_int("health.growth_warmup", h.growth_warmup);
    options_.numeric_retry =
        env.get_int("service.numeric_retry", options_.numeric_retry);
  }
  // The obs knobs (CA_AGCM_OBS_*).  tid -1 marks the scheduler timeline
  // in merged traces and routes flight dumps to obs_dump_service.json.
  options_.obs = options_.obs.env_resolved();
  tracer_.configure(options_.obs, /*tid=*/-1, nullptr, options_.trace_sink);
  if (options_.trace_sink != nullptr)
    options_.trace_sink->set_thread_name(0, -1, "service scheduler");
  // Checkpoint paths are built under this directory; a missing one would
  // make every preemptible job burn its whole attempt budget on fopen
  // failures, so materialize it (or fail loudly) before any slot starts.
  if (options_.checkpoint_dir.empty()) options_.checkpoint_dir = ".";
  std::filesystem::create_directories(options_.checkpoint_dir);
  // Sweep stale atomic-write leftovers: a crash between a checkpoint's
  // tmp-write and its rename leaves a `*.ckpt.tmp` behind.  They are never
  // read (readers only open the renamed path) but accumulate forever.
  // Only files past kStaleTmpAge are removed: another pool sharing this
  // directory may have an atomic write in flight right now, and deleting
  // its tmp file would fail that checkpoint and burn a job attempt.  An
  // in-flight tmp lives milliseconds, so a minute-old one is a dead
  // writer's.
  std::error_code ec;
  const auto oldest_live =
      std::filesystem::file_time_type::clock::now() - kStaleTmpAge;
  for (const auto& e :
       std::filesystem::directory_iterator(options_.checkpoint_dir, ec)) {
    if (!e.is_regular_file(ec)) continue;
    const std::string name = e.path().filename().string();
    const auto ends_with = [&name](std::string_view suffix) {
      return name.size() > suffix.size() &&
             name.compare(name.size() - suffix.size(), suffix.size(),
                          suffix) == 0;
    };
    if (ends_with(".ckpt.tmp")) {
      const auto mtime = std::filesystem::last_write_time(e.path(), ec);
      if (!ec && mtime < oldest_live) std::filesystem::remove(e.path(), ec);
    } else if (ends_with(".reshard")) {
      // A reshard marker is the commit record of a reshard that crashed
      // after committing but before publishing; roll it forward so the
      // checkpoint set is whole before any job resumes from it.  Same age
      // gate as the tmp sweep: a fresh marker may belong to a sibling
      // pool publishing right now.
      const auto mtime = std::filesystem::last_write_time(e.path(), ec);
      if (ec || mtime >= oldest_live) continue;
      const std::string full = e.path().string();
      try {
        util::recover_resharded_checkpoints(
            full.substr(0, full.size() - 8));
      } catch (const std::exception&) {
        // Leave the marker for the owning job's reshard retry to repair.
      }
    }
  }
  slots_.reserve(static_cast<std::size_t>(options_.slots));
  for (int s = 0; s < options_.slots; ++s)
    slots_.emplace_back([this] { worker_loop(); });
}

WorkerPool::~WorkerPool() { shutdown(); }

bool WorkerPool::submit(const std::shared_ptr<Job>& job, bool block) {
  std::unique_lock<std::mutex> lk(mu_);
  if (block)
    space_cv_.wait(lk, [&] { return stopping_ || !scheduler_.full(); });
  if (stopping_ || scheduler_.full()) return false;
  const auto now = Clock::now();
  job->state = JobState::kQueued;
  job->submitted_at = now;
  job->last_queued_at = now;
  job->ready_at = now;
  if (job->checkpoint_prefix.empty())
    job->checkpoint_prefix = options_.checkpoint_dir + "/ca_service_job" +
                             std::to_string(job->id);
  ++in_flight_;
  tracer_.instant("admit", "service",
                  "job " + std::to_string(job->id) + " '" +
                      job->spec.name + "' priority " +
                      std::to_string(job->spec.priority));
  if (push_job_checked(job)) {
    // A high-priority submission that does not fit the free budget starts
    // evicting immediately — an idle worker may never see it otherwise.
    if (const Job* best = scheduler_.peek_ready(now))
      request_preemption(best->spec.priority, best->ranks());
    work_cv_.notify_all();
  }
  return true;
}

void WorkerPool::wait(const Job& job) {
  std::unique_lock<std::mutex> lk(mu_);
  done_cv_.wait(lk, [&] {
    return job.state == JobState::kCompleted ||
           job.state == JobState::kFailed;
  });
}

JobResult WorkerPool::snapshot(Job& job, bool take_state) {
  std::lock_guard<std::mutex> lk(mu_);
  JobResult r;
  r.id = job.id;
  r.name = job.spec.name;
  r.state = job.state;
  r.steps_done = job.steps_done;
  r.active_dims = job.active_dims;
  r.metrics = job.metrics;
  r.faults = job.faults;
  r.error = job.error;
  if (take_state && job.state == JobState::kCompleted) {
    if (job.final_state_taken) {
      // A previous snapshot already moved the state out; returning the
      // (now empty) member again would let a caller silently compare
      // against a default-constructed State.  Signal it explicitly.
      r.state_already_taken = true;
    } else {
      r.final_state = std::move(job.final_state);
      job.final_state_taken = true;
    }
  }
  return r;
}

JobState WorkerPool::state(const Job& job) const {
  std::lock_guard<std::mutex> lk(mu_);
  return job.state;
}

void WorkerPool::drain() {
  std::unique_lock<std::mutex> lk(mu_);
  done_cv_.wait(lk, [&] { return in_flight_ == 0; });
}

void WorkerPool::shutdown() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  space_cv_.notify_all();
  // The old `stopping_ && slots_.empty()` early-return raced: a second
  // caller arriving after stopping_ was set but before the first caller
  // cleared slots_ would fall through and join the same std::thread
  // objects (UB).  call_once joins exactly once and makes every other
  // caller block until the joining one finishes, so shutdown() still
  // means "slots are stopped" for all callers.
  std::call_once(shutdown_once_, [this] {
    for (auto& t : slots_)
      if (t.joinable()) t.join();
    slots_.clear();
    // Slots are gone: nothing records into the scheduler ring any more,
    // so the remainder can spill to the collector without the pool lock.
    tracer_.flush();
  });
}

PoolCounters WorkerPool::counters() const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto now = Clock::now();
  PoolCounters c;
  c.wall_seconds = seconds_between(started_at_, now);
  c.max_concurrent_jobs = max_concurrent_;
  c.max_ranks_in_flight = max_ranks_in_flight_;
  c.preemptions = preemptions_;
  c.retries = retries_;
  c.elastic_shrinks = elastic_shrinks_;
  c.elastic_grows = elastic_grows_;
  c.jobs_recovered = jobs_recovered_;
  c.numeric_rollbacks = numeric_rollbacks_;
  c.quarantines = quarantines_;
  c.ranks_retired = ranks_retired_;
  // The integrals as accrue_busy_time() would fold them at `now`.
  int busy = 0, impaired = 0;
  c.ranks.reserve(ranks_.size());
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    const RankHealth& rh = ranks_[r];
    if (rh.busy) ++busy;
    if (rh.status != RankStatus::kHealthy) ++impaired;
    RankHealthInfo info;
    info.id = static_cast<int>(r);
    switch (rh.status) {
      case RankStatus::kHealthy:
        info.status = "healthy";
        break;
      case RankStatus::kQuarantined:
        info.status = "quarantined";
        break;
      case RankStatus::kRetired:
        info.status = "retired";
        break;
    }
    info.strikes = rh.strikes;
    info.quarantines = rh.quarantines;
    c.ranks.push_back(std::move(info));
  }
  const double dt = seconds_between(busy_mark_, now);
  c.rank_seconds_busy = rank_seconds_busy_ + busy * dt;
  c.degraded_rank_seconds = degraded_rank_seconds_ + impaired * dt;
  return c;
}

void WorkerPool::accrue_busy_time() {
  const auto now = Clock::now();
  int busy = 0, impaired = 0;
  for (const auto& rh : ranks_) {
    if (rh.busy) ++busy;
    if (rh.status != RankStatus::kHealthy) ++impaired;
  }
  const double dt = seconds_between(busy_mark_, now);
  rank_seconds_busy_ += busy * dt;
  degraded_rank_seconds_ += impaired * dt;
  busy_mark_ = now;
}

int WorkerPool::free_rank_count() const {
  int n = 0;
  for (const auto& rh : ranks_)
    if (rh.status == RankStatus::kHealthy && !rh.busy) ++n;
  return n;
}

int WorkerPool::usable_rank_count() const {
  int n = 0;
  for (const auto& rh : ranks_)
    if (rh.status != RankStatus::kRetired) ++n;
  return n;
}

Clock::time_point WorkerPool::revive_ranks(Clock::time_point now) {
  // Charge the degraded integral up to `now` BEFORE any status flips so
  // the quarantine window is accounted at full weight.
  accrue_busy_time();
  auto earliest = Clock::time_point::max();
  for (auto& rh : ranks_) {
    if (rh.status != RankStatus::kQuarantined) continue;
    if (rh.until <= now)
      rh.status = RankStatus::kHealthy;
    else
      earliest = std::min(earliest, rh.until);
  }
  return earliest;
}

void WorkerPool::quarantine_rank(int pool_rank, Clock::time_point now) {
  if (pool_rank < 0 || pool_rank >= static_cast<int>(ranks_.size())) return;
  auto& rh = ranks_[pool_rank];
  if (rh.status == RankStatus::kRetired) return;
  ++rh.strikes;
  ++rh.quarantines;
  ++quarantines_;
  if (rh.strikes >= options_.max_rank_strikes) {
    // Circuit breaker: this rank keeps killing attempts — retire it for
    // good and deal with the permanently smaller budget right away.
    rh.status = RankStatus::kRetired;
    ++ranks_retired_;
    tracer_.instant("retire", "service",
                    "pool rank " + std::to_string(pool_rank) + " after " +
                        std::to_string(rh.strikes) + " strikes");
    handle_shrunken_budget();
  } else {
    rh.status = RankStatus::kQuarantined;
    rh.until = now + to_duration(std::max(0.0, options_.quarantine_seconds));
    tracer_.instant("quarantine", "service",
                    "pool rank " + std::to_string(pool_rank) + " strike " +
                        std::to_string(rh.strikes));
  }
}

std::string WorkerPool::refit_job(Job& job, int target) {
  if (target <= 0)
    return "rank pool permanently degraded: no usable ranks remain";
  const JobSpec& spec = job.spec;
  // Never exceed the submitted shape: re-growth stops at spec.dims.
  target = std::min(target, spec.ranks());
  // The checkpoint holds plain field state for the serial/original cores
  // and self-describing reshardable carry blocks for the CA core, so ANY
  // job can restart on the largest valid process grid that still fits.
  std::array<int, 3> d{1, 1, 1};
  bool found = spec.core == CoreKind::kSerial;
  for (int p = target; p >= 1 && !found; --p) {
    std::array<int, 3> cand;
    if (p == spec.ranks()) {
      // The submitted shape itself is the preferred fit at full demand
      // (a generated grid of the same rank count may factorize the mesh
      // differently, and swapping shapes for no rank gain would only
      // churn reshards).
      cand = spec.dims;
    } else {
      // pz-preserving preference: keep the submitted vertical split when
      // p divides by it.  The CA core's exact mode is bitwise in the
      // z-line reductions only while pz is unchanged, so an elastic
      // squeeze that narrows py alone stays bit-identical by
      // construction — yz_grid's factorization would only preserve pz by
      // accident.  The probe below still validates the shape, and the
      // generated grid remains the fallback when pz does not divide p.
      const int pz = spec.dims[2];
      if (spec.core == CoreKind::kCA && pz > 0 && p % pz == 0) {
        JobSpec pzprobe = spec;
        pzprobe.dims = {1, p / pz, pz};
        if (validate(pzprobe, options_.rank_budget).empty()) {
          d = pzprobe.dims;
          found = true;
          break;
        }
      }
      try {
        const auto g = spec.core != CoreKind::kCA &&
                               spec.scheme == core::DecompScheme::kXY
                           ? util::xy_grid(p)
                           : util::yz_grid(p, spec.config.nz);
        cand = {g[0], g[1], g[2]};
      } catch (const std::exception&) {
        continue;
      }
    }
    JobSpec probe = spec;
    probe.dims = cand;
    // Validate against the ORIGINAL budget: node_faults may legitimately
    // name a now-retired pool rank id, and p <= target already holds.
    if (!validate(probe, options_.rank_budget).empty()) continue;
    d = cand;
    found = true;
  }
  if (!found)
    return "rank pool permanently degraded: no valid decomposition of the "
           "mesh fits the " +
           std::to_string(target) + " usable rank(s)";
  if (d == job.active_dims) return {};
  // The RAM replicas hold the OLD decomposition's block shapes; after the
  // refit they could only mis-parse, so drop them at the moment the shape
  // changes (the re-written disk set is the sole restore source).
  replicas_.erase_prefix(job.checkpoint_prefix);
  // Only an existing checkpoint set needs resharding; a job that never
  // checkpointed restarts from step 0 under the new shape directly.
  std::error_code ec;
  if (std::filesystem::exists(
          util::checkpoint_path(job.checkpoint_prefix, 0), ec)) {
    if (job.reshard_from == std::array<int, 3>{0, 0, 0})
      job.reshard_from = job.active_dims;
    else if (job.reshard_from == d)
      // Refit back to the shape still on disk: nothing to reshard.
      job.reshard_from = {0, 0, 0};
    // Otherwise keep the ORIGINAL on-disk shape: an earlier refit was
    // scheduled but its reshard has not run yet (chain-safe).
  }
  job.active_dims = d;
  return {};
}

void WorkerPool::fail_job(Job& job, const std::string& error) {
  job.error = error;
  job.state = JobState::kFailed;
  finish_job(job, Clock::now());
}

void WorkerPool::finish_job(Job& job, Clock::time_point now) {
  // Terminal jobs never resume; release their RAM images.
  if (!job.checkpoint_prefix.empty())
    replicas_.erase_prefix(job.checkpoint_prefix);
  if (job.metrics.run_seconds > 0.0)
    job.metrics.steps_per_second = job.steps_done / job.metrics.run_seconds;
  if (job.spec.deadline_seconds > 0.0)
    job.metrics.deadline_missed =
        seconds_between(job.submitted_at, now) > job.spec.deadline_seconds;
  --in_flight_;
  done_cv_.notify_all();
}

void WorkerPool::handle_shrunken_budget() {
  const int usable = usable_rank_count();
  auto evicted = scheduler_.remove_over_demand(usable);
  for (auto& j : evicted) {
    const std::string err = refit_job(*j, usable);
    if (err.empty())
      scheduler_.push(std::move(j));
    else
      fail_job(*j, err);
  }
}

bool WorkerPool::push_job_checked(const std::shared_ptr<Job>& job) {
  // handle_shrunken_budget() sweeps the jobs queued at the instant a rank
  // retires; this guard covers every job arriving AFTER it — a fresh
  // submit (validated against the full rank_budget), a yield re-queue, a
  // retry re-queue.  Demand can exceed the usable count only once a rank
  // has retired (quarantined ranks still count as usable: they return).
  if (ranks_retired_ > 0 && job->ranks() > usable_rank_count()) {
    const std::string err = refit_job(*job, usable_rank_count());
    if (!err.empty()) {
      fail_job(*job, err);
      return false;
    }
  }
  // Queue residency starts here: overtakes accrue from this mark when the
  // job is eventually popped.
  job->dispatch_mark = dispatches_;
  scheduler_.push(job);
  return true;
}

void WorkerPool::request_preemption(int priority, int needed) {
  // Ranks already coming free from in-progress yields count first.
  for (const auto& j : running_)
    if (j->yield_requested.load(std::memory_order_relaxed))
      needed -= j->ranks();
  needed -= free_rank_count();
  if (needed <= 0) return;

  std::vector<Job*> victims;
  for (const auto& j : running_)
    if (j->spec.checkpoint_every > 0 && j->spec.priority < priority &&
        !j->yield_requested.load(std::memory_order_relaxed))
      victims.push_back(j.get());
  // Evict the least important work first.
  std::sort(victims.begin(), victims.end(), [](const Job* a, const Job* b) {
    if (a->spec.priority != b->spec.priority)
      return a->spec.priority < b->spec.priority;
    return a->sequence > b->sequence;
  });
  for (Job* v : victims) {
    if (needed <= 0) break;
    v->yield_requested.store(true, std::memory_order_relaxed);
    needed -= v->ranks();
    tracer_.instant("preempt_request", "service",
                    "job " + std::to_string(v->id) + " asked to yield " +
                        std::to_string(v->ranks()) + " rank(s) for priority " +
                        std::to_string(priority));
  }
}

void WorkerPool::worker_loop() {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    const auto now = Clock::now();
    // Shutdown cancels backoff gates: the drain still runs every pending
    // retry, just immediately — otherwise an exponential backoff (up to
    // 2^20 x base) could hold shutdown hostage for hours.
    const auto gate = stopping_ ? Scheduler::TimePoint::max() : now;
    const auto next_revive = revive_ranks(now);
    if (auto job = scheduler_.pop_ready(gate, free_rank_count())) {
      // Elastic re-growth: a job squeezed (or degraded-reshaped) below
      // its submitted decomposition widens back toward spec.dims when the
      // idle ranks allow it.  pop_ready admitted the job at its CURRENT
      // demand, and free_rank_count() still counts the ranks this job is
      // about to take, so growing up to that bound keeps the assignment
      // below feasible.
      if (options_.elastic && job->active_dims != job->spec.dims) {
        const int room = std::min(free_rank_count(), job->spec.ranks());
        if (room > job->ranks()) {
          const auto narrow = job->active_dims;
          if (refit_job(*job, room).empty() && job->active_dims != narrow) {
            ++elastic_grows_;
            tracer_.instant("elastic_grow", "service",
                            "job " + std::to_string(job->id) + " re-grown " +
                                std::to_string(narrow[0] * narrow[1] *
                                               narrow[2]) +
                                " -> " + std::to_string(job->ranks()) +
                                " rank(s)");
          }
        }
      }
      accrue_busy_time();
      // Back the attempt with concrete pool ranks (lowest ids first, so
      // tests can deterministically target a node by id); the runner maps
      // node-resident faults through this assignment.
      job->assigned_ranks.clear();
      const int need = job->ranks();
      for (int r = 0;
           r < static_cast<int>(ranks_.size()) &&
           static_cast<int>(job->assigned_ranks.size()) < need;
           ++r) {
        if (ranks_[r].status != RankStatus::kHealthy || ranks_[r].busy)
          continue;
        ranks_[r].busy = true;
        job->assigned_ranks.push_back(r);
      }
      int busy = 0;
      for (const auto& rh : ranks_)
        if (rh.busy) ++busy;
      max_ranks_in_flight_ = std::max(max_ranks_in_flight_, busy);
      running_.push_back(job);
      max_concurrent_ =
          std::max(max_concurrent_, static_cast<int>(running_.size()));
      job->state = JobState::kRunning;
      job->metrics.queue_wait_seconds +=
          seconds_between(job->last_queued_at, now);
      // Dispatch-order fairness accounting: how many OTHER dispatches
      // happened while this job sat in the queue.  Wall-clock-free, so
      // the soak tests can bound aging behavior on any machine speed.
      job->metrics.dispatches_overtaken += dispatches_ - job->dispatch_mark;
      ++dispatches_;
      ++job->metrics.attempts;
      tracer_.instant("dispatch", "service",
                      "job " + std::to_string(job->id) + " attempt " +
                          std::to_string(job->metrics.attempts) + " on " +
                          std::to_string(job->ranks()) + " rank(s)");
      space_cv_.notify_all();
      lk.unlock();
      execute(job);
      lk.lock();
      continue;
    }
    if (stopping_ && in_flight_ == 0) return;
    if (Job* best = scheduler_.peek_ready(gate))
      if (best->ranks() > free_rank_count()) {
        // Elastic squeeze: a preemptible job that cannot fit the idle
        // ranks runs narrow on them NOW instead of waiting for
        // preemption to free its full shape — utilization over width.
        // Only checkpointing jobs are squeezed (the refit rides on the
        // checkpoint reshard); when no smaller valid shape fits the free
        // ranks, fall through to preemption as before.
        if (options_.elastic && free_rank_count() > 0 &&
            best->spec.checkpoint_every > 0) {
          const auto wide = best->active_dims;
          if (refit_job(*best, free_rank_count()).empty() &&
              best->active_dims != wide) {
            ++elastic_shrinks_;
            tracer_.instant("elastic_shrink", "service",
                            "job " + std::to_string(best->id) +
                                " squeezed " +
                                std::to_string(wide[0] * wide[1] * wide[2]) +
                                " -> " + std::to_string(best->ranks()) +
                                " rank(s) for idle budget");
            continue;  // pop it at its narrow shape right away
          }
        }
        request_preemption(best->spec.priority, best->ranks());
      }
    const auto next =
        std::min(scheduler_.next_ready_after(gate), next_revive);
    if (next == Scheduler::TimePoint::max())
      work_cv_.wait(lk);
    else
      work_cv_.wait_until(lk, next);
  }
}

void WorkerPool::execute(const std::shared_ptr<Job>& job) {
  const int attempt = job->metrics.attempts;
  int start_step = job->steps_done;
  Job* raw = job.get();

  AttemptResult out;
  std::string prep_error;
  // Resharding and the resume probe touch the filesystem; both run
  // outside the pool lock like the attempt itself.
  if (job->reshard_from != std::array<int, 3>{0, 0, 0} &&
      job->reshard_from != job->active_dims) {
    // The RAM replicas hold the OLD decomposition's block shapes; after a
    // reshard they could only mis-parse, so the disk set (re-written at
    // the new shape) is the sole restore source for the next attempt.
    replicas_.erase_prefix(job->checkpoint_prefix);
    try {
      const mesh::LatLonMesh mesh(job->spec.config.nx, job->spec.config.ny,
                                  job->spec.config.nz);
      util::reshard_checkpoints(job->checkpoint_prefix, mesh,
                                job->reshard_from, job->active_dims);
      job->reshard_from = {0, 0, 0};
    } catch (const std::exception& e) {
      prep_error = std::string("checkpoint reshard failed: ") + e.what();
    }
  }
  // Rank-death recovery: the dying attempt may have checkpointed without
  // ever yielding, so steps_done (the last yield mark) still reads 0.
  // Probe for a checkpoint set and let the attempt resume from its
  // headers (the source of truth) instead of recomputing from scratch.
  if (prep_error.empty() && start_step == 0 &&
      job->spec.checkpoint_every > 0 &&
      (job->metrics.rank_recoveries > 0 ||
       job->metrics.numeric_rollbacks > 0)) {
    std::error_code ec;
    if (std::filesystem::exists(
            util::checkpoint_path(job->checkpoint_prefix, 0), ec))
      start_step = 1;
  }
  if (prep_error.empty()) {
    AttemptOptions o;
    o.attempt = attempt;
    o.start_step = start_step;
    o.checkpoint_prefix = job->checkpoint_prefix;
    o.should_yield = [raw] {
      return raw->yield_requested.load(std::memory_order_relaxed);
    };
    o.dims = job->active_dims;
    o.pool_ranks = job->assigned_ranks;
    if (options_.replicate) o.replicas = &replicas_;
    o.delta_chain = options_.delta_chain;
    o.delta_block_bytes = options_.delta_block_bytes;
    o.health = options_.health;
    o.obs = options_.obs;
    o.trace_sink = options_.trace_sink;
    // One trace process per job: its ranks' timelines group under the job
    // id in Perfetto, separate from other jobs sharing the pool.
    o.trace_pid = job->id;
    if (options_.trace_sink != nullptr)
      options_.trace_sink->set_process_name(
          job->id, "job " + std::to_string(job->id) + " '" +
                       job->spec.name + "'");
    out = run_attempt(job->spec, o);
  } else {
    out.error = prep_error;
  }
  if (out.dead_rank >= 0) {
    // The dead rank's RAM died with it (and a hung rank's cannot be
    // trusted): drop every copy it deposited.  Its own state survives as
    // the buddy copy the victim pushed to rank (dead+1) % n.
    replicas_.invalidate_depositor(job->checkpoint_prefix, out.dead_rank);
  }
  // A completed job never resumes: its checkpoint files go before it
  // turns terminal (so drain() finds them gone); a failed job keeps them.
  if (out.completed(job->spec.steps) && job->spec.checkpoint_every > 0)
    util::remove_checkpoint_set(job->checkpoint_prefix, job->ranks());

  std::lock_guard<std::mutex> lk(mu_);
  accrue_busy_time();
  for (int r : job->assigned_ranks)
    if (r >= 0 && r < static_cast<int>(ranks_.size()))
      ranks_[r].busy = false;
  running_.erase(std::find(running_.begin(), running_.end(), job));

  job->metrics.run_seconds += out.run_seconds;
  job->metrics.messages += out.comm.p2p_messages;
  job->metrics.bytes += out.comm.p2p_bytes + out.comm.collective_bytes;
  job->metrics.collective_calls += out.comm.collective_calls;
  if (out.restored_from == RestoreSource::kRam) ++job->metrics.ram_restores;
  if (out.restored_from == RestoreSource::kDisk)
    ++job->metrics.disk_restores;
  job->metrics.restore_seconds += out.restore_seconds;
  add_summary(job->faults, out.faults);

  const auto now = Clock::now();
  bool terminal = false;
  if (out.dead_rank >= 0) {
    // A rank died (killed) or went silent past the heartbeat.  That is
    // the pool's hardware failing, not the job: quarantine the backing
    // pool rank and re-queue the job for checkpoint recovery on healthy
    // ranks without burning one of its attempts.
    const int pool_id =
        out.dead_rank < static_cast<int>(job->assigned_ranks.size())
            ? job->assigned_ranks[static_cast<std::size_t>(out.dead_rank)]
            : -1;
    quarantine_rank(pool_id, now);
    // Recovery cap: every recovery strikes a rank, and the breaker bounds
    // strikes per rank, so exceeding this many means the faults follow
    // the job itself — stop recovering and fail it.
    const int cap = options_.rank_budget *
                        std::max(1, options_.max_rank_strikes) +
                    1;
    job->error = out.error;
    if (job->metrics.rank_recoveries >= cap) {
      job->state = JobState::kFailed;
      terminal = true;
    } else {
      ++jobs_recovered_;
      ++job->metrics.rank_recoveries;
      tracer_.instant("recovery", "service",
                      "job " + std::to_string(job->id) +
                          " re-queued after pool rank " +
                          std::to_string(pool_id) + " died");
      // The pop path will ++attempts again; a rank death must not burn
      // the job's own attempt budget.
      --job->metrics.attempts;
      std::string err;
      if (job->ranks() > usable_rank_count())
        err = refit_job(*job, usable_rank_count());
      if (!err.empty()) {
        job->error = err;
        job->state = JobState::kFailed;
        terminal = true;
      } else {
        job->state = JobState::kBackoff;
        job->ready_at = now;  // no backoff: the faulty rank sits out, not
                              // the job
        job->last_queued_at = now;
        job->dispatch_mark = dispatches_;
        scheduler_.push(job);
      }
    }
  } else if (out.numeric) {
    // The health sentinel aborted the attempt (NaN/Inf, runaway field or
    // integral).  That is the trajectory's failure, not the comm
    // layer's: it is charged against the separate service.numeric_retry
    // budget, and the job rolls straight back to its last healthy
    // checkpoint (sentinel-gated writes never persist a poisoned state,
    // and the restore path re-verifies and rewinds any unverified tip).
    job->error = out.error;
    ++numeric_rollbacks_;
    ++job->metrics.numeric_rollbacks;
    // Poison containment: the RAM replicas may hold cadences of the
    // blown-up trajectory; purge them so the rollback restores from the
    // verified disk chain only.
    replicas_.erase_prefix(job->checkpoint_prefix);
    tracer_.instant("numeric_rollback", "service",
                    "job " + std::to_string(job->id) +
                        " sentinel tripped at step " +
                        std::to_string(out.numeric_step) + ": " + out.error);
    // One flight dump per incident: the scheduler-side story of the
    // blowup (dispatches, cadences, the trip) for the postmortem.
    tracer_.dump_flight("numeric incident: job " + std::to_string(job->id) +
                        " '" + job->spec.name + "': " + out.error);
    if (job->metrics.numeric_rollbacks > options_.numeric_retry) {
      job->state = JobState::kFailed;
      terminal = true;
      tracer_.instant("numeric_retry_exhausted", "service",
                      "job " + std::to_string(job->id) + " failed after " +
                          std::to_string(job->metrics.numeric_rollbacks) +
                          " numeric rollbacks: " + out.error);
    } else {
      // No backoff and NO attempt refund: the attempt number must
      // advance so attempt-scoped fault rules (corrupt_state defaults to
      // attempt 1) become transient, and the reseed perturbs
      // probabilistic ones.  max_attempts is never consulted for
      // numeric failures — the budgets are disjoint by design.
      job->state = JobState::kBackoff;
      job->ready_at = now;
      job->last_queued_at = now;
      job->dispatch_mark = dispatches_;
      push_job_checked(job);
    }
  } else if (!out.error.empty()) {
    job->error = out.error;  // latest failure retained either way
    if (job->metrics.attempts < job->spec.max_attempts) {
      ++retries_;
      tracer_.instant("retry", "service",
                      "job " + std::to_string(job->id) + " attempt " +
                          std::to_string(job->metrics.attempts) +
                          " failed: " + out.error);
      const double backoff =
          std::ldexp(job->spec.retry_backoff_seconds,
                     std::min(attempt - 1, 20));
      job->metrics.backoff_seconds += backoff;
      job->state = JobState::kBackoff;
      job->ready_at = now + to_duration(backoff);
      job->last_queued_at = now;
      // The retry passes steps_done (the last yield mark) only as a
      // resume-from-checkpoint signal; run_attempt trusts the checkpoint
      // headers' recorded step, which may be PAST steps_done when the
      // failed attempt checkpointed mid-run before dying.
      push_job_checked(job);
    } else {
      job->state = JobState::kFailed;
      terminal = true;
      // Retry budget exhausted: a terminal failure the operator will want
      // a postmortem for.  The scheduler ring holds the service-side story
      // (dispatches, retries, quarantines leading up to it).
      tracer_.instant("retry_exhausted", "service",
                      "job " + std::to_string(job->id) + " failed after " +
                          std::to_string(job->metrics.attempts) +
                          " attempts: " + out.error);
      tracer_.dump_flight("retry budget exhausted for job " +
                          std::to_string(job->id) + " '" + job->spec.name +
                          "': " + out.error);
    }
  } else if (out.yielded) {
    ++preemptions_;
    ++job->metrics.preemptions;
    tracer_.instant("yield", "service",
                    "job " + std::to_string(job->id) + " yielded at step " +
                        std::to_string(out.end_step));
    job->steps_done = out.end_step;
    job->yield_requested.store(false, std::memory_order_relaxed);
    job->state = JobState::kPreempted;
    job->ready_at = now;
    job->last_queued_at = now;
    push_job_checked(job);
  } else {
    job->steps_done = out.end_step;
    job->final_state = std::move(out.global);
    job->state = JobState::kCompleted;
    job->error.clear();
    terminal = true;
  }

  if (terminal) finish_job(*job, now);
  work_cv_.notify_all();
}

}  // namespace ca::service
