// Ensemble-service units on small serial jobs (one-rank worlds): JobSpec
// validation, the Scheduler's priority + FIFO + backoff + rank-fit
// policy, report schema self-checks, fault hooks on serial steps, and
// the submit-side backpressure behavior.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "service/job.hpp"
#include "service/scheduler.hpp"
#include "service/service.hpp"

namespace ca::service {
namespace {

JobSpec tiny_spec() {
  JobSpec s;
  s.name = "tiny";
  s.core = CoreKind::kSerial;
  s.config.nx = 16;
  s.config.ny = 12;
  s.config.nz = 4;
  s.config.M = 2;
  s.steps = 1;
  return s;
}

TEST(JobValidation, AcceptsAWellFormedSpec) {
  EXPECT_EQ(validate(tiny_spec(), 4), "");
}

TEST(JobValidation, RejectsBadSpecs) {
  auto expect_reject = [](JobSpec s, const char* why) {
    EXPECT_NE(validate(s, 4), "") << why;
  };
  {
    JobSpec s = tiny_spec();
    s.steps = 0;
    expect_reject(s, "zero steps");
  }
  {
    JobSpec s = tiny_spec();
    s.dims = {1, 2, 1};
    expect_reject(s, "serial with 2 ranks");
  }
  {
    JobSpec s = tiny_spec();
    s.core = CoreKind::kOriginal;
    s.dims = {1, 5, 1};
    expect_reject(s, "more ranks than the pool budget");
  }
  {
    JobSpec s = tiny_spec();
    s.core = CoreKind::kCA;
    s.dims = {2, 1, 1};
    expect_reject(s, "CA with px > 1");
  }
  {
    JobSpec s = tiny_spec();
    s.core = CoreKind::kCA;
    s.dims = {1, 2, 1};
    expect_reject(s, "CA with ny/py below the deep-halo bound");
  }
  {
    JobSpec s = tiny_spec();
    s.config.ny = 3;
    expect_reject(s, "ny below the 4 rows every core's mesh needs");
  }
  {
    JobSpec s = tiny_spec();
    s.max_attempts = 0;
    expect_reject(s, "empty attempt budget");
  }
}

TEST(JobValidation, AcceptsPreemptibleCAJobs) {
  // CA jobs used to be rejected with checkpoint_every > 0 because the
  // cross-step carry (deferred smoothing, stale C products) was not
  // checkpointed.  The carry now rides in the checkpoint's v3 core-carry
  // block, so a preemptible CA spec is valid.
  JobSpec s = tiny_spec();
  s.core = CoreKind::kCA;
  s.dims = {1, 2, 1};  // ny/py = 8 >= 3M + 1
  s.config.ny = 16;
  s.checkpoint_every = 1;
  EXPECT_EQ(validate(s, 4), "");
}

TEST(SchedulerPolicy, PriorityThenFifo) {
  using Clock = std::chrono::steady_clock;
  Scheduler q(8);
  auto mk = [](int id, int priority) {
    JobSpec s = tiny_spec();
    s.priority = priority;
    auto j = std::make_shared<Job>(id, s);
    return j;
  };
  auto a = mk(0, 0), b = mk(1, 5), c = mk(2, 5), d = mk(3, 1);
  for (auto& j : {a, b, c, d}) q.push(j);
  const auto now = Clock::now();
  EXPECT_EQ(q.pop_ready(now, 8)->id, 1);  // highest priority, first in
  EXPECT_EQ(q.pop_ready(now, 8)->id, 2);  // same priority, FIFO
  EXPECT_EQ(q.pop_ready(now, 8)->id, 3);
  EXPECT_EQ(q.pop_ready(now, 8)->id, 0);
  EXPECT_EQ(q.pop_ready(now, 8), nullptr);
}

TEST(SchedulerPolicy, RankFitAndBackoffGate) {
  using namespace std::chrono_literals;
  using Clock = std::chrono::steady_clock;
  Scheduler q(8);
  JobSpec wide = tiny_spec();
  wide.core = CoreKind::kOriginal;
  wide.dims = {1, 4, 1};
  wide.priority = 9;
  auto big = std::make_shared<Job>(0, wide);
  auto small = std::make_shared<Job>(1, tiny_spec());
  q.push(big);
  q.push(small);
  const auto now = Clock::now();
  // Only 2 ranks free: the 4-rank job is skipped despite its priority.
  EXPECT_EQ(q.pop_ready(now, 2)->id, 1);
  // ...but it is what the pool should make room for.
  q.push(small);
  EXPECT_EQ(q.peek_ready(now)->id, 0);

  small->ready_at = now + 1h;  // backoff-gated
  EXPECT_EQ(q.pop_ready(now, 2), nullptr);
  EXPECT_EQ(q.next_ready_after(now), small->ready_at);
  EXPECT_NE(q.pop_ready(now + 2h, 2), nullptr);
}

TEST(SchedulerPolicy, BackfillPastTheHeadJobIsBounded) {
  // A wide high-priority job that never fits the free ranks must not be
  // starved by an endless stream of small backfill jobs grabbing the
  // ranks preemption frees for it: after kMaxBypasses backfills the
  // queue holds ranks until the head job fits.
  using Clock = std::chrono::steady_clock;
  Scheduler q(64);
  JobSpec wide = tiny_spec();
  wide.core = CoreKind::kOriginal;
  wide.dims = {1, 4, 1};
  wide.priority = 9;
  auto big = std::make_shared<Job>(0, wide);
  q.push(big);
  const auto now = Clock::now();
  int id = 1;
  for (int i = 0; i < Scheduler::kMaxBypasses; ++i) {
    q.push(std::make_shared<Job>(id++, tiny_spec()));
    ASSERT_NE(q.pop_ready(now, 2), nullptr)
        << "backfill below the bypass bound must keep the pool busy";
  }
  // Bypass budget spent: a fitting small job queues, but the ranks are
  // now reserved for the head job.
  q.push(std::make_shared<Job>(id++, tiny_spec()));
  EXPECT_EQ(q.pop_ready(now, 2), nullptr)
      << "backfill past the bypass bound starves the head job";
  // Once enough ranks free up, the head job pops and its budget resets.
  auto popped = q.pop_ready(now, 4);
  ASSERT_NE(popped, nullptr);
  EXPECT_EQ(popped->id, 0);
  EXPECT_EQ(popped->bypassed, 0);
  // The queued small job is eligible again now that the head is gone.
  EXPECT_NE(q.pop_ready(now, 2), nullptr);
}

TEST(SchedulerPolicy, AgingLiftsAStarvedJobPastFreshPriority) {
  // Anti-starvation: with aging on, a low-priority job that has waited
  // long enough must outrank a fresh high-priority submission; with aging
  // off the static order stands.
  using namespace std::chrono_literals;
  using Clock = std::chrono::steady_clock;
  Scheduler q(8);
  q.set_aging_rate(1.0);  // 1 priority point per waiting second
  const auto now = Clock::now();

  JobSpec lo = tiny_spec();
  lo.priority = 0;
  auto starved = std::make_shared<Job>(0, lo);
  starved->last_queued_at = now - 10s;  // boost 10 > priority gap 5

  JobSpec hi = tiny_spec();
  hi.priority = 5;
  auto fresh = std::make_shared<Job>(1, hi);
  fresh->last_queued_at = now;

  EXPECT_GT(q.effective_priority(*starved, now),
            q.effective_priority(*fresh, now));
  q.push(starved);
  q.push(fresh);
  EXPECT_EQ(q.pop_ready(now, 8)->id, 0) << "the starved job must run first";
  EXPECT_EQ(q.pop_ready(now, 8)->id, 1);

  // Aging off: the same wait gap no longer reorders anything.
  Scheduler strict(8);
  auto starved2 = std::make_shared<Job>(0, lo);
  starved2->last_queued_at = now - 10s;
  auto fresh2 = std::make_shared<Job>(1, hi);
  fresh2->last_queued_at = now;
  strict.push(starved2);
  strict.push(fresh2);
  EXPECT_EQ(strict.pop_ready(now, 8)->id, 1);

  // The shutdown drain passes TimePoint::max() as `now`; the boost must
  // saturate to a finite value (order degrades to FIFO), not go infinite.
  const double drained =
      q.effective_priority(*fresh, Clock::time_point::max());
  EXPECT_TRUE(std::isfinite(drained));
}

// Clears one CA_AGCM_* var for the enclosing scope and restores it on
// exit, so the test owns the value and an outer environment (the CI legs
// export several of these) survives it.
struct EnvGuard {
  std::string name;
  std::optional<std::string> old;
  explicit EnvGuard(const char* n) : name(n) {
    if (const char* v = std::getenv(n)) old = v;
    ::unsetenv(n);
  }
  ~EnvGuard() {
    if (old.has_value())
      ::setenv(name.c_str(), old->c_str(), 1);
    else
      ::unsetenv(name.c_str());
  }
};

TEST(PoolOptionsEnv, CiLegKeysReachThePool) {
  // Every key the CI env legs export, plus the other sentinel and retry
  // knobs, must reach a pool built straight from default PoolOptions.
  const char* kVars[][2] = {
      {"CA_AGCM_SERVICE_REPLICATE", "1"},
      {"CA_AGCM_SERVICE_DELTA_CHAIN", "8"},
      {"CA_AGCM_SERVICE_ELASTIC", "1"},
      {"CA_AGCM_HEALTH_CADENCE", "3"},
      {"CA_AGCM_OBS_TRACE", "1"},
      {"CA_AGCM_HEALTH_MAX_WIND", "2500"},
      {"CA_AGCM_HEALTH_GROWTH_WARMUP", "5"},
      {"CA_AGCM_SERVICE_NUMERIC_RETRY", "7"},
  };
  std::vector<std::unique_ptr<EnvGuard>> guards;
  for (const auto& [name, value] : kVars) {
    guards.push_back(std::make_unique<EnvGuard>(name));
    ::setenv(name, value, 1);
  }
  PoolOptions o;
  o.checkpoint_dir = std::filesystem::temp_directory_path().string();
  const WorkerPool pool(o);
  EXPECT_TRUE(pool.options().replicate);
  EXPECT_EQ(pool.options().delta_chain, 8);
  EXPECT_TRUE(pool.options().elastic);
  EXPECT_EQ(pool.options().health.cadence, 3);
  EXPECT_TRUE(pool.options().obs.trace);
  EXPECT_DOUBLE_EQ(pool.options().health.max_wind, 2500.0);
  EXPECT_EQ(pool.options().health.growth_warmup, 5);
  EXPECT_EQ(pool.options().numeric_retry, 7);

  // With the variables cleared, the struct fields apply unchanged.
  for (const auto& [name, value] : kVars) ::unsetenv(name);
  const WorkerPool plain(o);
  EXPECT_FALSE(plain.options().replicate);
  EXPECT_EQ(plain.options().delta_chain, 0);
  EXPECT_FALSE(plain.options().elastic);
  EXPECT_EQ(plain.options().health.cadence, 1);
  EXPECT_FALSE(plain.options().obs.trace);
  EXPECT_EQ(plain.options().numeric_retry, 2);
}

TEST(Service, SweepsStaleTmpCheckpointsAtStartup) {
  // A crash between a checkpoint's tmp-write and its rename leaves a
  // `*.ckpt.tmp` behind; the pool must sweep OLD ones at startup and
  // leave real checkpoints alone.  A FRESH tmp may be a sibling pool's
  // atomic write in flight (two services can share a checkpoint_dir —
  // the default is "."), so the sweep is age-gated and must keep it.
  namespace fs = std::filesystem;
  const auto dir = fs::temp_directory_path() / "ca_service_tmp_sweep";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const auto stale = dir / "ca_service_job0.rank0.ckpt.tmp";
  const auto fresh = dir / "ca_service_job1.rank0.ckpt.tmp";
  const auto kept = dir / "ca_service_job0.rank0.ckpt";
  { std::ofstream(stale) << "partial"; }
  { std::ofstream(fresh) << "in-flight"; }
  { std::ofstream(kept) << "real"; }
  fs::last_write_time(
      stale, fs::file_time_type::clock::now() - std::chrono::hours(1));
  ServiceOptions opt;
  opt.slots = 1;
  opt.rank_budget = 1;
  opt.checkpoint_dir = dir.string();
  EnsembleService svc(opt);
  EXPECT_FALSE(fs::exists(stale)) << "stale tmp checkpoint not swept";
  EXPECT_TRUE(fs::exists(fresh))
      << "a fresh tmp (possibly another pool's in-flight write) was swept";
  EXPECT_TRUE(fs::exists(kept)) << "a completed checkpoint was removed";
  fs::remove_all(dir);
}

TEST(Service, CompletedJobsTakeTheirCheckpointFilesAlong) {
  // A completed job never resumes, so its base files and delta chain are
  // removed with it; a failed job keeps its files for the postmortem.
  namespace fs = std::filesystem;
  const auto dir = fs::temp_directory_path() / "ca_service_done_files";
  fs::remove_all(dir);
  ServiceOptions opt;
  opt.slots = 1;
  opt.rank_budget = 1;
  opt.checkpoint_dir = dir.string();
  opt.obs.dump_dir = dir.string();
  opt.delta_chain = 8;
  opt.numeric_retry = 0;
  EnsembleService svc(opt);

  JobSpec done = tiny_spec();
  done.name = "done";
  done.steps = 4;
  done.checkpoint_every = 1;
  done.initial.kind = state::InitialCondition::kRestIsothermal;  // chains
  // A NaN poked into the state after step 2 trips the sentinel; with no
  // numeric retries the job fails, keeping its step-1 and step-2 files.
  JobSpec failed = done;
  failed.name = "failed";
  failed.faults = comm::FaultPlan(5u);
  comm::FaultRule poke;
  poke.kind = comm::FaultKind::kCorruptState;
  poke.step = 2;
  failed.faults.add_rule(poke);
  const int D = svc.submit(done);
  const int F = svc.submit(failed);
  svc.drain();
  ASSERT_EQ(svc.state(D), JobState::kCompleted) << svc.result(D).error;
  ASSERT_EQ(svc.state(F), JobState::kFailed);

  auto files_of = [&](int id) {
    const std::string stem = "ca_service_job" + std::to_string(id) + ".rank";
    int n = 0;
    for (const auto& e : fs::directory_iterator(dir))
      n += e.path().filename().string().rfind(stem, 0) == 0;
    return n;
  };
  EXPECT_EQ(files_of(D), 0) << "a completed job left checkpoint files";
  EXPECT_GT(files_of(F), 0) << "a failed job lost its checkpoint files";
  fs::remove_all(dir);
}

TEST(Report, OlderSchemaTagsAreRejected) {
  // Only the current schema validates: a report whose content is complete
  // but whose tag names an older revision fails on the tag alone.
  ServiceOptions opt;
  opt.slots = 1;
  opt.rank_budget = 1;
  opt.checkpoint_dir = std::filesystem::temp_directory_path().string();
  EnsembleService svc(opt);
  util::Json report = svc.report();
  ASSERT_EQ(validate_report(report), "");
  for (const char* tag :
       {"ca-agcm/service-report/v1", "ca-agcm/service-report/v2",
        "ca-agcm/service-report/v3", "ca-agcm/service-report/v4",
        "ca-agcm/service-report/v5"}) {
    report["schema"] = tag;
    EXPECT_EQ(validate_report(report), "missing/wrong schema tag") << tag;
  }
}

TEST(Service, RejectsInvalidSubmit) {
  ServiceOptions opt;
  opt.slots = 1;
  opt.rank_budget = 2;
  opt.checkpoint_dir =
      std::filesystem::temp_directory_path().string();
  EnsembleService svc(opt);
  JobSpec bad = tiny_spec();
  bad.steps = -1;
  EXPECT_THROW(svc.submit(bad), std::invalid_argument);
  EXPECT_THROW(svc.wait(123), std::out_of_range);
}

TEST(Service, ReportValidatesAgainstItsSchema) {
  ServiceOptions opt;
  opt.slots = 2;
  opt.rank_budget = 2;
  opt.checkpoint_dir =
      std::filesystem::temp_directory_path().string();
  EnsembleService svc(opt);
  JobSpec s = tiny_spec();
  s.steps = 2;
  s.deadline_seconds = 3600.0;
  const int a = svc.submit(s);
  const int b = svc.submit(s);
  svc.drain();
  EXPECT_EQ(svc.state(a), JobState::kCompleted);
  EXPECT_EQ(svc.state(b), JobState::kCompleted);

  const util::Json doc = svc.report();
  EXPECT_EQ(validate_report(doc), "");
  // The report must survive a serialize/parse round trip unchanged in
  // validity (a report written to disk is read back this way).
  EXPECT_EQ(validate_report(util::Json::parse(doc.dump(2))), "");
  const util::Json* svc_obj = doc.find("service");
  ASSERT_NE(svc_obj, nullptr);
  EXPECT_EQ(svc_obj->find("jobs_completed")->as_double(), 2.0);
  EXPECT_EQ(svc_obj->find("jobs_failed")->as_double(), 0.0);

  // Both tiny jobs met their hour-long deadline.
  for (const auto& e : doc.find("jobs")->items())
    EXPECT_FALSE(e.find("deadline_missed")->as_bool());
}

TEST(Service, CreatesTheCheckpointDirectory) {
  // A missing checkpoint directory must not make preemptible jobs burn
  // their attempt budget on fopen failures: the pool materializes it.
  const auto root =
      std::filesystem::temp_directory_path() / "ca_service_ckpt_dir";
  std::filesystem::remove_all(root);
  ServiceOptions opt;
  opt.slots = 1;
  opt.rank_budget = 1;
  opt.checkpoint_dir = (root / "nested").string();
  EnsembleService svc(opt);
  EXPECT_TRUE(std::filesystem::is_directory(root / "nested"));
  JobSpec s = tiny_spec();
  s.steps = 2;
  s.checkpoint_every = 1;
  const int id = svc.submit(s);
  svc.drain();
  EXPECT_EQ(svc.state(id), JobState::kCompleted);
  std::filesystem::remove_all(root);
}

TEST(Service, ResultTakesTheFinalStateExactlyOnce) {
  // result() moves the gathered final state out of the job record; a
  // second call used to return an EMPTY state silently, which a caller
  // could then "successfully" compare against.  Now the repeat take is
  // flagged explicitly.
  ServiceOptions opt;
  opt.slots = 1;
  opt.rank_budget = 1;
  opt.checkpoint_dir =
      std::filesystem::temp_directory_path().string();
  EnsembleService svc(opt);
  JobSpec s = tiny_spec();
  s.steps = 2;
  const int id = svc.submit(s);
  svc.wait(id);

  const JobResult first = svc.result(id);
  ASSERT_EQ(first.state, JobState::kCompleted) << first.error;
  EXPECT_FALSE(first.state_already_taken);
  EXPECT_GT(first.final_state.interior().volume(), 0)
      << "first take must carry the gathered state";

  const JobResult second = svc.result(id);
  EXPECT_EQ(second.state, JobState::kCompleted);
  EXPECT_TRUE(second.state_already_taken)
      << "repeat take must be flagged, not silently empty";
  EXPECT_EQ(second.final_state.interior().volume(), 0);
  // Non-state fields stay reportable on every call.
  EXPECT_EQ(second.steps_done, first.steps_done);
}

TEST(Service, SerialJobsHonourStallFaults) {
  // A serial job runs in a one-rank world, so its steps pass the same
  // fault-injection step boundary (Context::notify_step) as distributed
  // jobs: a kStall rule fires.  One rank has no peer to talk to,
  // so the job still sends nothing.
  ServiceOptions opt;
  opt.slots = 1;
  opt.rank_budget = 1;
  opt.checkpoint_dir = std::filesystem::temp_directory_path().string();
  EnsembleService svc(opt);
  JobSpec s = tiny_spec();
  s.steps = 3;
  s.checkpoint_every = 1;
  comm::FaultRule stall;
  stall.kind = comm::FaultKind::kStall;
  stall.probability = 1.0;
  stall.param = 1;  // poll intervals slept per stalled step
  s.faults.add_rule(stall);
  const int id = svc.submit(s);
  svc.wait(id);

  const JobResult r = svc.result(id);
  ASSERT_EQ(r.state, JobState::kCompleted) << r.error;
  EXPECT_GT(r.faults.injected_stall, 0u)
      << "the stall rule never reached the serial job's steps";
  EXPECT_EQ(r.metrics.messages, 0u);
  EXPECT_EQ(r.metrics.bytes, 0u);
}

TEST(Service, NonBlockingSubmitBackpressure) {
  ServiceOptions opt;
  opt.slots = 1;
  opt.rank_budget = 1;
  opt.queue_capacity = 1;
  opt.checkpoint_dir =
      std::filesystem::temp_directory_path().string();
  EnsembleService svc(opt);
  JobSpec s = tiny_spec();
  s.steps = 200;  // long enough to keep the single slot busy
  // Occupy the slot, fill the one queue seat, then the queue must refuse.
  const int first = svc.submit(s, /*block=*/false);
  ASSERT_GE(first, 0);
  const auto start = std::chrono::steady_clock::now();
  while (svc.state(first) == JobState::kQueued) {
    ASSERT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(30));
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const int queued = svc.submit(s, /*block=*/false);
  ASSERT_GE(queued, 0) << "an empty queue must accept";
  EXPECT_EQ(svc.submit(s, /*block=*/false), -1)
      << "a full bounded queue must refuse a non-blocking submit";
  svc.drain();
  EXPECT_EQ(svc.state(first), JobState::kCompleted);
  EXPECT_EQ(svc.state(queued), JobState::kCompleted);
}

}  // namespace
}  // namespace ca::service
