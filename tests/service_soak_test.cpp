// Soak of the ensemble service: a mixed queue exercising all three cores,
// checkpoint-based preemption of a long low-priority run, and fault
// injection.  The service contract under test: every submitted job ends
// either kCompleted with a final state bit-for-bit identical to a solo
// (uninterrupted, fault-free) run of the same spec, or terminally kFailed
// carrying the FaultSummary of its attempts.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "comm/fault.hpp"
#include "service/runner.hpp"
#include "service/service.hpp"
#include "state/state.hpp"
#include "util/checkpoint.hpp"
#include "dump_dir.hpp"

namespace ca::service {
namespace {

using Clock = std::chrono::steady_clock;

/// This suite's flight-dump directory.
const std::string& dump_dir() {
  static const std::string dir = fresh_dump_dir("service_soak");
  return dir;
}

double elapsed_seconds(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

constexpr double kWallClockBound = 120.0;

/// Seed found by scanning: with the scoped corrupt rule below (p = 0.02,
/// src 0 -> dst 1), attempt 1 (seed 11) injects exactly one corruption
/// and dies with a ChecksumError, while the reseeded attempt 2 (seed 12)
/// injects nothing and completes.  The injector is a pure hash of
/// (seed, rule, message identity), so this is stable as long as the
/// cores' traffic pattern is.
constexpr std::uint64_t kTransientSeed = 11;

core::DycoreConfig soak_config() {
  core::DycoreConfig c;
  c.nx = 24;
  c.ny = 16;
  c.nz = 8;
  c.M = 2;
  c.dt_adapt = 30.0;
  c.dt_advect = 120.0;
  c.z_allreduce = comm::AllreduceAlgorithm::kLinearOrdered;
  return c;
}

/// Exact-mode CA switches: block-wide fresh C and no stale-C reuse keep
/// the trajectory bitwise invariant to the y split, so a py-changing
/// reshard resumes bit-for-bit against any same-pz reference.
core::CAOptions exact_ca_options() {
  core::CAOptions o;
  o.fresh_c_on_block_face = false;
  o.approximate_iteration = false;
  return o;
}

std::string temp_dir(const char* tag) {
  const auto p = std::filesystem::temp_directory_path() /
                 (std::string("ca_service_soak_") + tag);
  std::filesystem::create_directories(p);
  return p.string();
}

/// Solo reference: the same spec run once, uninterrupted and fault-free,
/// through the identical attempt machinery the service uses.
state::State solo_run(JobSpec spec, const std::string& prefix) {
  spec.faults = comm::FaultPlan();
  spec.checkpoint_every = 0;
  spec.comm = comm::RunOptions{};
  AttemptOptions o;
  o.obs.dump_dir = dump_dir();
  o.checkpoint_prefix = prefix;
  AttemptResult r = run_attempt(spec, o);
  EXPECT_TRUE(r.completed(spec.steps))
      << "solo reference for '" << spec.name << "' failed: " << r.error;
  return std::move(r.global);
}

void expect_bitwise(const state::State& got, const state::State& want,
                    const std::string& name) {
  ASSERT_GT(want.interior().volume(), 0) << name << ": empty reference";
  const double diff =
      state::State::max_abs_diff(got, want, want.interior());
  EXPECT_EQ(diff, 0.0) << name << ": service result diverged from solo run";
}

/// Pins a test to fixed job shapes: under the CI elastic leg's env
/// override the scheduler may squeeze a queued wide job to a narrower
/// decomposition, which paper-mode CA does not survive bitwise — that
/// path is covered by the exact-mode CAElasticSqueezeAndRegrowBitwise
/// test below.  Restores the variable on destruction.
struct ScopedUnsetEnv {
  explicit ScopedUnsetEnv(const char* name) : name_(name) {
    const char* v = ::getenv(name);
    had_ = v != nullptr;
    if (had_) saved_ = v;
    ::unsetenv(name);
  }
  ~ScopedUnsetEnv() {
    if (had_) ::setenv(name_, saved_.c_str(), 1);
  }
  const char* name_;
  std::string saved_;
  bool had_ = false;
};

void await_running(EnsembleService& svc, int id) {
  const auto start = Clock::now();
  while (svc.state(id) == JobState::kQueued) {
    ASSERT_LT(elapsed_seconds(start), 30.0) << "job " << id << " never ran";
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  ASSERT_EQ(svc.state(id), JobState::kRunning);
}

TEST(ServiceSoak, MixedQueueCompletesOrFailsTerminally) {
  const ScopedUnsetEnv elastic_off("CA_AGCM_SERVICE_ELASTIC");
  const core::DycoreConfig cfg = soak_config();
  const std::string dir = temp_dir("mixed");
  const auto start = Clock::now();

  ServiceOptions opt;
  opt.obs.dump_dir = dump_dir();
  opt.slots = 3;
  opt.rank_budget = 4;
  opt.queue_capacity = 16;
  opt.checkpoint_dir = dir;

  // A long, preemptible, low-priority run occupying the whole rank budget.
  JobSpec longj;
  longj.name = "long";
  longj.core = CoreKind::kOriginal;
  longj.config = cfg;
  longj.dims = {1, 2, 2};
  longj.steps = 16;
  longj.checkpoint_every = 1;
  longj.priority = 0;

  // A short high-priority job that cannot fit until `long` yields.
  JobSpec hipri;
  hipri.name = "hipri";
  hipri.core = CoreKind::kOriginal;
  hipri.config = cfg;
  hipri.dims = {1, 2, 1};
  hipri.steps = 3;
  hipri.priority = 10;

  JobSpec serial;
  serial.name = "serial_hs";
  serial.core = CoreKind::kSerial;
  serial.config = cfg;
  serial.steps = 3;
  serial.held_suarez = true;
  serial.priority = 5;

  JobSpec caj;
  caj.name = "ca";
  caj.core = CoreKind::kCA;
  caj.config = cfg;
  caj.dims = {1, 1, 2};
  caj.steps = 2;
  caj.priority = 5;
  // Preemptible: the CA carry travels in the checkpoint v3 block, so the
  // mixed queue exercises CA checkpoint writes (and resume, if evicted).
  caj.checkpoint_every = 1;

  // Certain death: probability-1 payload corruption on every message.
  // Reseeding cannot save it, so the attempt budget drains and the job
  // must end kFailed with the fault evidence attached.
  JobSpec faulty;
  faulty.name = "faulty";
  faulty.core = CoreKind::kOriginal;
  faulty.config = cfg;
  faulty.dims = {1, 2, 1};
  faulty.steps = 2;
  faulty.priority = 5;
  {
    comm::FaultPlan plan(7u);
    comm::FaultRule r;
    r.kind = comm::FaultKind::kCorrupt;
    r.probability = 1.0;
    plan.add_rule(r);
    faulty.faults = plan;
  }
  faulty.max_attempts = 2;
  faulty.retry_backoff_seconds = 0.001;
  faulty.comm.recv_timeout = std::chrono::milliseconds(400);

  // Solo references for everything expected to complete.
  std::map<std::string, state::State> solo;
  solo["long"] = solo_run(longj, dir + "/solo_long");
  solo["hipri"] = solo_run(hipri, dir + "/solo_hipri");
  solo["serial_hs"] = solo_run(serial, dir + "/solo_serial");
  solo["ca"] = solo_run(caj, dir + "/solo_ca");

  EnsembleService svc(opt);
  const int L = svc.submit(longj);
  // Let the long job own the budget before the rest of the queue arrives,
  // so the high-priority submission must preempt it.
  await_running(svc, L);
  const int H = svc.submit(hipri);
  const int S = svc.submit(serial);
  const int C = svc.submit(caj);
  const int F = svc.submit(faulty);
  svc.drain();
  EXPECT_LT(elapsed_seconds(start), kWallClockBound) << "soak hung";

  // Every job is terminal: completed bit-for-bit vs solo, or failed with
  // fault evidence.
  for (int id : {L, H, S, C, F}) {
    const JobResult r = svc.result(id);
    SCOPED_TRACE(::testing::Message() << "job '" << r.name << "'");
    if (r.state == JobState::kCompleted) {
      EXPECT_EQ(r.steps_done, svc.result(id).steps_done);
      ASSERT_EQ(solo.count(r.name), 1u);
      expect_bitwise(r.final_state, solo.at(r.name), r.name);
    } else {
      ASSERT_EQ(r.state, JobState::kFailed);
      EXPECT_FALSE(r.error.empty());
      EXPECT_GT(r.faults.injected_total(), 0u)
          << "failed without fault evidence";
    }
  }

  const JobResult rl = svc.result(L);
  EXPECT_EQ(rl.state, JobState::kCompleted);
  EXPECT_GE(rl.metrics.preemptions, 1)
      << "the long job was never preempted; the scenario is vacuous";
  EXPECT_EQ(svc.state(H), JobState::kCompleted);
  EXPECT_EQ(svc.state(S), JobState::kCompleted);
  EXPECT_EQ(svc.state(C), JobState::kCompleted);

  const JobResult rf = svc.result(F);
  EXPECT_EQ(rf.state, JobState::kFailed);
  EXPECT_EQ(rf.metrics.attempts, 2);
  EXPECT_GE(rf.faults.injected_corrupt, 1u);
  EXPECT_GE(rf.faults.detected_total(), 1u);

  const util::Json report = svc.report();
  EXPECT_EQ(validate_report(report), "");
  const util::Json* s = report.find("service");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->find("jobs_completed")->as_double(), 4.0);
  EXPECT_EQ(s->find("jobs_failed")->as_double(), 1.0);
  EXPECT_GE(s->find("preemptions")->as_double(), 1.0);
  EXPECT_GE(s->find("retries")->as_double(), 1.0);
  EXPECT_LE(s->find("utilization")->as_double(), 1.0);
  // Cross-section consistency: the pool total is the sum of the per-job
  // counts, not a second tally.
  double job_preemptions = 0.0;
  for (const util::Json& e : report.find("jobs")->items())
    job_preemptions += e.find("preemptions")->as_double();
  EXPECT_EQ(s->find("preemptions")->as_double(), job_preemptions);
}

TEST(ServiceSoak, CAPreemptResumeBitwise) {
  // The tentpole contract of CA resumability: a communication-avoiding
  // job preempted at a checkpoint must resume — prognostic fields from
  // the payload, cross-step carry (deferred final smoothing, stale C
  // anchors, step parity) from the v3 carry block — and land bit-for-bit
  // on the uninterrupted trajectory.  checkpoint_every = 1 with a
  // low priority makes it the eviction victim as soon as the
  // high-priority job arrives, so the yield lands mid-run where the
  // carry actually matters (between the stale-C step pair).
  const ScopedUnsetEnv elastic_off("CA_AGCM_SERVICE_ELASTIC");
  const core::DycoreConfig cfg = soak_config();
  const std::string dir = temp_dir("ca_preempt");
  const auto start = Clock::now();

  ServiceOptions opt;
  opt.obs.dump_dir = dump_dir();
  opt.slots = 2;
  opt.rank_budget = 4;
  opt.checkpoint_dir = dir;

  JobSpec caj;
  caj.name = "ca_long";
  caj.core = CoreKind::kCA;
  caj.config = cfg;
  caj.dims = {1, 2, 2};  // ny/py = 8 >= 3M+1, nz/pz = 4 >= 3
  caj.steps = 6;
  caj.priority = 0;
  caj.checkpoint_every = 1;

  JobSpec hipri;
  hipri.name = "hipri";
  hipri.core = CoreKind::kOriginal;
  hipri.config = cfg;
  hipri.dims = {1, 2, 1};
  hipri.steps = 2;
  hipri.priority = 10;

  const state::State reference = solo_run(caj, dir + "/solo_ca");

  EnsembleService svc(opt);
  const int C = svc.submit(caj);
  // The CA job must own the whole budget before the high-priority job
  // arrives, so the latter can only run by evicting it.
  await_running(svc, C);
  const int H = svc.submit(hipri);
  svc.drain();
  EXPECT_LT(elapsed_seconds(start), kWallClockBound) << "soak hung";

  EXPECT_EQ(svc.state(H), JobState::kCompleted);
  const JobResult rc = svc.result(C);
  ASSERT_EQ(rc.state, JobState::kCompleted) << rc.error;
  ASSERT_GE(rc.metrics.preemptions, 1)
      << "the CA job was never preempted; the scenario is vacuous";
  expect_bitwise(rc.final_state, reference, caj.name);
}

void await_completed(EnsembleService& svc, int id) {
  const auto start = Clock::now();
  while (svc.state(id) != JobState::kCompleted) {
    ASSERT_LT(elapsed_seconds(start), 60.0) << "job " << id << " never done";
    ASSERT_NE(svc.state(id), JobState::kFailed) << svc.result(id).error;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

TEST(ServiceSoak, CAElasticSqueezeAndRegrowBitwise) {
  // Voluntary elasticity end to end.  A wide CA job arriving while a
  // high-priority blocker holds half the budget is squeezed onto the idle
  // ranks (it runs narrow NOW instead of waiting for its full shape);
  // when it later re-enters the queue against a freed budget it re-grows
  // to its submitted decomposition, resharding its checkpoint set across
  // the py change.  Exact-mode CA is bitwise invariant to the y split and
  // every shape in play keeps pz = 2, so the squeezed-then-regrown
  // trajectory must land bit-for-bit on the uninterrupted {1,2,2} run.
  const core::DycoreConfig cfg = soak_config();
  const std::string dir = temp_dir("ca_elastic");
  const auto start = Clock::now();

  ServiceOptions opt;
  opt.obs.dump_dir = dump_dir();
  opt.slots = 2;
  opt.rank_budget = 4;
  opt.checkpoint_dir = dir;
  opt.elastic = true;

  // Phase 1 blocker: holds 2 of the 4 ranks so the wide CA submit finds
  // a non-empty but insufficient idle budget — the squeeze precondition.
  JobSpec blocker;
  blocker.name = "blocker";
  blocker.core = CoreKind::kOriginal;
  blocker.config = cfg;
  blocker.dims = {1, 2, 1};
  blocker.steps = 4;
  blocker.priority = 10;

  JobSpec caj;
  caj.name = "ca_elastic";
  caj.core = CoreKind::kCA;
  caj.config = cfg;
  caj.ca_options = exact_ca_options();
  caj.dims = {1, 2, 2};  // squeeze target yz_grid(2, 8) = {1,1,2}: same pz
  caj.steps = 12;
  caj.priority = 0;
  caj.checkpoint_every = 1;

  // Phase 2 evictor: needs the whole budget, so the narrow CA job must
  // yield; once the evictor finishes, the CA job re-enters against four
  // idle ranks and the pop-side re-growth widens it back to spec.dims.
  JobSpec evictor;
  evictor.name = "evictor";
  evictor.core = CoreKind::kOriginal;
  evictor.config = cfg;
  evictor.dims = {1, 2, 2};
  evictor.steps = 2;
  evictor.priority = 10;

  const state::State reference = solo_run(caj, dir + "/solo_ca");

  EnsembleService svc(opt);
  const int B = svc.submit(blocker);
  await_running(svc, B);
  const int C = svc.submit(caj);
  // The squeeze happens on the scheduler thread before the job is popped,
  // so by the time it runs it already runs narrow.
  await_running(svc, C);
  ASSERT_GE(svc.counters().elastic_shrinks, 1u)
      << "the wide CA job was not squeezed onto the idle ranks";
  await_completed(svc, B);
  const int E = svc.submit(evictor);
  svc.drain();
  EXPECT_LT(elapsed_seconds(start), kWallClockBound) << "soak hung";

  EXPECT_EQ(svc.state(B), JobState::kCompleted);
  EXPECT_EQ(svc.state(E), JobState::kCompleted);
  const JobResult rc = svc.result(C);
  ASSERT_EQ(rc.state, JobState::kCompleted) << rc.error;
  EXPECT_GE(rc.metrics.preemptions, 1)
      << "the evictor never displaced the narrow CA job";
  EXPECT_GE(svc.counters().elastic_grows, 1u)
      << "the CA job never re-grew to its submitted decomposition";
  // Squeezes and re-grows ride on checkpoint reshards: the only
  // re-dispatches are the preemption yields themselves, never a failed
  // attempt (a mis-resharded carry would surface here as a retry).
  EXPECT_EQ(rc.metrics.attempts, 1 + rc.metrics.preemptions);
  expect_bitwise(rc.final_state, reference, caj.name);

  const util::Json report = svc.report();
  EXPECT_EQ(validate_report(report), "");
  const util::Json* s = report.find("service");
  ASSERT_NE(s, nullptr);
  EXPECT_GE(s->find("elastic_shrinks")->as_double(), 1.0);
  EXPECT_GE(s->find("elastic_grows")->as_double(), 1.0);
}

TEST(ServiceSoak, ConcurrentShutdownIsSafe) {
  // shutdown() used to double-join: a second caller arriving after
  // stopping_ was set but before slots_ was cleared joined the same
  // std::thread objects again (UB, aborts under libstdc++).  All callers
  // must now return cleanly with the slots stopped exactly once.
  const core::DycoreConfig cfg = soak_config();

  PoolOptions opt;
  opt.obs.dump_dir = dump_dir();
  opt.slots = 2;
  opt.rank_budget = 2;
  opt.checkpoint_dir = temp_dir("concurrent_shutdown");

  JobSpec j;
  j.name = "short";
  j.core = CoreKind::kSerial;
  j.config = cfg;
  j.steps = 2;

  auto job = std::make_shared<Job>(0, j);
  WorkerPool pool(opt);
  ASSERT_TRUE(pool.submit(job, /*block=*/true));

  std::vector<std::thread> callers;
  for (int i = 0; i < 4; ++i)
    callers.emplace_back([&pool] { pool.shutdown(); });
  for (auto& t : callers) t.join();
  EXPECT_EQ(pool.state(*job), JobState::kCompleted);
  pool.shutdown();  // idempotent after the fact as well
}

TEST(ServiceSoak, RetryResumesFromTheCheckpointHeaderStep) {
  // The scenario the bitwise contract almost lost: a job yields at step 2
  // (the pool marks steps_done = 2), a later attempt advances the single
  // per-rank checkpoint file to step 4 and then dies.  The retry is
  // handed start_step = 2 but the file now holds step-4 state; replaying
  // steps 3..4 on top of it would silently diverge from the solo run.
  // run_attempt must trust the header's step instead.
  const core::DycoreConfig cfg = soak_config();
  const std::string dir = temp_dir("hdr_resume");
  const std::string prefix = dir + "/job";

  JobSpec j;
  j.name = "hdr_resume";
  j.core = CoreKind::kSerial;
  j.config = cfg;
  j.steps = 6;
  j.checkpoint_every = 2;

  const state::State reference = solo_run(j, dir + "/solo");

  // Attempt 1 yields at the first checkpoint: file records step 2.
  AttemptOptions o;
  o.obs.dump_dir = dump_dir();
  o.checkpoint_prefix = prefix;
  o.should_yield = [] { return true; };
  AttemptResult a1 = run_attempt(j, o);
  ASSERT_TRUE(a1.error.empty()) << a1.error;
  ASSERT_TRUE(a1.yielded);
  ASSERT_EQ(a1.end_step, 2);

  // Stand-in for the failed attempt that checkpointed mid-run: resume
  // from 2, yield again at step 4 — the file now records step 4, while
  // the pool's yield mark is still 2.
  o.attempt = 2;
  o.start_step = 2;
  AttemptResult a2 = run_attempt(j, o);
  ASSERT_TRUE(a2.error.empty()) << a2.error;
  ASSERT_TRUE(a2.yielded);
  ASSERT_EQ(a2.end_step, 4);

  // The retry with the stale start_step label must pick up at the
  // header's step 4 and land bitwise on the solo trajectory.
  o.attempt = 3;
  o.should_yield = nullptr;
  AttemptResult a3 = run_attempt(j, o);
  ASSERT_TRUE(a3.error.empty()) << a3.error;
  ASSERT_TRUE(a3.completed(j.steps));
  expect_bitwise(a3.global, reference, j.name);
}

TEST(ServiceSoak, InconsistentCheckpointSetFailsTheAttempt) {
  // Distributed resume with rank headers recording different steps: the
  // earlier per-rank states are already overwritten, so there is no
  // common state to resume — the attempt must fail loudly, not mix steps.
  const core::DycoreConfig cfg = soak_config();
  const std::string dir = temp_dir("hdr_mismatch");
  const std::string prefix = dir + "/job";

  JobSpec j;
  j.name = "hdr_mismatch";
  j.core = CoreKind::kOriginal;
  j.config = cfg;
  j.dims = {1, 2, 1};
  j.steps = 4;
  j.checkpoint_every = 2;

  AttemptOptions o;
  o.obs.dump_dir = dump_dir();
  o.checkpoint_prefix = prefix;
  o.should_yield = [] { return true; };
  AttemptResult a1 = run_attempt(j, o);
  ASSERT_TRUE(a1.error.empty()) << a1.error;
  ASSERT_EQ(a1.end_step, 2);

  // Freeze rank 0's step-2 file, let both ranks advance to step 4, then
  // roll rank 0 back: rank 0's header says 2, rank 1's says 4.
  const auto r0 = util::checkpoint_path(prefix, 0);
  std::filesystem::copy_file(
      r0, r0 + ".step2",
      std::filesystem::copy_options::overwrite_existing);
  o.attempt = 2;
  o.start_step = 2;
  AttemptResult a2 = run_attempt(j, o);
  ASSERT_TRUE(a2.error.empty()) << a2.error;
  ASSERT_EQ(a2.end_step, 4);
  std::filesystem::copy_file(
      r0 + ".step2", r0,
      std::filesystem::copy_options::overwrite_existing);

  o.attempt = 3;
  o.should_yield = nullptr;
  AttemptResult a3 = run_attempt(j, o);
  EXPECT_FALSE(a3.error.empty())
      << "an attempt resumed a mixed-step checkpoint set";
  EXPECT_NE(a3.error.find("inconsistent checkpoint set"), std::string::npos)
      << a3.error;
}

/// A preemption point for a 2-rank attempt: both ranks poll should_yield
/// once per checkpoint before the collective yield decision, so the
/// (2 * step - 1)-th poll is the first one at `step`.
std::function<bool()> yield_at_step(int step) {
  auto polls = std::make_shared<std::atomic<int>>(0);
  return [polls, step] { return ++*polls >= 2 * step - 1; };
}

/// A job whose checkpoints chain as deltas: a moving state dirties every
/// block, so each cadence degenerates to a fresh full base and there is
/// no chain to rewind; the rest state leaves the blocks clean.
JobSpec delta_chain_job(const char* name, CoreKind core) {
  JobSpec j;
  j.name = name;
  j.core = core;
  j.config = soak_config();
  j.initial.kind = state::InitialCondition::kRestIsothermal;
  j.dims = {1, 2, 1};
  j.steps = 6;
  j.checkpoint_every = 1;
  return j;
}

TEST(ServiceSoak, MixedDeltaTipsRewindToTheCommonStepBitwise) {
  // Delta chains whose tips differ across ranks (rank 1 lost its last
  // delta): the rank that is ahead rewinds its chain to the common step,
  // and the resumed attempt lands bitwise on the solo run.
  const std::string dir = temp_dir("mixed_tips");
  const std::string prefix = dir + "/job";
  const JobSpec j = delta_chain_job("mixed_tips", CoreKind::kOriginal);
  const state::State reference = solo_run(j, dir + "/solo");

  // Attempt 1: a base at step 1 and deltas at steps 2..4 on each rank.
  AttemptOptions o;
  o.obs.dump_dir = dump_dir();
  o.checkpoint_prefix = prefix;
  o.delta_chain = 8;
  o.should_yield = yield_at_step(4);
  AttemptResult a1 = run_attempt(j, o);
  ASSERT_TRUE(a1.error.empty()) << a1.error;
  ASSERT_EQ(a1.end_step, 4);
  ASSERT_TRUE(std::filesystem::exists(
      util::delta_path(util::checkpoint_path(prefix, 0), 3)));
  const std::string r1 = util::checkpoint_path(prefix, 1);
  ASSERT_TRUE(std::filesystem::remove(util::delta_path(r1, 3)));

  // Resume the way the pool does after a rank death (start_step 1): the
  // tips read 4 and 3, so both ranks resume from step 3.
  o.attempt = 2;
  o.start_step = 1;
  o.should_yield = nullptr;
  AttemptResult a2 = run_attempt(j, o);
  ASSERT_TRUE(a2.completed(j.steps)) << a2.error;
  EXPECT_EQ(a2.restored_from, RestoreSource::kDisk);
  expect_bitwise(a2.global, reference, j.name);
}

TEST(ServiceSoak, MixedTipsOnAMovingStateFailEveryRankPromptly) {
  // The moving-state twin of the mixed-tip rewind: a planetary wave
  // dirties every block of an original core's image (the state alone), so
  // every cadence writes a full base and no chain forms.  With rank 1's
  // file put back to its step-3 copy, rank 0 has no step-3 element to
  // rewind to, and the resume fails on both ranks at once instead of
  // waiting out the receive deadline.
  const std::string dir = temp_dir("moving_mixed_tips");
  const std::string prefix = dir + "/job";
  JobSpec j = delta_chain_job("moving_mixed_tips", CoreKind::kOriginal);
  j.initial.kind = state::InitialCondition::kPlanetaryWave;
  j.comm.recv_timeout = std::chrono::seconds(30);

  AttemptOptions o;
  o.obs.dump_dir = dump_dir();
  o.checkpoint_prefix = prefix;
  o.delta_chain = 8;
  o.should_yield = yield_at_step(3);
  AttemptResult a1 = run_attempt(j, o);
  ASSERT_TRUE(a1.error.empty()) << a1.error;
  ASSERT_EQ(a1.end_step, 3);
  const std::string r1 = util::checkpoint_path(prefix, 1);
  std::filesystem::copy_file(
      r1, r1 + ".step3", std::filesystem::copy_options::overwrite_existing);

  o.attempt = 2;
  o.start_step = 3;
  o.should_yield = [] { return true; };
  AttemptResult a2 = run_attempt(j, o);
  ASSERT_TRUE(a2.error.empty()) << a2.error;
  ASSERT_EQ(a2.end_step, 4);
  for (int rank = 0; rank < 2; ++rank)
    ASSERT_FALSE(std::filesystem::exists(
        util::delta_path(util::checkpoint_path(prefix, rank), 1)))
        << "a moving state chained a delta";
  std::filesystem::copy_file(
      r1 + ".step3", r1, std::filesystem::copy_options::overwrite_existing);

  o.attempt = 3;
  o.start_step = 1;
  o.should_yield = nullptr;
  const auto start = Clock::now();
  AttemptResult a3 = run_attempt(j, o);
  const double seconds = elapsed_seconds(start);
  EXPECT_FALSE(a3.error.empty()) << "a mixed-step checkpoint set resumed";
  EXPECT_NE(a3.error.find("inconsistent checkpoint set"), std::string::npos)
      << a3.error;
  EXPECT_NE(a3.error.find("steps 3..4"), std::string::npos) << a3.error;
  EXPECT_LT(seconds, 5.0) << "a rank waited on a peer that had failed";
}

TEST(ServiceSoak, PoisonedDeltaTipRewindsToAHealthyStepBitwise) {
  // Attempt 1 runs without the sentinel, so a NaN poked into rank 1's
  // state after step 3 reaches its step-3 delta and both step-4 deltas.
  // Attempt 2 runs with the sentinel: the restore finds the tip
  // unhealthy, rewinds both ranks one cadence at a time to the healthy
  // step 2, and completes bitwise (NaN-free) against the solo run.
  const std::string dir = temp_dir("poisoned_tip");
  const std::string prefix = dir + "/job";
  JobSpec j = delta_chain_job("poisoned_tip", CoreKind::kCA);
  const state::State reference = solo_run(j, dir + "/solo");
  j.faults = comm::FaultPlan(5u);
  comm::FaultRule poke;
  poke.kind = comm::FaultKind::kCorruptState;
  poke.step = 2;  // after the attempt's third step
  poke.attempt = 1;
  poke.src = 1;
  poke.param = 0;  // a NaN in U
  j.faults.add_rule(poke);

  AttemptOptions o;
  o.obs.dump_dir = dump_dir();
  o.checkpoint_prefix = prefix;
  o.delta_chain = 8;
  o.should_yield = yield_at_step(4);
  AttemptResult a1 = run_attempt(j, o);
  ASSERT_TRUE(a1.error.empty()) << a1.error;
  ASSERT_EQ(a1.end_step, 4);
  ASSERT_EQ(a1.faults.injected_total(), 1u);
  for (int rank = 0; rank < 2; ++rank)
    ASSERT_TRUE(std::filesystem::exists(
        util::delta_path(util::checkpoint_path(prefix, rank), 3)));

  o.attempt = 2;
  o.start_step = 1;
  o.should_yield = nullptr;
  o.health.cadence = 1;
  AttemptResult a2 = run_attempt(j, o);
  ASSERT_TRUE(a2.completed(j.steps)) << a2.error;
  EXPECT_EQ(a2.restored_from, RestoreSource::kDisk);
  expect_bitwise(a2.global, reference, j.name);
}

TEST(ServiceSoak, CorruptRankFileFailsEveryRankPromptly) {
  // One flipped payload byte in rank 1's checkpoint: rank 1's load fails
  // its CRC, and the agreed restore fails the attempt on every rank at
  // once -- rank 0 must not wait out the receive deadline in a collective
  // rank 1 never joins.
  for (CoreKind kind : {CoreKind::kOriginal, CoreKind::kCA}) {
    const bool ca = kind == CoreKind::kCA;
    SCOPED_TRACE(ca ? "CA" : "original");
    const std::string dir = temp_dir(ca ? "corrupt_ca" : "corrupt_orig");
    const std::string prefix = dir + "/job";

    JobSpec j;
    j.name = ca ? "corrupt_ca" : "corrupt_orig";
    j.core = kind;
    j.config = soak_config();
    j.dims = {1, 2, 1};
    j.steps = 4;
    j.checkpoint_every = 2;
    j.comm.recv_timeout = std::chrono::seconds(30);

    AttemptOptions o;
    o.obs.dump_dir = dump_dir();
    o.checkpoint_prefix = prefix;
    o.should_yield = [] { return true; };
    AttemptResult a1 = run_attempt(j, o);
    ASSERT_TRUE(a1.error.empty()) << a1.error;
    ASSERT_EQ(a1.end_step, 2);

    const std::string r1 = util::checkpoint_path(prefix, 1);
    {
      std::fstream f(r1, std::ios::in | std::ios::out | std::ios::binary);
      const auto mid =
          static_cast<std::streamoff>(std::filesystem::file_size(r1) / 2);
      f.seekg(mid);
      const char b = static_cast<char>(f.get());
      f.seekp(mid);
      f.put(static_cast<char>(b ^ 0x01));
    }

    o.attempt = 2;
    o.start_step = 2;
    o.should_yield = nullptr;
    const auto start = Clock::now();
    AttemptResult a2 = run_attempt(j, o);
    const double seconds = elapsed_seconds(start);
    EXPECT_FALSE(a2.error.empty()) << "a corrupt checkpoint set resumed";
    EXPECT_NE(a2.error.find("rank 1"), std::string::npos) << a2.error;
    EXPECT_LT(seconds, 5.0) << "a rank waited on a peer that had failed";
  }
}

TEST(ServiceSoak, ShutdownCancelsBackoffGates) {
  // A hard-faulting job with an hour-long base backoff: shutdown must
  // still drain it promptly by running the pending retry immediately
  // instead of sleeping out the gate.
  const core::DycoreConfig cfg = soak_config();
  const auto start = Clock::now();

  PoolOptions opt;
  opt.obs.dump_dir = dump_dir();
  opt.slots = 1;
  opt.rank_budget = 2;
  opt.checkpoint_dir = temp_dir("shutdown");

  JobSpec j;
  j.name = "doomed";
  j.core = CoreKind::kOriginal;
  j.config = cfg;
  j.dims = {1, 2, 1};
  j.steps = 2;
  {
    comm::FaultPlan plan(7u);
    comm::FaultRule r;
    r.kind = comm::FaultKind::kCorrupt;
    r.probability = 1.0;
    plan.add_rule(r);
    j.faults = plan;
  }
  j.max_attempts = 2;
  j.retry_backoff_seconds = 3600.0;
  j.comm.recv_timeout = std::chrono::milliseconds(400);

  auto job = std::make_shared<Job>(0, j);
  {
    WorkerPool pool(opt);
    ASSERT_TRUE(pool.submit(job, /*block=*/true));
    pool.shutdown();
    EXPECT_EQ(pool.state(*job), JobState::kFailed);
  }
  EXPECT_EQ(job->metrics.attempts, 2)
      << "the drain must still spend the attempt budget";
  EXPECT_LT(elapsed_seconds(start), kWallClockBound)
      << "shutdown waited out the backoff gate";
}

TEST(ServiceSoak, AgingBoundsLowPriorityWaitUnderABimodalMix) {
  // Anti-starvation bound (the aging knob): with one slot and a steady
  // stream of fresh short high-priority jobs, strict (priority, FIFO)
  // order would park a low-priority job until the stream ends — every
  // new arrival outranks it.  With aging on, the parked job's effective
  // priority grows while each arrival starts from zero, so its queue
  // wait is bounded by roughly gap/rate plus a service time — asserted
  // here as K x the measured mean service time (+ scheduling slack),
  // NOT by the length of the stream.
  const core::DycoreConfig cfg = soak_config();
  const std::string dir = temp_dir("aging");
  const auto start = Clock::now();

  ServiceOptions opt;
  opt.obs.dump_dir = dump_dir();
  opt.slots = 1;
  opt.rank_budget = 1;
  opt.queue_capacity = 8;
  opt.checkpoint_dir = dir;
  // Priority gap 10 / 200 points per second: a parked job overtakes
  // fresh arrivals after 50 ms of waiting.
  opt.aging_rate = 200.0;

  JobSpec hi;
  hi.name = "hi";
  hi.core = CoreKind::kSerial;
  hi.config = cfg;
  hi.steps = 2;
  hi.priority = 10;

  JobSpec lo = hi;
  lo.name = "lo";
  lo.priority = 0;

  EnsembleService svc(opt);
  const int primer = svc.submit(hi);
  await_running(svc, primer);  // the pool is busy before `lo` queues
  const int L = svc.submit(lo);

  std::vector<int> stream{primer};
  while (elapsed_seconds(start) < 2.0) {
    stream.push_back(svc.submit(hi, /*block=*/true));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  svc.drain();
  EXPECT_LT(elapsed_seconds(start), kWallClockBound) << "soak hung";
  ASSERT_GE(stream.size(), 10u) << "high-priority stream too thin";

  double service_sum = 0.0;
  for (int id : stream) {
    const JobResult r = svc.result(id);
    ASSERT_EQ(r.state, JobState::kCompleted) << r.name << ": " << r.error;
    service_sum += r.metrics.run_seconds;
  }
  const double mean_service =
      service_sum / static_cast<double>(stream.size());

  const JobResult rl = svc.result(L);
  ASSERT_EQ(rl.state, JobState::kCompleted) << rl.error;
  // The starvation bound, in scheduler DECISIONS rather than wall-clock
  // (a wall-clock bound was flaky on loaded machines: the wait scales
  // with however long each service time stretches, which is exactly the
  // noise we don't want to assert on).  While `lo` waits, each dispatch
  // of another job increments its overtake count; aging caps those at
  // the jobs already admitted ahead of it (at most the queue capacity)
  // plus the arrivals that still outrank it during the gap/rate overtake
  // window (one per mean service time, since the single slot dispatches
  // serially), plus a little scheduler slack.  The count must NOT scale
  // with the ~2 s stream length.
  const double overtake_window = 10.0 / opt.aging_rate;  // gap / rate
  const double per_window =
      std::ceil(overtake_window / std::max(mean_service, 1e-9));
  const auto bound = static_cast<std::uint64_t>(
      static_cast<double>(opt.queue_capacity) + per_window + 2.0);
  EXPECT_LE(rl.metrics.dispatches_overtaken, bound)
      << "low-priority job starved despite aging (" << stream.size()
      << " high-priority jobs streamed, mean service " << mean_service
      << " s)";
  EXPECT_GT(rl.metrics.queue_wait_seconds, 0.0);
}

TEST(ServiceSoak, RetryCompletesAfterTransientFault) {
  // A narrowly scoped low-probability corrupt rule with a seed chosen (by
  // scanning, see bench/bench_service_throughput.cpp) so that attempt 1
  // (seed) injects at least one corruption — the attempt dies with a
  // ChecksumError — while the reseeded attempt 2 (seed + 1) injects
  // nothing and completes.  The service's retry-with-backoff must carry
  // the job to kCompleted with the solo-run state, bit for bit.
  const core::DycoreConfig cfg = soak_config();
  const std::string dir = temp_dir("retry");

  JobSpec j;
  j.name = "transient";
  j.core = CoreKind::kOriginal;
  j.config = cfg;
  j.dims = {1, 2, 1};
  j.steps = 2;
  {
    comm::FaultPlan plan(kTransientSeed);
    comm::FaultRule r;
    r.kind = comm::FaultKind::kCorrupt;
    r.probability = 0.02;
    r.src = 0;
    r.dst = 1;
    plan.add_rule(r);
    j.faults = plan;
  }
  j.max_attempts = 3;
  j.retry_backoff_seconds = 0.001;
  j.comm.recv_timeout = std::chrono::milliseconds(400);

  const state::State reference = solo_run(j, dir + "/solo");

  ServiceOptions opt;
  opt.obs.dump_dir = dump_dir();
  opt.slots = 1;
  opt.rank_budget = 2;
  opt.checkpoint_dir = dir;
  EnsembleService svc(opt);
  const int id = svc.submit(j);
  svc.wait(id);

  const JobResult r = svc.result(id);
  ASSERT_EQ(r.state, JobState::kCompleted) << r.error;
  EXPECT_EQ(r.metrics.attempts, 2)
      << "seed no longer fails exactly once; re-scan kTransientSeed";
  EXPECT_GE(r.faults.injected_corrupt, 1u);
  EXPECT_GE(r.faults.detected_checksum, 1u);
  EXPECT_GT(r.metrics.backoff_seconds, 0.0);
  expect_bitwise(r.final_state, reference, j.name);

  const util::Json report = svc.report();
  EXPECT_EQ(validate_report(report), "");
  EXPECT_GE(report.find("service")->find("retries")->as_double(), 1.0);
}

}  // namespace
}  // namespace ca::service
