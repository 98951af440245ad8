// Numerical-health sentinel: blowup detection, poison-free checkpoints,
// and automatic rollback recovery.  The contract under test: a seeded
// corrupt_state fault (an in-memory poke of one prognostic cell) is
// detected within health.cadence steps on every core, the poisoned step
// is never persisted or replicated, the service rolls the job back to
// its last healthy checkpoint under the separate service.numeric_retry
// budget, and the recovered run completes bit-for-bit identical to an
// uninjected one.
#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "comm/fault.hpp"
#include "core/dycore_config.hpp"
#include "core/diagnostics.hpp"
#include "core/health.hpp"
#include "core/serial_core.hpp"
#include "service/replica.hpp"
#include "service/runner.hpp"
#include "service/service.hpp"
#include "state/state.hpp"
#include "util/checkpoint.hpp"
#include "util/timer.hpp"
#include "dump_dir.hpp"

namespace ca::service {
namespace {

using Clock = std::chrono::steady_clock;

/// This suite's flight-dump directory.
const std::string& dump_dir() {
  static const std::string dir = fresh_dump_dir("numeric_health");
  return dir;
}

core::DycoreConfig health_config() {
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

std::string temp_dir(const char* tag) {
  const auto p = std::filesystem::temp_directory_path() /
                 (std::string("ca_numeric_health_") + tag);
  std::filesystem::remove_all(p);
  std::filesystem::create_directories(p);
  return p.string();
}

/// One corrupt_state rule: poke `field` (0=u 1=v 2=phi 3=psa) with `mode`
/// (0=NaN 1=Inf 2=out-of-bounds 1e30) on rank `rank` after the step with
/// 0-based index `step_idx`, on attempt `attempt` only (0 = every
/// attempt).  Fixed-step rules fire deterministically — no seed roll.
comm::FaultPlan poison_plan(int field, int mode, int step_idx,
                            int attempt = 1, int rank = comm::kAnySource) {
  comm::FaultPlan plan(5u);
  comm::FaultRule r;
  r.kind = comm::FaultKind::kCorruptState;
  r.step = step_idx;
  r.attempt = attempt;
  r.src = rank;
  r.param = field * 10 + mode;
  plan.add_rule(r);
  return plan;
}

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
  const double diff = state::State::max_abs_diff(got, want, want.interior());
  EXPECT_EQ(diff, 0.0) << name << ": recovered run diverged from solo run";
}

/// Pins the sentinel/retry knobs to what the tests set in code: the CI
/// env-override legs flip these globally, and PoolOptions' env courtesy
/// would otherwise override the values the scenarios depend on.
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

struct PinnedHealthEnv {
  ScopedUnsetEnv cadence{"CA_AGCM_HEALTH_CADENCE"};
  ScopedUnsetEnv warmup{"CA_AGCM_HEALTH_GROWTH_WARMUP"};
  ScopedUnsetEnv retry{"CA_AGCM_SERVICE_NUMERIC_RETRY"};
  ScopedUnsetEnv elastic{"CA_AGCM_SERVICE_ELASTIC"};
  ScopedUnsetEnv replicate{"CA_AGCM_SERVICE_REPLICATE"};
};

// --- sentinel unit behavior ----------------------------------------------

core::GlobalDiag healthy_diag(double scale) {
  core::GlobalDiag d;
  d.quad_energy = scale;
  d.surface_energy = 0.1 * scale;
  d.mass_anomaly = 0.5 * scale;
  d.max_abs_u = 10.0;
  d.max_abs_v = 10.0;
  d.max_abs_phi = 100.0;
  d.max_abs_psa = 100.0;
  return d;
}

TEST(HealthSentinel, SpinUpFromNearZeroDoesNotTripGrowth) {
  core::HealthOptions opts;
  opts.cadence = 1;
  core::HealthSentinel s(opts);
  // A cold-start trajectory: the integrals jump twelve orders of
  // magnitude from a cancellation-near-zero start — exactly what tripped
  // a previous-check ratio detector.  The warmup (default 2) must absorb
  // it.
  EXPECT_EQ(s.check(healthy_diag(1e-10)), "");
  EXPECT_EQ(s.check(healthy_diag(1e2)), "");
  EXPECT_EQ(s.check(healthy_diag(1e4)), "");
  EXPECT_EQ(s.check(healthy_diag(1.5e4)), "");
}

TEST(HealthSentinel, RunawayPastTheRunningScaleTrips) {
  core::HealthOptions opts;
  opts.cadence = 1;
  core::HealthSentinel s(opts);
  EXPECT_EQ(s.check(healthy_diag(1e2)), "");
  EXPECT_EQ(s.check(healthy_diag(1e4)), "");
  EXPECT_EQ(s.check(healthy_diag(1e4)), "");  // warmup done, scale ~1e4
  const std::string v = s.check(healthy_diag(1e7));  // > 100x the scale
  EXPECT_NE(v.find("energy runaway"), std::string::npos) << v;
  // The poisoned check must NOT have become the new scale: the same
  // runaway value trips again instead of being normalized.
  EXPECT_NE(s.check(healthy_diag(1e7)), "");
}

TEST(HealthSentinel, StaticChecksCatchNonFiniteAndBounds) {
  core::HealthOptions opts;
  opts.cadence = 1;
  EXPECT_EQ(core::HealthSentinel::check_static(opts, healthy_diag(1.0)), "");

  core::GlobalDiag nan_integral = healthy_diag(1.0);
  nan_integral.quad_energy = std::numeric_limits<double>::quiet_NaN();
  EXPECT_NE(core::HealthSentinel::check_static(opts, nan_integral)
                .find("non-finite energy"),
            std::string::npos);

  core::GlobalDiag inf_field = healthy_diag(1.0);
  inf_field.max_abs_phi = std::numeric_limits<double>::infinity();
  EXPECT_NE(core::HealthSentinel::check_static(opts, inf_field)
                .find("non-finite prognostic"),
            std::string::npos);

  core::GlobalDiag wind = healthy_diag(1.0);
  wind.max_abs_u = 2.0 * opts.max_wind;
  EXPECT_NE(core::HealthSentinel::check_static(opts, wind).find("wind bound"),
            std::string::npos);

  core::GlobalDiag psa = healthy_diag(1.0);
  psa.max_abs_psa = 2.0 * opts.max_psa;
  EXPECT_NE(
      core::HealthSentinel::check_static(opts, psa).find("surface-pressure"),
      std::string::npos);
}

TEST(HealthSentinel, CadenceOneCostsUnderOnePercentOfASerialStep) {
#ifdef __SANITIZE_ADDRESS__
  GTEST_SKIP() << "timing gate: sanitizers slow the check, not the step";
#endif
  // At the service's default cadence the sentinel runs every step: one
  // local_diagnostics sweep plus the verdict.  On the 16x16x4, M = 2 mesh
  // that costs under 1% of one serial step, timed after two warm-up
  // steps.  At cadence 0 the campaign loop never reaches any of it.
  core::DycoreConfig cfg;
  cfg.nx = 16;
  cfg.ny = 16;
  cfg.nz = 4;
  cfg.M = 2;
  cfg.z_allreduce = comm::AllreduceAlgorithm::kLinearOrdered;
  core::SerialCore ref(cfg);
  auto xr = ref.make_state();
  ref.initialize(xr, {.kind = state::InitialCondition::kPlanetaryWave});
  ref.run(xr, 2);
  const util::Timer step_timer;
  ref.run(xr, 1);
  const double step_seconds = step_timer.seconds();

  core::SerialCore score(cfg);
  auto xi = score.make_state();
  score.initialize(xi, {.kind = state::InitialCondition::kPlanetaryWave});
  score.run(xi, 1);  // measure on a physical state, not the IC
  core::HealthOptions hopts;
  hopts.cadence = 1;
  core::HealthSentinel sentinel(hopts);
  constexpr int kChecks = 200;
  const util::Timer check_timer;
  for (int i = 0; i < kChecks; ++i)
    ASSERT_EQ(sentinel.check(core::local_diagnostics(score.op_context(), xi)),
              "")
        << "the sentinel tripped on a healthy state";
  const double check_seconds = check_timer.seconds() / kChecks;
  ASSERT_GT(step_seconds, 0.0);
  EXPECT_LT(check_seconds / step_seconds, 0.01)
      << check_seconds * 1e6 << " us a check against a "
      << step_seconds * 1e3 << " ms serial step";
}

// --- detection latency and containment (single attempts) -----------------

TEST(NumericHealth, DetectionWithinTheSentinelCadence) {
  const PinnedHealthEnv pinned;
  const std::string dir = temp_dir("latency");

  JobSpec spec;
  spec.name = "latency";
  spec.core = CoreKind::kSerial;
  spec.config = health_config();
  spec.steps = 9;
  // Poke after 0-based step index 3 = absolute step 4.
  spec.faults = poison_plan(/*field=*/0, /*mode=*/0, /*step_idx=*/3);

  AttemptOptions o;
  o.obs.dump_dir = dump_dir();
  o.attempt = 1;
  o.checkpoint_prefix = dir + "/latency";
  o.health.cadence = 3;  // checks at absolute steps 3, 6, 9
  const AttemptResult r = run_attempt(spec, o);

  ASSERT_TRUE(r.numeric) << "sentinel never tripped: " << r.error;
  EXPECT_NE(r.error.find("non-finite"), std::string::npos) << r.error;
  const int corrupted_at = 4;
  EXPECT_GE(r.numeric_step, corrupted_at);
  EXPECT_LE(r.numeric_step, corrupted_at + o.health.cadence)
      << "detection latency exceeded the cadence guarantee";
  EXPECT_EQ(r.numeric_step, 6);  // the first check after the poke
  EXPECT_GE(r.faults.injected_state_corrupt, 1u);
}

TEST(NumericHealth, PoisonedStateIsNeverCheckpointed) {
  const PinnedHealthEnv pinned;
  const std::string dir = temp_dir("containment");

  JobSpec spec;
  spec.name = "containment";
  spec.core = CoreKind::kSerial;
  spec.config = health_config();
  spec.steps = 6;
  spec.checkpoint_every = 1;
  // Out-of-bounds finite poke (the subtle case: no NaN for the sums to
  // catch) after step index 2 = absolute step 3.
  spec.faults = poison_plan(/*field=*/2, /*mode=*/2, /*step_idx=*/2);

  AttemptOptions o;
  o.obs.dump_dir = dump_dir();
  o.attempt = 1;
  o.checkpoint_prefix = dir + "/job";
  o.health.cadence = 1;
  const AttemptResult r = run_attempt(spec, o);
  ASSERT_TRUE(r.numeric);
  EXPECT_EQ(r.numeric_step, 3);
  EXPECT_NE(r.error.find("geopotential bound"), std::string::npos) << r.error;

  // The sentinel check gates every write: the per-rank file must hold the
  // LAST HEALTHY step (2), flagged verified — never the poisoned step 3.
  const mesh::LatLonMesh mesh(spec.config.nx, spec.config.ny, spec.config.nz);
  const mesh::DomainDecomp decomp(mesh, {1, 1, 1}, {0, 0, 0});
  state::State xi(spec.config.nx, spec.config.ny, spec.config.nz,
                  core::halos_for_depth(1));
  const util::CheckpointHeader hdr =
      util::read_checkpoint(util::checkpoint_path(o.checkpoint_prefix, 0),
                            mesh, decomp, xi);
  EXPECT_EQ(hdr.step, 2);
  EXPECT_EQ(hdr.health, 1u);
}

// --- detect -> rollback -> bit-for-bit completion, all three cores -------

TEST(NumericHealth, ServiceRollsBackAndCompletesBitwiseOnEveryCore) {
  const PinnedHealthEnv pinned;
  const core::DycoreConfig cfg = health_config();
  const std::string dir = temp_dir("rollback");

  ServiceOptions opt;
  opt.obs.dump_dir = dump_dir();
  opt.slots = 1;
  opt.rank_budget = 4;
  opt.checkpoint_dir = dir;
  ASSERT_EQ(opt.health.cadence, 1) << "service default must be sentinel-on";
  ASSERT_EQ(opt.numeric_retry, 2);

  struct Scenario {
    const char* name;
    CoreKind core;
    std::array<int, 3> dims;
    int field;  // rotate fields and modes across the cores
    int mode;
  };
  const Scenario scenarios[] = {
      {"serial_nan_u", CoreKind::kSerial, {1, 1, 1}, 0, 0},
      {"original_inf_v", CoreKind::kOriginal, {1, 2, 2}, 1, 1},
      {"ca_oob_phi", CoreKind::kCA, {1, 1, 2}, 2, 2},
  };

  EnsembleService svc(opt);
  std::vector<int> ids;
  std::vector<state::State> solo;
  for (const Scenario& sc : scenarios) {
    JobSpec j;
    j.name = sc.name;
    j.core = sc.core;
    j.config = cfg;
    j.dims = sc.dims;
    j.steps = 6;
    j.checkpoint_every = 2;
    // Poke on attempt 1 only, after step index 2 = absolute step 3: the
    // step-2 checkpoint is healthy, the sentinel trips at step 3, and the
    // rollback's attempt 2 reruns 3..6 clean.
    j.faults = poison_plan(sc.field, sc.mode, /*step_idx=*/2, /*attempt=*/1);
    solo.push_back(solo_run(j, dir + "/solo_" + sc.name));
    ids.push_back(svc.submit(j));
  }
  svc.drain();

  for (std::size_t i = 0; i < ids.size(); ++i) {
    const JobResult r = svc.result(ids[i]);
    SCOPED_TRACE(::testing::Message() << "job '" << r.name << "'");
    ASSERT_EQ(r.state, JobState::kCompleted) << r.error;
    expect_bitwise(r.final_state, solo[i], r.name);
    EXPECT_EQ(r.metrics.numeric_rollbacks, 1);
    EXPECT_EQ(r.metrics.attempts, 2);
    EXPECT_GE(r.faults.injected_state_corrupt, 1u);
    EXPECT_GE(r.faults.detected_numeric, 1u);
  }

  // The numeric-health evidence is part of the report's ledger.
  const util::Json report = svc.report();
  EXPECT_EQ(validate_report(report), "");
  const util::Json* h = report.find("health");
  ASSERT_NE(h, nullptr);
  EXPECT_TRUE(h->find("sentinel_enabled")->as_bool());
  EXPECT_EQ(h->find("sentinel_cadence")->as_double(), 1.0);
  EXPECT_EQ(h->find("numeric_rollbacks")->as_double(), 3.0);
  const util::Json* jobs = report.find("jobs");
  ASSERT_NE(jobs, nullptr);
  // Cross-section consistency: the pool total is the sum of the per-job
  // counts, not a second tally.
  double job_rollbacks = 0.0;
  for (const util::Json& e : jobs->items()) {
    EXPECT_EQ(e.find("numeric_rollbacks")->as_double(), 1.0);
    job_rollbacks += e.find("numeric_rollbacks")->as_double();
  }
  EXPECT_EQ(h->find("numeric_rollbacks")->as_double(), job_rollbacks);
}

TEST(NumericHealth, NumericRetryBudgetExhaustionFailsTheJob) {
  const PinnedHealthEnv pinned;
  const std::string dir = temp_dir("exhaust");

  ServiceOptions opt;
  opt.obs.dump_dir = dump_dir();
  opt.slots = 1;
  opt.rank_budget = 2;
  opt.checkpoint_dir = dir;
  opt.numeric_retry = 1;

  JobSpec j;
  j.name = "always_poisoned";
  j.core = CoreKind::kSerial;
  j.config = health_config();
  j.steps = 6;
  j.checkpoint_every = 2;
  // attempt = 0: the poke re-fires on EVERY attempt, so no rollback can
  // save the job and the numeric budget must drain.
  j.faults = poison_plan(/*field=*/3, /*mode=*/0, /*step_idx=*/2,
                         /*attempt=*/0);
  // The infrastructure retry budget stays untouched throughout: numeric
  // failures must never consume max_attempts.
  j.max_attempts = 1;

  EnsembleService svc(opt);
  const int id = svc.submit(j);
  svc.drain();

  const JobResult r = svc.result(id);
  EXPECT_EQ(r.state, JobState::kFailed);
  EXPECT_NE(r.error.find("numerical health"), std::string::npos) << r.error;
  // numeric_retry = 1: incident 1 rolls back, incident 2 exhausts.
  EXPECT_EQ(r.metrics.numeric_rollbacks, 2);
  EXPECT_EQ(r.metrics.attempts, 2);

  const util::Json report = svc.report();
  EXPECT_EQ(validate_report(report), "");
  EXPECT_EQ(report.find("service")->find("jobs_failed")->as_double(), 1.0);
}

// --- replica containment --------------------------------------------------

TEST(NumericHealth, ReplicaStoreDropsAPoisonedJobsImages) {
  ReplicaStore store;
  const std::string prefix = "ckpt/jobX";
  std::vector<std::byte> bytes(64, std::byte{0x5a});
  store.deposit(prefix, /*rank=*/0, /*depositor=*/0, 4, 480.0, bytes);
  store.deposit(prefix, /*rank=*/0, /*depositor=*/1, 4, 480.0, bytes);
  store.deposit(prefix, /*rank=*/1, /*depositor=*/1, 4, 480.0, bytes);
  store.deposit("ckpt/jobY", /*rank=*/0, /*depositor=*/0, 4, 480.0, bytes);
  ASSERT_NE(store.fetch(prefix, 0), nullptr);
  ASSERT_NE(store.fetch(prefix, 1), nullptr);

  // A numeric incident invalidates the WHOLE job prefix (every rank,
  // every depositor): any in-memory image of the poisoned trajectory is
  // suspect.  Other jobs' images stay.
  store.erase_prefix(prefix);
  EXPECT_EQ(store.fetch(prefix, 0), nullptr);
  EXPECT_EQ(store.fetch(prefix, 1), nullptr);
  EXPECT_NE(store.fetch("ckpt/jobY", 0), nullptr);
}

}  // namespace
}  // namespace ca::service
