// Wall-clock benchmark of the ensemble service: six job mixes over one
// rank pool, emitting BENCH_service.json.
//
//   uniform        identical medium jobs; measures raw multiplexing
//                  throughput and must keep >= 2 jobs in flight at once
//   bimodal        one long, preemptible, low-priority run plus a stream
//                  of short high-priority jobs; the long job must be
//                  preempted at least once, resume from its checkpoint,
//                  and still finish bit-for-bit identical to a solo
//                  (uninterrupted) run of the same spec
//   fault_injected a transient-fault job that must fail once and complete
//                  on the reseeded retry, plus a doomed probability-1
//                  corruption job that must exhaust its attempt budget
//                  and end terminally failed
//   rank_failure   a node-resident kill takes out one pool rank mid-run;
//                  the heartbeat watchdog detects it, the pool
//                  quarantines the rank and resumes the victim from its
//                  checkpoint on healthy ranks — while the service keeps
//                  >= 2 jobs in flight (scheduling never pauses for the
//                  recovery), and the victim still lands bit-for-bit on
//                  the fault-free trajectory
//   replicated_failover
//                  the rank_failure scenario with in-memory buddy
//                  replication on: the victim must recover from buddy
//                  RAM (ram_restores >= 1, zero disk restores) and land
//                  bitwise; a runner-level twin then times the SAME
//                  resume from buddy RAM vs from the on-disk chain and
//                  reports both latencies (hard assert on provenance and
//                  I/O counters, soft on the latency ordering — timing)
//   bursty_elastic the same bursty workload run with service.elastic off
//                  and on: a high-priority burst pins half the pool while
//                  a wide preemptible CA job waits; with elasticity the
//                  job is squeezed onto the idle ranks (bitwise, exact
//                  mode keeps pz) and measured utilization must be
//                  strictly higher than the baseline leg's
//
// Each mix runs through a fresh EnsembleService; the per-mix service
// report (schema ca-agcm/service-report/v2) is embedded verbatim in the
// output and re-validated after the emitted file is parsed back, so a
// nonzero exit status means the service, the invariants above, or the
// JSON are broken — this is what the bench-service-smoke ctest runs.
//
// Configuration (key=value args, or CA_AGCM_* env — see README):
//   nx, ny, nz, m   mesh                        (default 24x16x8, M=2)
//   slots           worker slots                (default 3)
//   budget          rank budget of the pool     (default 4)
//   jobs            uniform-mix job count       (default 6)
//   steps           steps per uniform job       (default 6)
//   long_steps      steps of the bimodal long job (default 20)
//   out             output path                 (default BENCH_service.json)
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "comm/fault.hpp"
#include "obs/trace.hpp"
#include "service/replica.hpp"
#include "service/runner.hpp"
#include "service/service.hpp"
#include "util/checkpoint.hpp"
#include "util/config.hpp"
#include "util/json.hpp"

namespace {

using namespace ca;
using Clock = std::chrono::steady_clock;

constexpr const char* kSchema = "ca-agcm/bench-service/v1";

/// Seed shared with tests/service_soak_test.cpp: with a corrupt rule of
/// p = 0.02 scoped src 0 -> dst 1 on the original {1,2,1} core, attempt 1
/// (seed 11) injects one corruption and dies, attempt 2 (seed 12) is
/// clean.  Found by scanning; stable while the cores' traffic pattern is.
constexpr std::uint64_t kTransientSeed = 11;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

core::DycoreConfig base_config(const util::Config& in) {
  core::DycoreConfig c;
  c.nx = in.get_int("nx", 24);
  c.ny = in.get_int("ny", 16);
  c.nz = in.get_int("nz", 8);
  c.M = in.get_int("m", 2);
  c.z_allreduce = comm::AllreduceAlgorithm::kLinearOrdered;
  return c;
}

service::JobSpec original_job(const core::DycoreConfig& cfg,
                              const std::string& name, int steps,
                              std::array<int, 3> dims, int priority) {
  service::JobSpec j;
  j.name = name;
  j.core = service::CoreKind::kOriginal;
  j.config = cfg;
  j.dims = dims;
  j.steps = steps;
  j.priority = priority;
  return j;
}

/// Solo reference through the identical attempt machinery, fault-free
/// and uninterrupted.
state::State solo_state(service::JobSpec spec, const std::string& prefix) {
  spec.faults = comm::FaultPlan();
  spec.node_faults.clear();
  spec.checkpoint_every = 0;
  spec.comm = comm::RunOptions{};
  service::AttemptOptions o;
  o.checkpoint_prefix = prefix;
  auto r = service::run_attempt(spec, o);
  if (!r.completed(spec.steps)) {
    std::fprintf(stderr, "FAIL: solo reference '%s' broke: %s\n",
                 spec.name.c_str(), r.error.c_str());
    std::exit(1);
  }
  return std::move(r.global);
}

bool await_running(service::EnsembleService& svc, int id) {
  const auto start = Clock::now();
  while (svc.state(id) == service::JobState::kQueued) {
    if (seconds_since(start) > 30.0) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return svc.state(id) == service::JobState::kRunning;
}

struct MixOutcome {
  std::string name;
  double wall = 0.0;
  int submitted = 0;
  int completed = 0;
  int failed = 0;
  std::int64_t steps_done = 0;
  util::Json report = util::Json::object();
  /// Mix-specific extra numeric columns (e.g. the failover mix's
  /// recovery latencies), emitted verbatim into the mix's JSON entry.
  std::vector<std::pair<std::string, double>> extra;
  bool ok = true;
};

void summarize(MixOutcome& mix, service::EnsembleService& svc,
               const std::vector<int>& ids) {
  for (int id : ids) {
    const auto st = svc.state(id);
    mix.completed += st == service::JobState::kCompleted;
    mix.failed += st == service::JobState::kFailed;
  }
  mix.submitted = static_cast<int>(ids.size());
  mix.report = svc.report();
  const std::string problem = service::validate_report(mix.report);
  if (!problem.empty()) {
    std::fprintf(stderr, "FAIL: %s report invalid: %s\n", mix.name.c_str(),
                 problem.c_str());
    mix.ok = false;
  }
  for (const auto& e : mix.report.find("jobs")->items())
    mix.steps_done +=
        static_cast<std::int64_t>(e.find("steps_done")->as_double());
}

double service_metric(const MixOutcome& mix, const char* key) {
  return mix.report.find("service")->find(key)->as_double();
}

std::string validate_bench(const util::Json& doc) {
  if (!doc.is_object()) return "root is not an object";
  const util::Json* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != kSchema)
    return "missing/wrong schema tag";
  const util::Json* mixes = doc.find("mixes");
  if (mixes == nullptr || !mixes->is_array() || mixes->size() != 6)
    return "expected exactly six mixes";
  for (const auto& m : mixes->items()) {
    const util::Json* name = m.find("name");
    if (name == nullptr || !name->is_string()) return "mix missing name";
    for (const char* key :
         {"wall_seconds", "jobs_submitted", "jobs_completed", "jobs_failed",
          "jobs_per_second", "steps_per_second", "max_concurrent_jobs",
          "preemptions", "retries", "utilization"})
      if (m.find(key) == nullptr || !m.find(key)->is_number())
        return name->as_string() + " missing numeric '" + key + "'";
    if (name->as_string() == "replicated_failover")
      for (const char* key : {"ram_restore_seconds", "disk_restore_seconds",
                              "ram_restores", "disk_restores"})
        if (m.find(key) == nullptr || !m.find(key)->is_number())
          return name->as_string() + " missing numeric '" + key + "'";
    if (name->as_string() == "bursty_elastic")
      for (const char* key :
           {"utilization_elastic_off", "utilization_elastic_on",
            "elastic_shrinks", "elastic_grows"})
        if (m.find(key) == nullptr || !m.find(key)->is_number())
          return name->as_string() + " missing numeric '" + key + "'";
    const util::Json* report = m.find("report");
    if (report == nullptr) return "mix missing embedded service report";
    const std::string problem = service::validate_report(*report);
    if (!problem.empty())
      return name->as_string() + " embedded report: " + problem;
  }
  const util::Json* trace = doc.find("trace");
  if (trace == nullptr || !trace->is_object())
    return "missing trace object";
  for (const char* key : {"path", "events", "span_coverage"})
    if (trace->find(key) == nullptr)
      return std::string("trace missing '") + key + "'";
  return {};
}

}  // namespace

int main(int argc, char** argv) {
  util::Config in = util::Config::from_args(argc, argv);
  const core::DycoreConfig cfg = base_config(in);
  const int slots = in.get_int("slots", 3);
  const int budget = in.get_int("budget", 4);
  const int uniform_jobs = in.get_int("jobs", 6);
  const int uniform_steps = in.get_int("steps", 6);
  const int long_steps = in.get_int("long_steps", 20);
  const std::string out_path = in.get_string("out", "BENCH_service.json");

  const std::string dir =
      (std::filesystem::temp_directory_path() / "ca_bench_service").string();
  std::filesystem::create_directories(dir);

  std::printf(
      "service bench: %dx%dx%d M=%d, %d slots, %d-rank budget\n\n",
      cfg.nx, cfg.ny, cfg.nz, cfg.M, slots, budget);

  service::ServiceOptions opt;
  opt.slots = slots;
  opt.rank_budget = budget;
  opt.queue_capacity = 64;
  opt.checkpoint_dir = dir;
  opt.obs.dump_dir = dir;  // flight dumps of the fault legs stay out of cwd

  bool ok = true;
  std::vector<MixOutcome> mixes;

  // --- mix 1: uniform -------------------------------------------------
  {
    MixOutcome mix;
    mix.name = "uniform";
    service::EnsembleService svc(opt);
    const auto start = Clock::now();
    std::vector<int> ids;
    for (int i = 0; i < uniform_jobs; ++i)
      ids.push_back(svc.submit(original_job(
          cfg, "uniform" + std::to_string(i), uniform_steps, {1, 2, 1}, 0)));
    svc.drain();
    mix.wall = seconds_since(start);
    summarize(mix, svc, ids);
    if (mix.completed != uniform_jobs) {
      std::fprintf(stderr, "FAIL: uniform completed %d/%d jobs\n",
                   mix.completed, uniform_jobs);
      mix.ok = false;
    }
    if (service_metric(mix, "max_concurrent_jobs") < 2.0) {
      std::fprintf(stderr,
                   "FAIL: uniform never had >= 2 jobs in flight\n");
      mix.ok = false;
    }
    mixes.push_back(std::move(mix));
  }

  // --- mix 2: bimodal (long preemptible + short high-priority) --------
  {
    MixOutcome mix;
    mix.name = "bimodal";
    service::JobSpec longj =
        original_job(cfg, "long", long_steps, {1, 2, 2}, 0);
    longj.checkpoint_every = 1;
    const state::State solo = solo_state(longj, dir + "/solo_long");

    service::EnsembleService svc(opt);
    const auto start = Clock::now();
    std::vector<int> ids;
    ids.push_back(svc.submit(longj));
    // Let the long job own the whole budget before the short stream
    // arrives, so the first high-priority submission must preempt it.
    if (!await_running(svc, ids.front())) {
      std::fprintf(stderr, "FAIL: bimodal long job never started\n");
      mix.ok = false;
    }
    for (int i = 0; i < 4; ++i)
      ids.push_back(svc.submit(
          original_job(cfg, "short" + std::to_string(i), 2, {1, 2, 1}, 10)));
    svc.drain();
    mix.wall = seconds_since(start);
    summarize(mix, svc, ids);

    const service::JobResult r = svc.result(ids.front());
    if (r.state != service::JobState::kCompleted) {
      std::fprintf(stderr, "FAIL: bimodal long job did not complete: %s\n",
                   r.error.c_str());
      mix.ok = false;
    } else {
      if (r.metrics.preemptions < 1) {
        std::fprintf(stderr,
                     "FAIL: bimodal long job was never preempted\n");
        mix.ok = false;
      }
      const double diff = state::State::max_abs_diff(r.final_state, solo,
                                                     solo.interior());
      if (diff != 0.0) {
        std::fprintf(stderr,
                     "FAIL: preempt/resume diverged (max |diff| = %g)\n",
                     diff);
        mix.ok = false;
      }
    }
    if (mix.completed != static_cast<int>(ids.size())) {
      std::fprintf(stderr, "FAIL: bimodal completed %d/%zu jobs\n",
                   mix.completed, ids.size());
      mix.ok = false;
    }
    mixes.push_back(std::move(mix));
  }

  // --- mix 3: fault_injected ------------------------------------------
  {
    MixOutcome mix;
    mix.name = "fault_injected";
    service::JobSpec transient =
        original_job(cfg, "transient", 2, {1, 2, 1}, 0);
    {
      comm::FaultPlan plan(kTransientSeed);
      comm::FaultRule r;
      r.kind = comm::FaultKind::kCorrupt;
      r.probability = 0.02;
      r.src = 0;
      r.dst = 1;
      plan.add_rule(r);
      transient.faults = plan;
    }
    transient.max_attempts = 3;
    transient.retry_backoff_seconds = 0.001;
    transient.comm.recv_timeout = std::chrono::milliseconds(400);
    const state::State solo = solo_state(transient, dir + "/solo_transient");

    service::JobSpec doomed = original_job(cfg, "doomed", 2, {1, 2, 1}, 0);
    {
      comm::FaultPlan plan(7u);
      comm::FaultRule r;
      r.kind = comm::FaultKind::kCorrupt;
      r.probability = 1.0;
      plan.add_rule(r);
      doomed.faults = plan;
    }
    doomed.max_attempts = 2;
    doomed.retry_backoff_seconds = 0.001;
    doomed.comm.recv_timeout = std::chrono::milliseconds(400);

    service::EnsembleService svc(opt);
    const auto start = Clock::now();
    std::vector<int> ids;
    ids.push_back(svc.submit(transient));
    ids.push_back(svc.submit(doomed));
    for (int i = 0; i < 2; ++i)
      ids.push_back(svc.submit(
          original_job(cfg, "clean" + std::to_string(i), 3, {1, 2, 1}, 0)));
    svc.drain();
    mix.wall = seconds_since(start);
    summarize(mix, svc, ids);

    const service::JobResult rt = svc.result(ids[0]);
    if (rt.state != service::JobState::kCompleted ||
        rt.metrics.attempts < 2 || rt.faults.injected_corrupt < 1) {
      std::fprintf(stderr,
                   "FAIL: transient job must complete via retry "
                   "(state=%s attempts=%d injected=%llu): %s\n",
                   service::to_string(rt.state), rt.metrics.attempts,
                   static_cast<unsigned long long>(
                       rt.faults.injected_corrupt),
                   rt.error.c_str());
      mix.ok = false;
    } else {
      const double diff = state::State::max_abs_diff(rt.final_state, solo,
                                                     solo.interior());
      if (diff != 0.0) {
        std::fprintf(stderr,
                     "FAIL: retried job diverged (max |diff| = %g)\n", diff);
        mix.ok = false;
      }
    }
    const service::JobResult rd = svc.result(ids[1]);
    if (rd.state != service::JobState::kFailed ||
        rd.metrics.attempts != doomed.max_attempts ||
        rd.faults.injected_corrupt < 1) {
      std::fprintf(stderr,
                   "FAIL: doomed job must exhaust its attempts and fail "
                   "(state=%s attempts=%d)\n",
                   service::to_string(rd.state), rd.metrics.attempts);
      mix.ok = false;
    }
    mixes.push_back(std::move(mix));
  }

  // --- mix 4: rank_failure --------------------------------------------
  {
    MixOutcome mix;
    mix.name = "rank_failure";
    service::JobSpec victim =
        original_job(cfg, "victim", 6, {1, 2, 1}, 0);
    victim.checkpoint_every = 1;
    {
      // Node-resident kill: pool rank 0 dies at the victim's second step
      // (a step-1 checkpoint exists by then).  The rule stays with the
      // NODE, so the recovery attempt on healthy ranks runs clean.
      comm::FaultRule r;
      r.kind = comm::FaultKind::kKillRank;
      r.src = 0;  // pool rank id
      r.step = 1;
      victim.node_faults.push_back(r);
    }
    victim.comm.recv_timeout = std::chrono::seconds(10);
    victim.comm.heartbeat_timeout = std::chrono::milliseconds(250);
    const state::State solo = solo_state(victim, dir + "/solo_victim");

    service::EnsembleService svc(opt);
    const auto start = Clock::now();
    std::vector<int> ids;
    ids.push_back(svc.submit(victim));
    // The victim must own pool ranks {0, 1} (lowest free ids) before the
    // bystanders arrive, so the kill rule lands on its assignment.
    if (!await_running(svc, ids.front())) {
      std::fprintf(stderr, "FAIL: rank_failure victim never started\n");
      mix.ok = false;
    }
    service::JobSpec bystander;
    bystander.core = service::CoreKind::kSerial;
    bystander.config = cfg;
    bystander.steps = 8;
    for (int i = 0; i < 2; ++i) {
      bystander.name = "bystander" + std::to_string(i);
      ids.push_back(svc.submit(bystander));
    }
    svc.drain();
    mix.wall = seconds_since(start);
    summarize(mix, svc, ids);

    const service::JobResult rv = svc.result(ids.front());
    if (rv.state != service::JobState::kCompleted ||
        rv.metrics.rank_recoveries < 1) {
      std::fprintf(stderr,
                   "FAIL: victim must recover from the rank kill "
                   "(state=%s recoveries=%d): %s\n",
                   service::to_string(rv.state),
                   rv.metrics.rank_recoveries, rv.error.c_str());
      mix.ok = false;
    } else {
      const double diff = state::State::max_abs_diff(rv.final_state, solo,
                                                     solo.interior());
      if (diff != 0.0) {
        std::fprintf(stderr,
                     "FAIL: rank-kill recovery diverged (max |diff| = %g)\n",
                     diff);
        mix.ok = false;
      }
    }
    if (mix.completed != static_cast<int>(ids.size())) {
      std::fprintf(stderr, "FAIL: rank_failure completed %d/%zu jobs\n",
                   mix.completed, ids.size());
      mix.ok = false;
    }
    // Scheduling must not pause for the recovery: the bystanders overlap
    // the victim's detection + re-queue window.
    if (service_metric(mix, "max_concurrent_jobs") < 2.0) {
      std::fprintf(stderr,
                   "FAIL: rank_failure never had >= 2 jobs in flight "
                   "during the kill/recovery\n");
      mix.ok = false;
    }
    const util::Json* health = mix.report.find("health");
    if (health == nullptr ||
        health->find("jobs_recovered")->as_double() < 1.0 ||
        health->find("quarantines")->as_double() < 1.0) {
      std::fprintf(stderr,
                   "FAIL: rank_failure report health lacks the "
                   "recovery evidence\n");
      mix.ok = false;
    }
    mixes.push_back(std::move(mix));
  }

  // --- mix 5: replicated_failover --------------------------------------
  {
    MixOutcome mix;
    mix.name = "replicated_failover";
    // This mix pins replication per leg; the CI replication leg's env
    // override would otherwise turn the disk leg into a second RAM leg.
    ::unsetenv("CA_AGCM_SERVICE_REPLICATE");
    ::unsetenv("CA_AGCM_SERVICE_DELTA_CHAIN");

    // The kill lands at step 5 with checkpoint_every=1 and a chain cap
    // of 4, so the on-disk state is a full base plus four deltas: the
    // disk resume pays five file reads plus chain reconstruction, while
    // the buddy holds the step-5 image ready in RAM.
    service::JobSpec victim =
        original_job(cfg, "victim_rep", 6, {1, 2, 1}, 0);
    victim.checkpoint_every = 1;
    {
      comm::FaultRule r;
      r.kind = comm::FaultKind::kKillRank;
      r.src = 0;  // pool rank id
      r.step = 5;
      victim.node_faults.push_back(r);
    }
    victim.comm.recv_timeout = std::chrono::seconds(10);
    victim.comm.heartbeat_timeout = std::chrono::milliseconds(250);
    const state::State solo = solo_state(victim, dir + "/solo_rep");

    // Service leg: the full kill -> watchdog -> quarantine -> resume
    // path, with the resume coming from buddy RAM.
    service::ServiceOptions ropt = opt;
    ropt.replicate = true;
    ropt.delta_chain = 4;
    service::EnsembleService svc(ropt);
    const auto start = Clock::now();
    std::vector<int> ids;
    ids.push_back(svc.submit(victim));
    svc.drain();
    mix.wall = seconds_since(start);
    summarize(mix, svc, ids);

    const service::JobResult rv = svc.result(ids.front());
    if (rv.state != service::JobState::kCompleted ||
        rv.metrics.rank_recoveries < 1 || rv.metrics.ram_restores < 1 ||
        rv.metrics.disk_restores != 0) {
      std::fprintf(stderr,
                   "FAIL: replicated victim must recover from buddy RAM "
                   "(state=%s recoveries=%d ram=%d disk=%d): %s\n",
                   service::to_string(rv.state), rv.metrics.rank_recoveries,
                   rv.metrics.ram_restores, rv.metrics.disk_restores,
                   rv.error.c_str());
      mix.ok = false;
    } else if (state::State::max_abs_diff(rv.final_state, solo,
                                          solo.interior()) != 0.0) {
      std::fprintf(stderr, "FAIL: buddy-RAM recovery diverged\n");
      mix.ok = false;
    }
    const util::Json* health = mix.report.find("health");
    if (health == nullptr ||
        health->find("replica_deposits")->as_double() < 1.0) {
      std::fprintf(stderr,
                   "FAIL: replicated_failover report shows no deposits\n");
      mix.ok = false;
    }

    // Latency twin at the runner level: one killed attempt populates
    // both the disk chain and the replica store, then the IDENTICAL
    // resume is timed from each source (min of 5, restore section only).
    // checkpoint_every=0 on the resumes keeps both sources frozen at the
    // step-5 image across repeats.  The twin runs a 2x-per-dim mesh so
    // the restore cost is dominated by checkpoint data, not fixed
    // per-attempt overhead.
    const std::string rdir = dir + "/failover_twin";
    std::filesystem::create_directories(rdir);
    core::DycoreConfig tcfg = cfg;
    tcfg.nx *= 2;
    tcfg.ny *= 2;
    tcfg.nz *= 2;
    service::JobSpec twin = victim;
    twin.name = "victim_twin";
    twin.config = tcfg;
    twin.node_faults.front().src = 0;  // identity map: job rank 0
    const state::State twin_solo = solo_state(twin, dir + "/solo_twin");
    service::ReplicaStore store;
    service::AttemptOptions o1;
    o1.attempt = 1;
    o1.checkpoint_prefix = rdir + "/job";
    o1.obs.dump_dir = dir;
    o1.replicas = &store;
    o1.delta_chain = 4;
    const service::AttemptResult a1 = service::run_attempt(twin, o1);
    if (a1.dead_rank != 0 || store.deposits() == 0u) {
      std::fprintf(stderr,
                   "FAIL: failover twin seed attempt (dead_rank=%d "
                   "deposits=%zu): %s\n",
                   a1.dead_rank, store.deposits(), a1.error.c_str());
      mix.ok = false;
    }
    store.invalidate_depositor(o1.checkpoint_prefix, 0);

    service::JobSpec clean = twin;
    clean.node_faults.clear();
    clean.checkpoint_every = 0;
    double ram_s = 0.0, disk_s = 0.0;
    for (const bool ram : {true, false}) {
      double best = 0.0;
      for (int rep = 0; rep < 5; ++rep) {
        util::reset_checkpoint_io();
        service::AttemptOptions o = o1;
        o.attempt = 2 + rep;
        o.start_step = 5;
        o.replicas = ram ? &store : nullptr;
        const service::AttemptResult a = service::run_attempt(clean, o);
        const auto want = ram ? service::RestoreSource::kRam
                              : service::RestoreSource::kDisk;
        if (!a.completed(clean.steps) || a.restored_from != want ||
            (ram ? util::checkpoint_io().files_read != 0u
                 : util::checkpoint_io().files_read == 0u)) {
          std::fprintf(stderr,
                       "FAIL: %s resume (completed=%d source=%d "
                       "files_read=%llu): %s\n",
                       ram ? "buddy-RAM" : "disk", a.completed(clean.steps),
                       static_cast<int>(a.restored_from),
                       static_cast<unsigned long long>(
                           util::checkpoint_io().files_read),
                       a.error.c_str());
          mix.ok = false;
          break;
        }
        if (state::State::max_abs_diff(a.global, twin_solo,
                                       twin_solo.interior()) != 0.0) {
          std::fprintf(stderr, "FAIL: %s resume diverged\n",
                       ram ? "buddy-RAM" : "disk");
          mix.ok = false;
          break;
        }
        best = rep == 0 ? a.restore_seconds
                        : std::min(best, a.restore_seconds);
      }
      (ram ? ram_s : disk_s) = best;
    }
    std::printf(
        "recovery latency: buddy RAM %.3f ms, disk chain %.3f ms "
        "(restore section, min of 5)\n",
        1e3 * ram_s, 1e3 * disk_s);
    if (mix.ok && ram_s >= disk_s)
      std::fprintf(stderr,
                   "note: buddy-RAM restore was not faster this run "
                   "(%.3f ms vs %.3f ms) — timing, not correctness\n",
                   1e3 * ram_s, 1e3 * disk_s);
    mix.extra.emplace_back("ram_restore_seconds", ram_s);
    mix.extra.emplace_back("disk_restore_seconds", disk_s);
    mix.extra.emplace_back("ram_restores",
                           static_cast<double>(rv.metrics.ram_restores));
    mix.extra.emplace_back("disk_restores",
                           static_cast<double>(rv.metrics.disk_restores));
    mixes.push_back(std::move(mix));
  }

  // --- mix 6: bursty_elastic -------------------------------------------
  {
    MixOutcome mix;
    mix.name = "bursty_elastic";
    // This mix pins elasticity per leg; the CI elastic leg's env override
    // would otherwise turn the baseline leg into a second elastic leg.
    ::unsetenv("CA_AGCM_SERVICE_ELASTIC");

    // A high-priority burst pins half the pool while a wide, preemptible,
    // checkpointing CA job waits for its full shape.  Without elasticity
    // the other half of the budget idles for the whole burst (the CA job
    // cannot preempt higher-priority work); with service.elastic=1 the
    // scheduler squeezes the CA job onto the idle ranks (yz_grid keeps
    // pz, so exact-mode CA stays bitwise through the reshard) and the
    // measured utilization must be strictly higher.
    service::JobSpec burst =
        original_job(cfg, "burst", long_steps, {1, 2, 1}, 10);
    service::JobSpec caj;
    caj.name = "ca_wide";
    caj.core = service::CoreKind::kCA;
    caj.config = cfg;
    caj.ca_options.fresh_c_on_block_face = false;   // exact mode: bitwise
    caj.ca_options.approximate_iteration = false;   // under the y split
    caj.dims = {1, 2, 2};
    caj.steps = 3;
    caj.priority = 0;
    caj.checkpoint_every = 1;
    const state::State solo = solo_state(caj, dir + "/solo_ca_wide");

    double util_off = 0.0, util_on = 0.0;
    std::uint64_t shrinks = 0, grows = 0;
    const auto start = Clock::now();
    for (const bool elastic : {false, true}) {
      service::ServiceOptions eopt = opt;
      eopt.elastic = elastic;
      service::EnsembleService svc(eopt);
      std::vector<int> ids;
      ids.push_back(svc.submit(burst));
      // The burst must hold its ranks before the wide job arrives, so
      // the baseline leg really strands the other half of the budget.
      if (!await_running(svc, ids.front())) {
        std::fprintf(stderr, "FAIL: bursty_elastic burst never started\n");
        mix.ok = false;
      }
      ids.push_back(svc.submit(caj));
      svc.drain();

      const service::JobResult rc = svc.result(ids.back());
      if (rc.state != service::JobState::kCompleted) {
        std::fprintf(stderr, "FAIL: bursty_elastic CA job (elastic=%d): %s\n",
                     elastic, rc.error.c_str());
        mix.ok = false;
      } else if (state::State::max_abs_diff(rc.final_state, solo,
                                            solo.interior()) != 0.0) {
        std::fprintf(stderr,
                     "FAIL: bursty_elastic CA job diverged (elastic=%d)\n",
                     elastic);
        mix.ok = false;
      }
      if (elastic) {
        mix.wall = seconds_since(start);
        summarize(mix, svc, ids);
        util_on = service_metric(mix, "utilization");
        const service::PoolCounters c = svc.counters();
        shrinks = c.elastic_shrinks;
        grows = c.elastic_grows;
      } else {
        const util::Json rep = svc.report();
        util_off =
            rep.find("service")->find("utilization")->as_double();
      }
    }
    if (shrinks < 1) {
      std::fprintf(stderr,
                   "FAIL: bursty_elastic never squeezed the wide job\n");
      mix.ok = false;
    }
    if (util_on <= util_off) {
      std::fprintf(stderr,
                   "FAIL: elasticity must raise utilization under the "
                   "burst (%.3f with, %.3f without)\n",
                   util_on, util_off);
      mix.ok = false;
    }
    std::printf(
        "bursty_elastic: utilization %.3f -> %.3f (%llu squeeze(s), "
        "%llu re-grow(s))\n",
        util_off, util_on, static_cast<unsigned long long>(shrinks),
        static_cast<unsigned long long>(grows));
    mix.extra.emplace_back("utilization_elastic_off", util_off);
    mix.extra.emplace_back("utilization_elastic_on", util_on);
    mix.extra.emplace_back("elastic_shrinks", static_cast<double>(shrinks));
    mix.extra.emplace_back("elastic_grows", static_cast<double>(grows));
    mixes.push_back(std::move(mix));
  }

  // --- traced failover: merged timeline + span-coverage gate -----------
  // Re-run the rank_failure scenario with obs.trace on and every rank's
  // ring flushing into one collector.  The merged Chrome trace must be
  // structurally valid, and on every rank timeline the union of the
  // spans INSIDE each "campaign" span (steps, exchanges, waits,
  // collectives, checkpoint writes) must cover >= 95% of the campaign's
  // wall-clock — untraced step time means the timeline lies about where
  // a failover run actually went.
  double span_coverage = 0.0;
  std::size_t trace_events = 0;
  const std::string trace_path =
      in.get_string("trace_out", "BENCH_service_trace.json");
  {
    obs::TraceCollector collector;
    service::ServiceOptions topt = opt;
    topt.obs.trace = true;
    topt.obs.ring_events = 1 << 14;
    topt.trace_sink = &collector;

    service::JobSpec victim =
        original_job(cfg, "victim_traced", 6, {1, 2, 1}, 0);
    victim.checkpoint_every = 1;
    {
      comm::FaultRule r;
      r.kind = comm::FaultKind::kKillRank;
      r.src = 0;  // pool rank id
      r.step = 1;
      victim.node_faults.push_back(r);
    }
    victim.comm.recv_timeout = std::chrono::seconds(10);
    victim.comm.heartbeat_timeout = std::chrono::milliseconds(250);

    {
      service::EnsembleService svc(topt);
      const int id = svc.submit(victim);
      svc.drain();
      if (svc.state(id) != service::JobState::kCompleted) {
        std::fprintf(stderr,
                     "FAIL: traced failover victim did not complete\n");
        ok = false;
      }
    }  // service dtor stops the pool, flushing the scheduler's ring

    trace_events = collector.event_count();
    const util::Json trace_doc = collector.chrome_trace();
    const std::string trace_problem = obs::validate_chrome_trace(trace_doc);
    if (!trace_problem.empty()) {
      std::fprintf(stderr, "FAIL: merged trace invalid: %s\n",
                   trace_problem.c_str());
      ok = false;
    }
    if (!collector.write(trace_path)) {
      std::fprintf(stderr, "FAIL: could not write %s\n", trace_path.c_str());
      ok = false;
    }

    // Interval-union coverage per (pid, tid) timeline, min over ranks.
    const util::Json* events = trace_doc.find("traceEvents");
    std::vector<std::pair<int, int>> lines;
    for (const auto& e : events->items()) {
      if (e.find("ph")->as_string() != "X") continue;
      const std::pair<int, int> key{
          static_cast<int>(e.find("pid")->as_double()),
          static_cast<int>(e.find("tid")->as_double())};
      if (std::find(lines.begin(), lines.end(), key) == lines.end())
        lines.push_back(key);
    }
    double min_cov = 1.0;
    bool any_campaign = false;
    for (const auto& [pid, tid] : lines) {
      std::vector<std::array<double, 2>> wins, spans;
      for (const auto& e : events->items()) {
        if (e.find("ph")->as_string() != "X") continue;
        if (static_cast<int>(e.find("pid")->as_double()) != pid ||
            static_cast<int>(e.find("tid")->as_double()) != tid)
          continue;
        const double ts = e.find("ts")->as_double();
        const double dur = e.find("dur")->as_double();
        if (e.find("name")->as_string() == "campaign")
          wins.push_back({ts, ts + dur});
        else
          spans.push_back({ts, ts + dur});
      }
      if (wins.empty()) continue;  // e.g. the scheduler's instant-only line
      any_campaign = true;
      double total = 0.0, covered = 0.0;
      for (const auto& w : wins) {
        total += w[1] - w[0];
        std::vector<std::array<double, 2>> clipped;
        for (const auto& s : spans) {
          const double b = std::max(s[0], w[0]);
          const double e2 = std::min(s[1], w[1]);
          if (e2 > b) clipped.push_back({b, e2});
        }
        std::sort(clipped.begin(), clipped.end());
        double cursor = w[0];
        for (const auto& c : clipped) {
          if (c[1] <= cursor) continue;
          covered += c[1] - std::max(c[0], cursor);
          cursor = c[1];
        }
      }
      if (total > 0.0) min_cov = std::min(min_cov, covered / total);
    }
    span_coverage = any_campaign ? min_cov : 0.0;
    std::printf(
        "\ntraced failover: %zu events -> %s, span coverage %.2f%% "
        "(min over rank timelines)\n",
        trace_events, trace_path.c_str(), 1e2 * span_coverage);
    if (!any_campaign || span_coverage < 0.95) {
      std::fprintf(stderr,
                   "FAIL: campaign span coverage %.2f%% (>= 95%% of step "
                   "wall-clock required)\n",
                   1e2 * span_coverage);
      ok = false;
    }
  }

  // --- emit ------------------------------------------------------------
  util::Json doc = util::Json::object();
  doc["schema"] = kSchema;
  util::Json mesh = util::Json::object();
  mesh["nx"] = cfg.nx;
  mesh["ny"] = cfg.ny;
  mesh["nz"] = cfg.nz;
  doc["mesh"] = std::move(mesh);
  doc["M"] = cfg.M;
  doc["slots"] = slots;
  doc["rank_budget"] = budget;
  util::Json arr = util::Json::array();

  std::printf("%-16s %10s %6s %6s %8s %8s %8s %8s\n", "mix", "wall[ms]",
              "done", "fail", "jobs/s", "steps/s", "preempt", "util");
  for (const MixOutcome& mix : mixes) {
    ok = ok && mix.ok;
    const double jps = mix.wall > 0.0 ? mix.completed / mix.wall : 0.0;
    const double sps = mix.wall > 0.0 ? mix.steps_done / mix.wall : 0.0;
    std::printf("%-16s %10.1f %6d %6d %8.2f %8.1f %8.0f %8.2f\n",
                mix.name.c_str(), 1e3 * mix.wall, mix.completed, mix.failed,
                jps, sps, service_metric(mix, "preemptions"),
                service_metric(mix, "utilization"));
    util::Json e = util::Json::object();
    e["name"] = mix.name;
    e["wall_seconds"] = mix.wall;
    e["jobs_submitted"] = mix.submitted;
    e["jobs_completed"] = mix.completed;
    e["jobs_failed"] = mix.failed;
    e["jobs_per_second"] = jps;
    e["steps_per_second"] = sps;
    e["max_concurrent_jobs"] = service_metric(mix, "max_concurrent_jobs");
    e["preemptions"] = service_metric(mix, "preemptions");
    e["retries"] = service_metric(mix, "retries");
    e["utilization"] = service_metric(mix, "utilization");
    for (const auto& [key, value] : mix.extra) e[key] = value;
    e["report"] = mix.report;
    arr.push_back(std::move(e));
  }
  doc["mixes"] = std::move(arr);
  {
    util::Json trace = util::Json::object();
    trace["path"] = trace_path;
    trace["events"] = static_cast<double>(trace_events);
    trace["span_coverage"] = span_coverage;
    doc["trace"] = std::move(trace);
  }

  {
    std::ofstream out(out_path);
    out << doc.dump(2) << "\n";
  }
  std::printf("\nwrote %s\n", out_path.c_str());

  // Self-check: the emitted file must re-parse, match the bench schema,
  // and every embedded service report must satisfy ITS schema too.
  std::ifstream fin(out_path);
  std::stringstream buf;
  buf << fin.rdbuf();
  try {
    const std::string problem = validate_bench(util::Json::parse(buf.str()));
    if (!problem.empty()) {
      std::fprintf(stderr, "FAIL: emitted JSON invalid: %s\n",
                   problem.c_str());
      ok = false;
    }
  } catch (const util::JsonError& e) {
    std::fprintf(stderr, "FAIL: emitted JSON does not parse: %s\n",
                 e.what());
    ok = false;
  }
  return ok ? 0 : 1;
}
