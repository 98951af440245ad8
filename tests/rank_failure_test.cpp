// Chaos suite, part 2 — process-level faults: a rank that dies outright
// (kill_rank) or goes silent (hang_rank) mid-campaign.  The comm layer
// must detect the loss within comm.heartbeat_timeout (not the much longer
// receive deadline), and the ensemble service must quarantine the faulty
// pool rank, re-queue the affected job, and finish it from its last
// checkpoint on healthy ranks — bit-for-bit identical to a fault-free run
// when the decomposition survives, within the documented cross-
// decomposition tolerance when the pool had to reshape it.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "comm/context.hpp"
#include "comm/error.hpp"
#include "comm/fault.hpp"
#include "comm/runtime.hpp"
#include "comm/topology.hpp"
#include "core/exchange.hpp"
#include "mesh/decomp.hpp"
#include "obs/trace.hpp"
#include "service/replica.hpp"
#include "service/runner.hpp"
#include "service/service.hpp"
#include "state/state.hpp"
#include "util/checkpoint.hpp"
#include "util/json.hpp"
#include "dump_dir.hpp"

namespace ca {
namespace {

using Clock = std::chrono::steady_clock;

/// This suite's flight-dump directory.
const std::string& dump_dir() {
  static const std::string dir = fresh_dump_dir("rank_failure");
  return dir;
}

double elapsed_seconds(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Watchdog latency bound: far above any heartbeat_timeout used below,
/// far below the 20 s receive deadline a failed watchdog would fall back
/// to.  Detecting at the receive deadline means the heartbeat is dead
/// code, and the test must say so.
constexpr double kDetectBound = 8.0;

comm::FaultRule step_rule(comm::FaultKind kind, int src, int step,
                          int param = 1) {
  comm::FaultRule r;
  r.kind = kind;
  r.src = src;
  r.step = step;
  r.param = param;
  return r;
}

// --- comm layer: detection latency and typed errors ------------------------

TEST(RankFailureComm, KilledRankPoisonsThePeersPromptly) {
  comm::FaultPlan plan(3);
  plan.add_rule(step_rule(comm::FaultKind::kKillRank, /*src=*/0, /*step=*/0));
  comm::RunOptions opts;
  opts.obs.dump_dir = dump_dir();
  opts.faults = &plan;
  opts.recv_timeout = std::chrono::seconds(20);
  opts.heartbeat_timeout = std::chrono::milliseconds(250);
  const auto start = Clock::now();
  EXPECT_THROW(
      comm::Runtime::run(2, opts,
                         [](comm::Context& ctx) {
                           const auto& w = ctx.world();
                           std::array<double, 4> buf{};
                           ctx.notify_step();  // rank 0 dies here
                           if (ctx.world_rank() == 0) {
                             buf.fill(1.0);
                             ctx.send_values<double>(w, 1, 6, buf);
                           } else {
                             ctx.recv_values<double>(w, 0, 6, buf);
                           }
                         }),
      comm::CommError);
  EXPECT_LT(elapsed_seconds(start), kDetectBound)
      << "the survivor waited out the receive deadline instead of the "
         "poison check";
  const auto s = plan.summary();
  EXPECT_EQ(s.injected_kill, 1u);
  EXPECT_GE(s.detected_peer_dead, 1u);
}

TEST(RankFailureComm, HungRankDetectedWithinHeartbeatTimeout) {
  comm::FaultPlan plan(5);
  // 4 s of silence: far past the 250 ms heartbeat, far short of the 20 s
  // receive deadline, so the measured detection latency tells them apart.
  plan.add_rule(step_rule(comm::FaultKind::kHangRank, /*src=*/0, /*step=*/0,
                          /*param=*/4000));
  comm::RunOptions opts;
  opts.obs.dump_dir = dump_dir();
  opts.faults = &plan;
  opts.recv_timeout = std::chrono::seconds(20);
  opts.heartbeat_timeout = std::chrono::milliseconds(250);
  const auto start = Clock::now();
  EXPECT_THROW(
      comm::Runtime::run(2, opts,
                         [](comm::Context& ctx) {
                           const auto& w = ctx.world();
                           std::array<double, 4> buf{};
                           ctx.notify_step();  // rank 0 goes silent here
                           if (ctx.world_rank() == 0) {
                             buf.fill(1.0);
                             ctx.send_values<double>(w, 1, 6, buf);
                           } else {
                             ctx.recv_values<double>(w, 0, 6, buf);
                           }
                         }),
      comm::PeerDeadError);
  // The run's wall time includes the hung rank sleeping out its 4 s (the
  // runtime joins every rank), but must stay far below the 20 s receive
  // deadline the survivor would otherwise burn.
  EXPECT_LT(elapsed_seconds(start), kDetectBound);
  const auto s = plan.summary();
  EXPECT_EQ(s.injected_hang, 1u);
  EXPECT_GE(s.detected_peer_dead, 1u)
      << "the hang was never flagged by the heartbeat watchdog";
}

TEST(RankFailureComm, KilledRankUnwindsInFlightAsyncPosts) {
  // kill_rank fires while the victim's async halo posts are in flight:
  // the survivor must unwind out of finish() with the typed error within
  // the heartbeat window, not block on the never-arriving faces until
  // the receive deadline.
  comm::FaultPlan plan(11);
  plan.add_rule(step_rule(comm::FaultKind::kKillRank, /*src=*/0, /*step=*/1));
  comm::RunOptions opts;
  opts.obs.dump_dir = dump_dir();
  opts.faults = &plan;
  opts.recv_timeout = std::chrono::seconds(20);
  opts.heartbeat_timeout = std::chrono::milliseconds(250);
  const auto start = Clock::now();
  EXPECT_THROW(
      comm::Runtime::run(2, opts,
                         [](comm::Context& ctx) {
                           mesh::LatLonMesh mesh(12, 12, 4);
                           auto topo =
                               comm::make_cart(ctx, ctx.world(), {1, 2, 1},
                                               {true, false, false});
                           mesh::DomainDecomp d(mesh, {1, 2, 1}, topo.coords);
                           util::Array3D<double> f(d.lnx(), d.lny(), d.lnz(),
                                                   util::Halo3{2, 2, 1});
                           f.fill(1.0);
                           core::HaloExchanger ex(ctx, topo);
                           std::vector<core::ExchangeItem> items{
                               {&f, nullptr, 0, 2, 1}};
                           for (int step = 0; step < 3; ++step) {
                             ex.begin(items);
                             ctx.notify_step();  // rank 0 dies at step 1,
                                                 // posts still in flight
                             ex.finish();
                           }
                         }),
      comm::CommError);
  EXPECT_LT(elapsed_seconds(start), kDetectBound)
      << "finish() blocked on the dead rank's faces instead of the "
         "heartbeat unwinding it";
  const auto s = plan.summary();
  EXPECT_EQ(s.injected_kill, 1u);
  EXPECT_GE(s.detected_peer_dead, 1u);
}

TEST(RankFailureComm, KilledRankLeavesPerRankFlightDumps) {
  // The flight recorder: when a rank dies mid-run, every rank's last
  // events must land in obs_dump_rank<r>.json — the victim's dump ends at
  // its injected kill, the survivor's records the detection.
  const std::string dir = (std::filesystem::temp_directory_path() /
                           "ca_agcm_flight_kill")
                              .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  comm::FaultPlan plan(3);
  plan.add_rule(step_rule(comm::FaultKind::kKillRank, /*src=*/0, /*step=*/1));
  comm::RunOptions opts;
  opts.faults = &plan;
  opts.recv_timeout = std::chrono::seconds(20);
  opts.heartbeat_timeout = std::chrono::milliseconds(250);
  opts.obs.dump_on_failure = true;
  opts.obs.dump_dir = dir;
  EXPECT_THROW(
      comm::Runtime::run(2, opts,
                         [](comm::Context& ctx) {
                           const auto& w = ctx.world();
                           std::array<double, 4> buf{};
                           for (int step = 0; step < 3; ++step) {
                             ctx.notify_step();  // rank 0 dies at step 1
                             if (ctx.world_rank() == 0) {
                               buf.fill(1.0);
                               ctx.send_values<double>(w, 1, 6, buf);
                             } else {
                               ctx.recv_values<double>(w, 0, 6, buf);
                             }
                           }
                         }),
      comm::CommError);
  for (int r = 0; r < 2; ++r) {
    const std::string path =
        dir + "/obs_dump_rank" + std::to_string(r) + ".json";
    ASSERT_TRUE(std::filesystem::exists(path))
        << "rank " << r << " left no flight dump";
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    const util::Json doc = util::Json::parse(ss.str());
    EXPECT_EQ(doc.find("schema")->as_string(), "ca-agcm/obs-flight/v1");
    EXPECT_EQ(doc.find("rank")->as_double(), static_cast<double>(r));
    EXPECT_FALSE(doc.find("reason")->as_string().empty());
    ASSERT_FALSE(doc.find("events")->items().empty())
        << "rank " << r << "'s dump has no events";
  }
  // The victim's last recorded events are its heartbeats up to the kill;
  // the survivor's dump names the dead peer.
  std::ifstream in0(dir + "/obs_dump_rank0.json");
  std::stringstream ss0;
  ss0 << in0.rdbuf();
  const util::Json d0 = util::Json::parse(ss0.str());
  bool victim_beat = false;
  for (const util::Json& ev : d0.find("events")->items())
    victim_beat |= ev.find("name")->as_string() == "heartbeat";
  EXPECT_TRUE(victim_beat) << "victim dump lacks its pre-kill heartbeats";
  std::ifstream in1(dir + "/obs_dump_rank1.json");
  std::stringstream ss1;
  ss1 << in1.rdbuf();
  const util::Json d1 = util::Json::parse(ss1.str());
  bool peer_dead = false;
  for (const util::Json& ev : d1.find("events")->items())
    peer_dead |= ev.find("name")->as_string() == "peer_dead";
  EXPECT_TRUE(peer_dead) << "survivor dump lacks the peer_dead detection";
  std::filesystem::remove_all(dir);
}

TEST(RankFailureComm, StepFaultFiresOnlyAtItsStep) {
  comm::FaultPlan plan(7);
  plan.add_rule(step_rule(comm::FaultKind::kKillRank, /*src=*/1, /*step=*/3));
  for (std::uint64_t step = 0; step < 6; ++step) {
    EXPECT_EQ(plan.step_fault(1, step).kill, step == 3);
    EXPECT_FALSE(plan.step_fault(0, step).any())
        << "rule scoped to rank 1 fired on rank 0";
  }
  EXPECT_EQ(plan.summary().injected_kill, 1u);
}

TEST(RankFailureComm, HangRuleRollsPerStepWithItsMilliseconds) {
  // A hang rule without a fixed step rolls its probability at every step
  // boundary of its scoped rank and hangs for `param` milliseconds.
  comm::FaultPlan plan(7);
  comm::FaultRule hang = step_rule(comm::FaultKind::kHangRank, /*src=*/1,
                                   /*step=*/-1, /*param=*/123);
  hang.probability = 0.5;
  plan.add_rule(hang);
  int fired = 0;
  for (std::uint64_t step = 0; step < 200; ++step) {
    const comm::FaultPlan::StepFault f = plan.step_fault(1, step);
    EXPECT_FALSE(f.kill);
    if (f.hang_ms > 0) {
      EXPECT_EQ(f.hang_ms, 123);
      ++fired;
    }
    EXPECT_FALSE(plan.step_fault(0, step).any())
        << "rule scoped to rank 1 fired on rank 0";
  }
  EXPECT_GT(fired, 50);
  EXPECT_LT(fired, 150);
  EXPECT_EQ(plan.summary().injected_hang, static_cast<std::uint64_t>(fired));
}

TEST(RankFailureComm, HeartbeatWatchdogIsOffByDefault) {
  EXPECT_EQ(comm::RunOptions{}.heartbeat_timeout,
            std::chrono::milliseconds(0))
      << "the watchdog must stay off by default";
}

// --- service layer: quarantine + checkpoint recovery -----------------------

namespace svc = ca::service;

core::DycoreConfig small_config() {
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

std::string temp_dir(const std::string& tag) {
  const auto p =
      std::filesystem::temp_directory_path() / ("ca_rank_failure_" + tag);
  std::filesystem::remove_all(p);
  std::filesystem::create_directories(p);
  return p.string();
}

state::State solo_run(svc::JobSpec spec, const std::string& prefix) {
  spec.faults = comm::FaultPlan();
  spec.node_faults.clear();
  spec.checkpoint_every = 0;
  spec.comm = comm::RunOptions{};
  svc::AttemptOptions o;
  o.obs.dump_dir = dump_dir();
  o.checkpoint_prefix = prefix;
  svc::AttemptResult r = svc::run_attempt(spec, o);
  EXPECT_TRUE(r.completed(spec.steps))
      << "solo reference for '" << spec.name << "' failed: " << r.error;
  return std::move(r.global);
}

/// A preemptible 4-step job with a node-resident fault on POOL rank 0,
/// fired at attempt-local step 1 — after the first step's checkpoint, so
/// recovery genuinely resumes instead of recomputing.
svc::JobSpec faulted_spec(const std::string& name, svc::CoreKind core,
                          std::array<int, 3> dims, comm::FaultKind kind,
                          int hang_ms = 1500) {
  svc::JobSpec s;
  s.name = name;
  s.core = core;
  s.config = small_config();
  s.dims = dims;
  s.steps = 4;
  s.checkpoint_every = 1;
  s.node_faults.push_back(step_rule(
      kind, /*src=*/0, /*step=*/1,
      kind == comm::FaultKind::kHangRank ? hang_ms : 1));
  s.comm.recv_timeout = std::chrono::seconds(20);
  s.comm.heartbeat_timeout = std::chrono::milliseconds(250);
  return s;
}

struct CoreCase {
  const char* tag;
  svc::CoreKind core;
  std::array<int, 3> dims;
};

const CoreCase kCoreCases[] = {
    {"serial", svc::CoreKind::kSerial, {1, 1, 1}},
    {"original", svc::CoreKind::kOriginal, {1, 2, 1}},
    {"ca", svc::CoreKind::kCA, {1, 2, 1}},
};

TEST(RankFailureService, KillRecoversBitwiseUnderEveryCore) {
  for (const CoreCase& c : kCoreCases) {
    SCOPED_TRACE(c.tag);
    const std::string dir = temp_dir(std::string("kill_") + c.tag);
    const svc::JobSpec spec =
        faulted_spec(c.tag, c.core, c.dims, comm::FaultKind::kKillRank);
    const state::State reference = solo_run(spec, dir + "/solo");

    svc::ServiceOptions opt;
    opt.obs.dump_dir = dump_dir();
    opt.slots = 2;
    opt.rank_budget = 4;
    opt.checkpoint_dir = dir;
    // Keep the struck rank benched for the whole test so the retry is
    // deterministically placed on healthy ranks (the node fault drops).
    opt.quarantine_seconds = 60.0;
    svc::EnsembleService service(opt);
    const int id = service.submit(spec);
    service.wait(id);

    const svc::JobResult r = service.result(id);
    ASSERT_EQ(r.state, svc::JobState::kCompleted) << r.error;
    EXPECT_GE(r.metrics.rank_recoveries, 1)
        << "the kill never fired; the scenario is vacuous";
    EXPECT_EQ(r.metrics.attempts, 1)
        << "a rank death must not burn the job's attempt budget";
    EXPECT_GE(r.faults.injected_kill, 1u);
    const double diff = state::State::max_abs_diff(
        r.final_state, reference, reference.interior());
    EXPECT_EQ(diff, 0.0)
        << "checkpoint recovery diverged from the fault-free run";

    const util::Json report = service.report();
    EXPECT_EQ(svc::validate_report(report), "");
    const util::Json* health = report.find("health");
    ASSERT_NE(health, nullptr);
    EXPECT_GE(health->find("quarantines")->as_double(), 1.0);
    EXPECT_GE(health->find("jobs_recovered")->as_double(), 1.0);
    EXPECT_GT(health->find("degraded_rank_seconds")->as_double(), 0.0);
    // Cross-section consistency: the pool total is the sum of the per-job
    // counts, not a second tally.
    double job_recoveries = 0.0;
    for (const util::Json& e : report.find("jobs")->items())
      job_recoveries += e.find("rank_recoveries")->as_double();
    EXPECT_EQ(health->find("jobs_recovered")->as_double(), job_recoveries);
  }
}

TEST(RankFailureService, HangRecoversBitwiseUnderEveryCore) {
  for (const CoreCase& c : kCoreCases) {
    SCOPED_TRACE(c.tag);
    const std::string dir = temp_dir(std::string("hang_") + c.tag);
    const svc::JobSpec spec =
        faulted_spec(c.tag, c.core, c.dims, comm::FaultKind::kHangRank);
    const state::State reference = solo_run(spec, dir + "/solo");

    svc::ServiceOptions opt;
    opt.obs.dump_dir = dump_dir();
    opt.slots = 2;
    opt.rank_budget = 4;
    opt.checkpoint_dir = dir;
    opt.quarantine_seconds = 60.0;
    svc::EnsembleService service(opt);
    const int id = service.submit(spec);
    service.wait(id);

    const svc::JobResult r = service.result(id);
    ASSERT_EQ(r.state, svc::JobState::kCompleted) << r.error;
    EXPECT_GE(r.faults.injected_hang, 1u);
    if (c.core == svc::CoreKind::kSerial) {
      // A serial job has no peers to starve: the hang is just a slow
      // step, tolerated without any recovery machinery.
      EXPECT_EQ(r.metrics.rank_recoveries, 0);
    } else {
      EXPECT_GE(r.metrics.rank_recoveries, 1)
          << "the hang was never detected; the scenario is vacuous";
      EXPECT_GE(r.faults.detected_peer_dead, 1u);
    }
    const double diff = state::State::max_abs_diff(
        r.final_state, reference, reference.interior());
    EXPECT_EQ(diff, 0.0)
        << "hang recovery diverged from the fault-free run";
    EXPECT_EQ(svc::validate_report(service.report()), "");
  }
}

/// A 3-slot, 4-rank pool, and a 6-step original-core victim that loses
/// pool rank 0 at step 1.
svc::ServiceOptions pool_options(const std::string& dir) {
  svc::ServiceOptions opt;
  opt.obs.dump_dir = dump_dir();
  opt.slots = 3;
  opt.rank_budget = 4;
  opt.queue_capacity = 64;
  opt.checkpoint_dir = dir;
  return opt;
}

svc::JobSpec pool_victim(const std::string& name) {
  svc::JobSpec s = faulted_spec(name, svc::CoreKind::kOriginal, {1, 2, 1},
                                comm::FaultKind::kKillRank);
  s.steps = 6;
  return s;
}

TEST(RankFailureService, KillRecoveryKeepsTwoJobsInFlight) {
  // Scheduling must not pause for a recovery: two serial bystanders
  // overlap the victim's detection and re-queue window.
  const std::string dir = temp_dir("bystanders");
  const svc::JobSpec victim = pool_victim("victim");
  const state::State reference = solo_run(victim, dir + "/solo");

  svc::EnsembleService service(pool_options(dir));
  std::vector<int> ids{service.submit(victim)};
  // The victim must own pool ranks {0, 1} (the lowest free ids) before
  // the bystanders arrive, so the kill lands on its assignment.
  const auto start = Clock::now();
  while (service.state(ids.front()) == svc::JobState::kQueued) {
    ASSERT_LT(elapsed_seconds(start), 30.0) << "the victim never started";
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  svc::JobSpec bystander;
  bystander.core = svc::CoreKind::kSerial;
  bystander.config = small_config();
  bystander.steps = 8;
  for (int i = 0; i < 2; ++i) {
    bystander.name = "bystander" + std::to_string(i);
    ids.push_back(service.submit(bystander));
  }
  service.drain();

  const svc::JobResult r = service.result(ids.front());
  ASSERT_EQ(r.state, svc::JobState::kCompleted) << r.error;
  EXPECT_GE(r.metrics.rank_recoveries, 1)
      << "the kill never fired; the scenario is vacuous";
  EXPECT_EQ(state::State::max_abs_diff(r.final_state, reference,
                                       reference.interior()),
            0.0)
      << "rank-kill recovery diverged from the fault-free run";
  for (int id : ids)
    EXPECT_EQ(service.state(id), svc::JobState::kCompleted) << "job " << id;
  const util::Json report = service.report();
  EXPECT_EQ(svc::validate_report(report), "");
  EXPECT_GE(report.find("service")->find("max_concurrent_jobs")->as_double(),
            2.0)
      << "fewer than 2 jobs were ever in flight around the recovery";
}

/// Per (pid, tid) timeline of a Chrome trace, the fraction of each
/// "campaign" span's wall that the union of the other complete spans
/// covers; the minimum over timelines, or -1 when none has a campaign.
double min_campaign_coverage(const util::Json& trace) {
  struct Span {
    double begin, end;
    bool campaign;
  };
  std::map<std::pair<int, int>, std::vector<Span>> lines;
  for (const auto& e : trace.find("traceEvents")->items()) {
    if (e.find("ph")->as_string() != "X") continue;
    const double ts = e.find("ts")->as_double();
    lines[{static_cast<int>(e.find("pid")->as_double()),
           static_cast<int>(e.find("tid")->as_double())}]
        .push_back({ts, ts + e.find("dur")->as_double(),
                    e.find("name")->as_string() == "campaign"});
  }
  double min_cov = -1.0;
  for (const auto& [line, spans] : lines) {
    double total = 0.0, covered = 0.0;
    for (const Span& w : spans) {
      if (!w.campaign) continue;
      total += w.end - w.begin;
      std::vector<std::pair<double, double>> clipped;
      for (const Span& s : spans) {
        const double b = std::max(s.begin, w.begin);
        const double e = std::min(s.end, w.end);
        if (!s.campaign && e > b) clipped.emplace_back(b, e);
      }
      std::sort(clipped.begin(), clipped.end());
      double cursor = w.begin;
      for (const auto& [b, e] : clipped) {
        if (e <= cursor) continue;
        covered += e - std::max(b, cursor);
        cursor = e;
      }
    }
    if (total > 0.0)
      min_cov = min_cov < 0.0 ? covered / total
                              : std::min(min_cov, covered / total);
  }
  return min_cov;
}

TEST(RankFailureService, TracedFailoverSpansCoverEveryCampaign) {
  // With tracing on, the merged Chrome trace of a rank-kill failover must
  // validate, and on every rank's timeline the spans inside each
  // "campaign" span (steps, exchanges, waits, collectives, checkpoint
  // writes) must cover >= 95% of its wall: untraced time means the
  // timeline lies about where the failover went.
  const std::string dir = temp_dir("traced_failover");
  obs::TraceCollector collector;
  svc::ServiceOptions opt = pool_options(dir);
  opt.obs.trace = true;
  opt.obs.ring_events = 1 << 14;
  opt.trace_sink = &collector;
  {
    svc::EnsembleService service(opt);
    const int id = service.submit(pool_victim("victim_traced"));
    service.drain();
    const svc::JobResult r = service.result(id);
    ASSERT_EQ(r.state, svc::JobState::kCompleted) << r.error;
    EXPECT_GE(r.metrics.rank_recoveries, 1)
        << "the kill never fired; the scenario is vacuous";
  }  // the service's destructor flushes the scheduler's ring

  const util::Json trace = collector.chrome_trace();
  EXPECT_EQ(obs::validate_chrome_trace(trace), "");
  const double coverage = min_campaign_coverage(trace);
  EXPECT_GE(coverage, 0.95)
      << "campaign span coverage " << coverage
      << " (-1: no rank timeline has a campaign span)";
}

TEST(RankFailureService, CircuitBreakerRetiresAndReshapesTheJob) {
  // Budget 2, one strike allowed: the kill retires pool rank 0 outright,
  // the 2-rank job no longer fits the 1 usable rank, and the pool must
  // re-factorize it to {1,1,1} (original core: plain field state, legal
  // to reshard) and finish it there.  Cross-decomposition runs of the
  // original core agree to ~1e-8, not bitwise — assert that tolerance.
  const std::string dir = temp_dir("reshape");
  svc::JobSpec spec = faulted_spec("reshape", svc::CoreKind::kOriginal,
                                   {1, 2, 1}, comm::FaultKind::kKillRank);
  const state::State reference = solo_run(spec, dir + "/solo");

  svc::ServiceOptions opt;
  opt.obs.dump_dir = dump_dir();
  opt.slots = 1;
  opt.rank_budget = 2;
  opt.checkpoint_dir = dir;
  opt.max_rank_strikes = 1;
  svc::EnsembleService service(opt);
  const int id = service.submit(spec);
  service.wait(id);

  const svc::JobResult r = service.result(id);
  ASSERT_EQ(r.state, svc::JobState::kCompleted) << r.error;
  EXPECT_GE(r.metrics.rank_recoveries, 1);
  const double diff = state::State::max_abs_diff(r.final_state, reference,
                                                 reference.interior());
  EXPECT_LT(diff, 1e-8) << "reshaped resume diverged beyond the "
                           "cross-decomposition tolerance";

  EXPECT_EQ(service.counters().ranks_retired, 1);
  const util::Json report = service.report();
  EXPECT_EQ(svc::validate_report(report), "");
  bool saw_retired = false;
  for (const auto& rank :
       report.find("health")->find("ranks")->items())
    saw_retired |= rank.find("status")->as_string() == "retired";
  EXPECT_TRUE(saw_retired);
  const util::Json* job = &report.find("jobs")->items()[0];
  const auto& active = job->find("active_dims")->items();
  ASSERT_EQ(active.size(), 3u);
  EXPECT_EQ(active[0].as_double() * active[1].as_double() *
                active[2].as_double(),
            1.0)
      << "the job was not reshaped onto the single surviving rank";
}

/// Exact-mode CA switches: block-wide fresh C and no stale-C reuse keep
/// the trajectory bitwise invariant to the y split, so a py-changing
/// reshard must resume bit-for-bit against any same-pz reference.
core::CAOptions exact_ca_options() {
  core::CAOptions o;
  o.fresh_c_on_block_face = false;
  o.approximate_iteration = false;
  return o;
}

TEST(RankFailureService, CAJobReshardsOntoTheSurvivorsBitwise) {
  // The degraded pool that used to fail CA jobs loudly: the kill retires
  // pool rank 0, the 2-rank CA job no longer fits the 1 usable rank, and
  // the pool reshards its checkpoint set — cross-step carry included —
  // onto {1,1,1}.  In exact mode the y split is bitwise transparent, so
  // the resumed job must finish bit-for-bit against the uninterrupted
  // reference, without burning an attempt.
  const std::string dir = temp_dir("ca_degraded");
  svc::JobSpec spec = faulted_spec("ca_degraded", svc::CoreKind::kCA,
                                   {1, 2, 1}, comm::FaultKind::kKillRank);
  spec.ca_options = exact_ca_options();
  const state::State reference = solo_run(spec, dir + "/solo");
  ASSERT_GT(reference.interior().volume(), 0);

  svc::ServiceOptions opt;
  opt.obs.dump_dir = dump_dir();
  opt.slots = 1;
  opt.rank_budget = 2;
  opt.checkpoint_dir = dir;
  opt.max_rank_strikes = 1;
  svc::EnsembleService service(opt);
  const int id = service.submit(spec);
  service.wait(id);

  const svc::JobResult r = service.result(id);
  ASSERT_EQ(r.state, svc::JobState::kCompleted) << r.error;
  EXPECT_GE(r.metrics.rank_recoveries, 1)
      << "the kill never fired; the scenario is vacuous";
  EXPECT_EQ(r.metrics.attempts, 1)
      << "a degraded-pool reshard must not burn the job's attempt budget";
  const double diff = state::State::max_abs_diff(r.final_state, reference,
                                                 reference.interior());
  EXPECT_EQ(diff, 0.0)
      << "the resharded CA resume diverged from the uninterrupted run";

  EXPECT_EQ(service.counters().ranks_retired, 1);
  const util::Json report = service.report();
  EXPECT_EQ(svc::validate_report(report), "");
  const auto& active = report.find("jobs")->items()[0].find("active_dims")
                           ->items();
  ASSERT_EQ(active.size(), 3u);
  EXPECT_EQ(active[0].as_double() * active[1].as_double() *
                active[2].as_double(),
            1.0)
      << "the CA job was not reshaped onto the single surviving rank";
}

TEST(RankFailureService, ReshapeInvalidatesStaleShapedReplicas) {
  // Replicas deposited under the old decomposition are useless after a
  // reshape — a RAM-first restore must not fetch a stale-shaped image.
  // With replication on, the same degraded-pool scenario must drop the
  // {1,2,1}-shaped copies when the job reshapes to {1,1,1} and restore
  // from the resharded on-disk set instead, still bit-for-bit.
  const std::string dir = temp_dir("ca_replica_reshape");
  svc::JobSpec spec = faulted_spec("ca_replica_reshape", svc::CoreKind::kCA,
                                   {1, 2, 1}, comm::FaultKind::kKillRank);
  spec.ca_options = exact_ca_options();
  const state::State reference = solo_run(spec, dir + "/solo");

  svc::ServiceOptions opt;
  opt.obs.dump_dir = dump_dir();
  opt.slots = 1;
  opt.rank_budget = 2;
  opt.checkpoint_dir = dir;
  opt.max_rank_strikes = 1;  // the kill retires pool rank 0 -> reshape
  opt.replicate = true;
  svc::EnsembleService service(opt);
  const int id = service.submit(spec);
  service.wait(id);

  const svc::JobResult r = service.result(id);
  ASSERT_EQ(r.state, svc::JobState::kCompleted) << r.error;
  EXPECT_GE(r.metrics.rank_recoveries, 1);
  EXPECT_EQ(r.metrics.ram_restores, 0)
      << "a stale-shaped RAM replica was fetched after the reshape";
  EXPECT_GE(r.metrics.disk_restores, 1)
      << "the resumed attempt never restored from the resharded set";
  const double diff = state::State::max_abs_diff(r.final_state, reference,
                                                 reference.interior());
  EXPECT_EQ(diff, 0.0)
      << "the post-reshape disk restore diverged from the uninterrupted run";
  EXPECT_EQ(svc::validate_report(service.report()), "");
}

// --- in-memory buddy replication -------------------------------------------

TEST(RankFailureService, ReplicatedKillRecoversFromBuddyRamWithoutDisk) {
  // The tentpole acceptance scenario: with replication on, a killed
  // rank's job resumes bit-for-bit from the surviving buddy's RAM copy —
  // the victim's own image survives as the copy it streamed to rank
  // (victim+1) % n every cadence — and the restore touches NO checkpoint
  // file.  The I/O counters prove the "zero disk reads" claim instead of
  // trusting the provenance enum alone.
  for (const CoreCase& c : kCoreCases) {
    if (c.core == svc::CoreKind::kSerial) continue;  // no peers to kill
    SCOPED_TRACE(c.tag);
    const std::string dir = temp_dir(std::string("replica_") + c.tag);
    const svc::JobSpec spec =
        faulted_spec(c.tag, c.core, c.dims, comm::FaultKind::kKillRank);
    const state::State reference = solo_run(spec, dir + "/solo");

    svc::ServiceOptions opt;
    opt.obs.dump_dir = dump_dir();
    opt.slots = 2;
    opt.rank_budget = 4;
    opt.checkpoint_dir = dir;
    opt.quarantine_seconds = 60.0;
    opt.replicate = true;
    opt.delta_chain = 4;  // delta chains and replication compose
    svc::EnsembleService service(opt);

    util::reset_checkpoint_io();
    const int id = service.submit(spec);
    service.wait(id);

    const svc::JobResult r = service.result(id);
    ASSERT_EQ(r.state, svc::JobState::kCompleted) << r.error;
    EXPECT_GE(r.metrics.rank_recoveries, 1)
        << "the kill never fired; the scenario is vacuous";
    EXPECT_GE(r.metrics.ram_restores, 1)
        << "recovery fell back to disk despite a complete RAM set";
    EXPECT_EQ(r.metrics.disk_restores, 0);
    EXPECT_EQ(util::checkpoint_io().files_read, 0u)
        << "a RAM restore must not read any checkpoint file";
    EXPECT_GT(r.metrics.restore_seconds, 0.0);
    const double diff = state::State::max_abs_diff(
        r.final_state, reference, reference.interior());
    EXPECT_EQ(diff, 0.0)
        << "RAM recovery diverged from the fault-free run";

    const util::Json report = service.report();
    EXPECT_EQ(svc::validate_report(report), "");
    const util::Json* health = report.find("health");
    ASSERT_NE(health, nullptr);
    EXPECT_GT(health->find("replica_deposits")->as_double(), 0.0);
    const util::Json* job = &report.find("jobs")->items()[0];
    EXPECT_GE(job->find("ram_restores")->as_double(), 1.0);
  }
}

TEST(RankFailureService, CorruptReplicasFallBackToDiskBitwise) {
  // Runner-level twin with deterministic control of the replica store:
  // first the RAM path (provenance kRam, zero file reads), then — after
  // poisoning every stored copy — the identical resume must detect the
  // CRC mismatch, fall back to the on-disk chain (provenance kDisk), and
  // still finish bit-for-bit.
  const std::string dir = temp_dir("replica_fallback");
  svc::JobSpec spec = faulted_spec("replica_fallback", svc::CoreKind::kCA,
                                   {1, 2, 1}, comm::FaultKind::kKillRank);
  const state::State reference = solo_run(spec, dir + "/solo");

  svc::ReplicaStore store;
  svc::AttemptOptions o1;
  o1.obs.dump_dir = dump_dir();
  o1.attempt = 1;
  o1.checkpoint_prefix = dir + "/job";
  o1.replicas = &store;
  o1.delta_chain = 4;
  const svc::AttemptResult a1 = svc::run_attempt(spec, o1);
  ASSERT_EQ(a1.dead_rank, 0) << a1.error;
  ASSERT_GT(store.deposits(), 0u) << "no cadence ever replicated";
  // What the pool does on a dead rank: its RAM is gone.
  store.invalidate_depositor(o1.checkpoint_prefix, 0);

  svc::JobSpec clean = spec;
  clean.node_faults.clear();

  // RAM path first.
  util::reset_checkpoint_io();
  svc::AttemptOptions o2 = o1;
  o2.attempt = 2;
  o2.start_step = 1;
  const svc::AttemptResult a2 = svc::run_attempt(clean, o2);
  ASSERT_TRUE(a2.completed(spec.steps)) << a2.error;
  EXPECT_EQ(a2.restored_from, svc::RestoreSource::kRam);
  EXPECT_EQ(util::checkpoint_io().files_read, 0u);
  EXPECT_EQ(state::State::max_abs_diff(a2.global, reference,
                                       reference.interior()),
            0.0);

  // Re-kill nothing, but poison the store: CRC validation must reject
  // every copy and the SAME resume must come off disk, still bitwise.
  store.corrupt_for_test(o1.checkpoint_prefix, 0);
  store.corrupt_for_test(o1.checkpoint_prefix, 1);
  util::reset_checkpoint_io();
  svc::AttemptOptions o3 = o2;
  o3.attempt = 3;
  const svc::AttemptResult a3 = svc::run_attempt(clean, o3);
  ASSERT_TRUE(a3.completed(spec.steps)) << a3.error;
  EXPECT_EQ(a3.restored_from, svc::RestoreSource::kDisk);
  EXPECT_GT(util::checkpoint_io().files_read, 0u)
      << "the disk fallback never touched a file?";
  EXPECT_EQ(state::State::max_abs_diff(a3.global, reference,
                                       reference.interior()),
            0.0)
      << "disk fallback diverged from the fault-free run";
}

TEST(RankFailureService, SubmitAfterRetirementDoesNotWedgeThePool) {
  // Regression: the over-demand sweep used to run only at the instant a
  // rank retired.  A job entering the queue AFTER that — validate()
  // checks the full rank_budget, not the degraded one — waited forever
  // for capacity that cannot return, deadlocking drain()/shutdown().
  // Every queue entry must be checked: late submits of BOTH distributed
  // cores are refit onto the survivors and complete.
  const std::string dir = temp_dir("late_submit");
  const svc::JobSpec bait = faulted_spec(
      "bait", svc::CoreKind::kOriginal, {1, 2, 1}, comm::FaultKind::kKillRank);

  svc::ServiceOptions opt;
  opt.obs.dump_dir = dump_dir();
  opt.slots = 1;
  opt.rank_budget = 2;
  opt.checkpoint_dir = dir;
  opt.max_rank_strikes = 1;  // the bait's kill retires pool rank 0
  svc::EnsembleService service(opt);
  const int bait_id = service.submit(bait);
  service.wait(bait_id);
  ASSERT_EQ(service.counters().ranks_retired, 1);

  // A late CA submit is refit to the surviving rank before it ever runs
  // (no checkpoint yet, so no reshard is involved); exact mode makes the
  // narrower run bitwise-equal to the requested shape's trajectory.
  svc::JobSpec ca = faulted_spec("late_ca", svc::CoreKind::kCA, {1, 2, 1},
                                 comm::FaultKind::kKillRank);
  ca.node_faults.clear();
  ca.ca_options = exact_ca_options();
  const state::State ca_reference = solo_run(ca, dir + "/late_ca_solo");
  const int ca_id = service.submit(ca);
  service.wait(ca_id);
  const svc::JobResult ca_r = service.result(ca_id);
  ASSERT_EQ(ca_r.state, svc::JobState::kCompleted) << ca_r.error;
  EXPECT_EQ(state::State::max_abs_diff(ca_r.final_state, ca_reference,
                                       ca_reference.interior()),
            0.0)
      << "the refit late CA submit diverged from the requested-shape run";

  // The original core reshapes to the surviving rank and completes.
  svc::JobSpec orig = faulted_spec("late_orig", svc::CoreKind::kOriginal,
                                   {1, 2, 1}, comm::FaultKind::kKillRank);
  orig.node_faults.clear();
  const state::State reference = solo_run(orig, dir + "/late_solo");
  const int orig_id = service.submit(orig);
  service.wait(orig_id);
  const svc::JobResult orig_r = service.result(orig_id);
  ASSERT_EQ(orig_r.state, svc::JobState::kCompleted) << orig_r.error;
  const double diff = state::State::max_abs_diff(
      orig_r.final_state, reference, reference.interior());
  EXPECT_LT(diff, 1e-8)
      << "reshaped late submit diverged beyond the cross-decomposition "
         "tolerance";
  service.drain();  // the wedge regression: this used to block forever
}

}  // namespace
}  // namespace ca
