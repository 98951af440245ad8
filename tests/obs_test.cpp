// Observability subsystem: span/ring semantics of the Tracer (nesting,
// bounded flight ring, off-switch), exclusive phase time in the per-rank
// record, the merged multi-rank Chrome trace export, flight-recorder dumps,
// and the obs-off bitwise guarantee (tracing a run must not change a single
// bit of the model state).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "comm/runtime.hpp"
#include "core/ca_core.hpp"
#include "core/campaign.hpp"
#include "core/exchange.hpp"
#include "core/original_core.hpp"
#include "core/serial_core.hpp"
#include "obs/trace.hpp"
#include "state/state.hpp"
#include "util/json.hpp"
#include "util/timer.hpp"

namespace ca::obs {
namespace {

std::string temp_dir(const std::string& tag) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("ca_agcm_obs_" + tag);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

// --- tracer / ring ----------------------------------------------------------

TraceOptions ring_opts(int events = 64) {
  TraceOptions o;
  o.trace = false;
  o.dump_on_failure = true;  // arm the ring without a collector
  o.ring_events = events;
  return o;
}

TEST(Tracer, SpansNestAndRecordOnFinish) {
  Tracer t;
  t.configure(ring_opts(), /*tid=*/0);
  {
    Span outer = t.span("outer", "core");
    {
      Span inner = t.span("inner", "compute");
    }  // inner finishes (records) first
  }
  const auto ring = t.ring_snapshot();
  ASSERT_EQ(ring.size(), 2u);
  EXPECT_STREQ(ring[0].name, "inner");
  EXPECT_STREQ(ring[1].name, "outer");
  // Proper nesting: the inner interval lies within the outer one.
  EXPECT_GE(ring[0].ts_us, ring[1].ts_us);
  EXPECT_LE(ring[0].ts_us + ring[0].dur_us,
            ring[1].ts_us + ring[1].dur_us + 1e-6);
}

TEST(Tracer, FlightRingIsBoundedAndCountsDrops) {
  Tracer t;
  t.configure(ring_opts(/*events=*/8), /*tid=*/3);
  for (int i = 0; i < 20; ++i) t.instant("beat", "comm");
  EXPECT_EQ(t.ring_snapshot().size(), 8u);
  EXPECT_EQ(t.recorded(), 20u);
  EXPECT_EQ(t.dropped(), 12u);
}

TEST(Tracer, DisabledTracerRecordsNothing) {
  Tracer t;
  TraceOptions off;
  off.trace = false;
  off.dump_on_failure = false;
  t.configure(off, /*tid=*/0);
  EXPECT_FALSE(t.recording());
  Span s = t.span("step", "core");
  EXPECT_FALSE(s.active());
  s.finish();
  t.instant("beat");
  EXPECT_EQ(t.recorded(), 0u);
  EXPECT_TRUE(t.ring_snapshot().empty());
  // The off-switch also suppresses the dump file.
  EXPECT_EQ(t.dump_flight("should not be written"), "");
}

TEST(Tracer, FlightDumpWritesReadablePostmortem) {
  const std::string dir = temp_dir("dump");
  Tracer t;
  TraceOptions o = ring_opts();
  o.dump_dir = dir;
  t.configure(o, /*tid=*/2);
  { Span s = t.span("exchange_wait", "exchange"); }
  t.instant("peer_dead", "comm", "rank 1 silent past heartbeat");
  const std::string path = t.dump_flight("PeerDeadError: rank 1");
  EXPECT_EQ(path, dir + "/obs_dump_rank2.json");
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const util::Json doc = util::Json::parse(ss.str());
  EXPECT_EQ(doc.find("schema")->as_string(), "ca-agcm/obs-flight/v1");
  EXPECT_EQ(doc.find("rank")->as_double(), 2.0);
  EXPECT_EQ(doc.find("reason")->as_string(), "PeerDeadError: rank 1");
  const util::Json* events = doc.find("events");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->items().size(), 2u);
  EXPECT_EQ(events->items()[0].find("name")->as_string(), "exchange_wait");
  EXPECT_EQ(events->items()[1].find("name")->as_string(), "peer_dead");
  EXPECT_EQ(events->items()[1].find("detail")->as_string(),
            "rank 1 silent past heartbeat");
}

TEST(Tracer, SecondIncidentNeverClobbersTheFirstDump) {
  // Two incidents in one run — or two jobs whose rank ids collide — used
  // to share obs_dump_rank<r>.json, the later truncating the earlier
  // postmortem.  The first dump keeps the legacy name; later ones get a
  // monotonic .incident<seq> suffix.  The sequence is probe-based, so it
  // survives Tracer reconstruction across attempts (each attempt builds
  // fresh tracers whose in-memory counters restart).
  const std::string dir = temp_dir("dump_noclobber");
  TraceOptions o = ring_opts();
  o.dump_dir = dir;

  Tracer first;
  first.configure(o, /*tid=*/3);
  first.instant("peer_dead", "comm", "incident one");
  const std::string p0 = first.dump_flight("first incident");
  EXPECT_EQ(p0, dir + "/obs_dump_rank3.json");

  Tracer second;  // a fresh tracer, as a retried attempt would build
  second.configure(o, /*tid=*/3);
  second.instant("peer_dead", "comm", "incident two");
  const std::string p1 = second.dump_flight("second incident");
  EXPECT_EQ(p1, dir + "/obs_dump_rank3.incident1.json");
  const std::string p2 = second.dump_flight("third incident");
  EXPECT_EQ(p2, dir + "/obs_dump_rank3.incident2.json");

  // The first postmortem is intact, and each dump kept its own reason.
  auto reason_of = [](const std::string& path) {
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::stringstream ss;
    ss << in.rdbuf();
    return util::Json::parse(ss.str()).find("reason")->as_string();
  };
  EXPECT_EQ(reason_of(p0), "first incident");
  EXPECT_EQ(reason_of(p1), "second incident");
  EXPECT_EQ(reason_of(p2), "third incident");
}

TEST(Tracer, NestedPhaseSpansChargeExclusiveTime) {
  util::PhaseRecord record;
  Tracer t;
  t.configure(ring_opts(), /*tid=*/0, &record);
  // Spins for 2 ms of wall clock; returns the wall clock it took.
  auto busy = [] {
    const util::Timer timer;
    while (timer.seconds() < 2e-3) {
    }
    return timer.seconds();
  };
  double outside = 0.0, inside = 0.0;
  {
    Span step = t.phase_span(util::Phase::kStep);
    outside += busy();
    {
      Span op = t.phase_span(util::Phase::kAdaptation);
      inside += busy();
      Span trace_only = t.span("interior", "compute");
      inside += busy();
    }
    outside += busy();
  }
  // The parent paused while its child ran; a trace-only span charges
  // nothing and pauses nothing.
  const double self = record[util::Phase::kStep].seconds;
  const double op = record[util::Phase::kAdaptation].seconds;
  EXPECT_NEAR(self, outside, 0.25 * inside);
  EXPECT_NEAR(op, inside, 0.25 * outside);
  const auto ring = t.ring_snapshot();
  ASSERT_EQ(ring.size(), 3u);
  EXPECT_STREQ(ring[1].name, "ops.adaptation");
  EXPECT_STREQ(ring[2].name, "step");
  // The trace keeps inclusive durations.
  EXPECT_NEAR(ring[2].dur_us * 1e-6, self + op, 1e-4);
}

// --- the per-rank record ---------------------------------------------------

core::DycoreConfig layer_cfg() {
  core::DycoreConfig c;
  c.nx = 24;
  c.ny = 32;
  c.nz = 8;
  c.M = 2;
  return c;
}

/// Steps the core `make` builds on p ranks.  On every rank the step
/// span's self time (what no layer span covers) must be at most 10% of
/// the step's wall, as a median over the steps, and every layer the core
/// runs must have charged time.
template <typename MakeCore>
void expect_layers_add_up(int p, MakeCore make,
                          const std::vector<util::Phase>& extra_layers) {
  using util::Phase;
  std::vector<Phase> layers{Phase::kLocalDiag,  Phase::kColumn,
                            Phase::kAdaptation, Phase::kAdvection,
                            Phase::kFilter,     Phase::kSmoothing,
                            Phase::kUpdate,     Phase::kBoundaryFill};
  layers.insert(layers.end(), extra_layers.begin(), extra_layers.end());
  constexpr int kSteps = 7;
  comm::Runtime::run(p, [&](comm::Context& ctx) {
    auto core = make(ctx);
    auto xi = core->make_state();
    core->initialize(xi, {.kind = state::InitialCondition::kPlanetaryWave});
    core->step(xi);  // warm-up
    const util::PhaseTimers& record = ctx.timers();
    ctx.timers().clear();
    std::vector<double> self_fraction;
    for (int s = 0; s < kSteps; ++s) {
      const double self0 = record[Phase::kStep].seconds;
      const util::Timer wall;
      core->step(xi);
      const double w = wall.seconds();
      self_fraction.push_back((record[Phase::kStep].seconds - self0) / w);
    }
    std::sort(self_fraction.begin(), self_fraction.end());
    EXPECT_LE(self_fraction[kSteps / 2], 0.10)
        << "rank " << ctx.world_rank()
        << ": the layers leave too much of the step unattributed";
    for (const Phase ph : layers)
      EXPECT_GT(record[ph].seconds, 0.0)
          << "rank " << ctx.world_rank() << " never charged "
          << util::phase_name(ph);
  });
}

TEST(PhaseRecord, SerialLayersAddUpToTheStep) {
  expect_layers_add_up(
      1,
      [](comm::Context& ctx) {
        return std::make_unique<core::SerialCore>(layer_cfg(), &ctx);
      },
      {});
}

TEST(PhaseRecord, OriginalYZLayersAddUpToTheStep) {
  using util::Phase;
  expect_layers_add_up(
      4,
      [](comm::Context& ctx) {
        return std::make_unique<core::OriginalCore>(
            layer_cfg(), ctx, core::DecompScheme::kYZ,
            std::array<int, 3>{1, 2, 2});
      },
      {Phase::kExchange, Phase::kExchangeWait, Phase::kCollective});
}

TEST(PhaseRecord, CAYZLayersAddUpToTheStep) {
  using util::Phase;
  expect_layers_add_up(
      4,
      [](comm::Context& ctx) {
        return std::make_unique<core::CACore>(layer_cfg(), ctx,
                                              std::array<int, 3>{1, 4, 1});
      },
      {Phase::kExchange, Phase::kExchangeWait});
}

// --- merged multi-rank export ----------------------------------------------

core::DycoreConfig small_cfg() {
  core::DycoreConfig c;
  c.nx = 24;
  c.ny = 16;
  c.nz = 8;
  c.M = 1;
  return c;
}

TEST(TraceExport, MultiRankRunMergesIntoValidChromeTrace) {
  TraceCollector collector;
  comm::RunOptions opts;
  opts.obs.trace = true;
  opts.obs.ring_events = 32;  // force mid-run spills to the collector
  opts.trace_sink = &collector;
  opts.trace_pid = 7;
  comm::Runtime::run(2, opts, [&](comm::Context& ctx) {
    core::OriginalCore core(small_cfg(), ctx, core::DecompScheme::kYZ,
                            {1, 2, 1});
    auto xi = core.make_state();
    core.initialize(xi, {.kind = state::InitialCondition::kZonalJet});
    core::CampaignOptions opt;
    opt.steps = 2;
    // The diagnostics reduction is the run's collective: its span proves
    // the comm layer's phase instrumentation reaches the export.
    opt.diag_every = 1;
    opt.on_diagnostics = [](int, const core::GlobalDiag&) {};
    core::run_campaign(core, &ctx, xi, opt);
  });
  ASSERT_GT(collector.event_count(), 0u);
  const util::Json doc = collector.chrome_trace();
  EXPECT_EQ(validate_chrome_trace(doc), "");

  // Both ranks contribute under the job pid, and the core's span
  // vocabulary is present on each rank's timeline.
  std::set<int> tids;
  std::set<std::string> names0;
  for (const util::Json& ev : doc.find("traceEvents")->items()) {
    if (ev.find("ph")->as_string() == "M") continue;
    EXPECT_DOUBLE_EQ(ev.find("pid")->as_double(), 7.0);
    const int tid = static_cast<int>(ev.find("tid")->as_double());
    tids.insert(tid);
    if (tid == 0) names0.insert(ev.find("name")->as_string());
  }
  EXPECT_EQ(tids, (std::set<int>{0, 1}));
  for (const char* expected :
       {"campaign", "step", "exchange_post", "exchange_wait", "collective",
        "exchange_unpack", "ops.local_diag", "ops.column", "ops.adaptation",
        "ops.advection", "ops.filter", "ops.smoothing", "core.update",
        "core.boundary_fill"})
    EXPECT_TRUE(names0.count(expected))
        << "rank 0 timeline lacks span '" << expected << "'";

  // The export round-trips through its own validator from disk too.
  const std::string path = temp_dir("export") + "/trace.json";
  ASSERT_TRUE(collector.write(path));
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(validate_chrome_trace(util::Json::parse(ss.str())), "");
}

/// A core and shape whose flight dump, taken after `steps` steps with the
/// default ring, must hold every event of the last step.
struct DumpCase {
  const char* name;
  bool ca;  // CACore, else an original Y-Z core
  int nx, ny, M;
  std::array<int, 3> dims;
  int steps;
  int step_events_above;  // the last step records more events than this
};

class FlightDump : public ::testing::TestWithParam<DumpCase> {};

TEST_P(FlightDump, HoldsEveryEventOfTheLastStep) {
  const DumpCase& p = GetParam();
  const std::string dir = temp_dir(std::string("dump_") + p.name);
  comm::RunOptions opts;
  opts.obs.dump_dir = dir;
  ASSERT_EQ(opts.obs.ring_events, 1024);
  core::DycoreConfig c = small_cfg();
  c.nx = p.nx;
  c.ny = p.ny;
  c.M = p.M;
  auto run = [&](comm::Context& ctx, auto& core) {
    auto xi = core.make_state();
    core.initialize(xi, {.kind = state::InitialCondition::kPlanetaryWave});
    for (int s = 0; s < p.steps; ++s) core.step(xi);
    const std::string path = ctx.tracer().dump_flight("after the last step");
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path;
    std::stringstream ss;
    ss << in.rdbuf();
    const util::Json doc = util::Json::parse(ss.str());
    const auto& events = doc.find("events")->items();
    ASSERT_FALSE(events.empty());
    // Spans record when they close, so the last step closes last, and the
    // ring keeps the newest events in closing order: when its oldest event
    // closed before the last step began, every event of that step is in
    // the ring.
    const util::Json& step = events.back();
    ASSERT_EQ(step.find("name")->as_string(), "step");
    const double t0 = step.find("ts_us")->as_double();
    const double t1 = t0 + step.find("dur_us")->as_double();
    const util::Json& oldest = events.front();
    EXPECT_LE(oldest.find("ts_us")->as_double() +
                  oldest.find("dur_us")->as_double(),
              t0)
        << "rank " << ctx.world_rank()
        << ": the ring lost part of the last step";
    std::set<std::string> names;
    int in_step = 0;
    for (const util::Json& ev : events) {
      const double ts = ev.find("ts_us")->as_double();
      if (ts < t0) continue;
      ++in_step;
      if (ts <= t1) names.insert(ev.find("name")->as_string());
    }
    EXPECT_GT(in_step, p.step_events_above) << "rank " << ctx.world_rank();
    for (const char* expected :
         {"exchange_post", "exchange_wait", "exchange_unpack",
          "ops.local_diag", "ops.column", "ops.adaptation", "ops.advection",
          "ops.filter", "ops.smoothing", "core.update",
          "core.boundary_fill"})
      EXPECT_TRUE(names.count(expected))
          << "rank " << ctx.world_rank() << "'s dump lacks '" << expected
          << "' inside its last step";
  };
  comm::Runtime::run(p.dims[0] * p.dims[1] * p.dims[2], opts,
                     [&](comm::Context& ctx) {
                       if (p.ca) {
                         core::CACore core(c, ctx, p.dims);
                         run(ctx, core);
                       } else {
                         core::OriginalCore core(
                             c, ctx, core::DecompScheme::kYZ, p.dims);
                         run(ctx, core);
                       }
                     });
}

// A CA step at M = 3 records 123-161 events per rank on a 1x4x1 split of
// 120x48x8; an original Y-Z 1x2x2 step at M = 3 on 128x48x8 records more
// than a 256-event ring holds.
INSTANTIATE_TEST_SUITE_P(
    TraceExport, FlightDump,
    ::testing::Values(DumpCase{"CA_1x2x1", true, 24, 24, 3, {1, 2, 1}, 3, 0},
                      DumpCase{"OriginalYZ_1x2x2", false, 128, 48, 3,
                               {1, 2, 2}, 2, 256}),
    [](const ::testing::TestParamInfo<DumpCase>& info) {
      return std::string(info.param.name);
    });

// --- tracing-off overhead ----------------------------------------------------

TEST(TimingGate, DisabledSpansCostUnderOnePercentOfAStep) {
#ifdef __SANITIZE_ADDRESS__
  GTEST_SKIP() << "timing gate: sanitizers slow the spans, not the step";
#endif
  // The tracing hooks stay in the build with obs.trace off, so their
  // residual cost must vanish next to a dynamics step.  Priced as the
  // micro cost of a disabled span times the events the busiest rank
  // records in one traced step, against the tracing-off step (slowest
  // rank, after two warm-up steps) of the original Y-Z {1,2,1} core on
  // the 16x16x4, M = 2 mesh.
  core::DycoreConfig cfg;
  cfg.nx = 16;
  cfg.ny = 16;
  cfg.nz = 4;
  cfg.M = 2;
  cfg.z_allreduce = comm::AllreduceAlgorithm::kLinearOrdered;
  constexpr int kRanks = 2, kSteps = 1;
  std::mutex mu;
  auto run_original = [&](const comm::RunOptions& opts, int warmup,
                          auto&& on_rank) {
    comm::Runtime::run(kRanks, opts, [&](comm::Context& ctx) {
      core::OriginalCore core(cfg, ctx, core::DecompScheme::kYZ,
                              {1, kRanks, 1});
      auto xi = core.make_state();
      core.initialize(xi,
                      {.kind = state::InitialCondition::kPlanetaryWave});
      core.run(xi, warmup);
      const util::Timer timer;
      core.run(xi, kSteps);
      const double wall = timer.seconds();
      std::lock_guard<std::mutex> lock(mu);
      on_rank(ctx, wall);
    });
  };

  double step_seconds = 0.0;
  run_original(comm::RunOptions{}, 2, [&](comm::Context&, double wall) {
    step_seconds = std::max(step_seconds, wall / kSteps);
  });

  TraceOptions off;
  off.trace = false;
  off.dump_on_failure = false;
  Tracer tracer;
  tracer.configure(off, /*tid=*/0);
  constexpr int kSpans = 1 << 21;
  const util::Timer span_timer;
  for (int i = 0; i < kSpans; ++i) {
    Span s = tracer.span("noop", "bench");
  }
  const double span_seconds = span_timer.seconds() / kSpans;

  TraceCollector collector;
  comm::RunOptions traced;
  traced.obs.trace = true;
  traced.obs.dump_on_failure = false;
  traced.obs.ring_events = 1 << 16;
  traced.trace_sink = &collector;
  std::uint64_t events = 0;
  run_original(traced, 0, [&](comm::Context& ctx, double) {
    events = std::max<std::uint64_t>(events, ctx.tracer().recorded());
  });
  EXPECT_GT(collector.event_count(), 0u) << "the traced twin flushed nothing";

  ASSERT_GT(step_seconds, 0.0);
  const double spans_per_step = static_cast<double>(events) / kSteps;
  EXPECT_LT(span_seconds * spans_per_step / step_seconds, 0.01)
      << span_seconds * 1e9 << " ns a disabled span x " << spans_per_step
      << " spans against a " << step_seconds * 1e3 << " ms step";
}

// --- obs off = seed behavior ------------------------------------------------

TEST(TraceExport, TracingDoesNotChangeModelStateBitwise) {
  // The whole subsystem must be a pure observer: a traced run and an
  // obs-disabled run of the same campaign produce bit-identical states.
  auto run = [&](bool traced, TraceCollector* sink,
                 std::vector<state::State>& out) {
    out.resize(2);
    std::mutex mu;
    comm::RunOptions opts;
    opts.obs.trace = traced;
    opts.obs.dump_on_failure = traced;
    opts.trace_sink = sink;
    comm::Runtime::run(2, opts, [&](comm::Context& ctx) {
      core::OriginalCore core(small_cfg(), ctx, core::DecompScheme::kYZ,
                              {1, 2, 1});
      auto xi = core.make_state();
      core.initialize(xi,
                      {.kind = state::InitialCondition::kPlanetaryWave});
      core::CampaignOptions opt;
      opt.steps = 3;
      core::run_campaign(core, &ctx, xi, opt);
      std::lock_guard<std::mutex> lock(mu);
      out[static_cast<std::size_t>(ctx.world_rank())] = std::move(xi);
    });
  };
  std::vector<state::State> off_states, on_states;
  TraceCollector collector;
  run(false, nullptr, off_states);
  run(true, &collector, on_states);
  EXPECT_GT(collector.event_count(), 0u);
  for (std::size_t r = 0; r < off_states.size(); ++r)
    EXPECT_EQ(state::State::max_abs_diff(off_states[r], on_states[r],
                                         off_states[r].interior()),
              0.0)
        << "tracing changed rank " << r << "'s state";
}

}  // namespace
}  // namespace ca::obs
