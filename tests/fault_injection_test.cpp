// Chaos suite, part 1: every fault kind the FaultPlan can inject (delay,
// duplicate, drop, corrupt, stall) has a test asserting the run either
// *detects* the fault — a typed error within a wall-clock bound, never a
// hang — or *recovers bit-for-bit*: with recovery enabled the final state
// is identical to a fault-free run with the same seed.
#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <vector>

#include "comm/context.hpp"

#include "comm/error.hpp"
#include "comm/fault.hpp"
#include "comm/runtime.hpp"
#include "core/ca_core.hpp"
#include "core/exchange.hpp"
#include "dump_dir.hpp"

namespace ca::comm {
namespace {

using Clock = std::chrono::steady_clock;

/// This suite's flight-dump directory.
const std::string& dump_dir() {
  static const std::string dir = fresh_dump_dir("fault_injection");
  return dir;
}

double elapsed_seconds(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Guard value for "the run must not hang": generous against slow CI
/// machines, tiny against an actual infinite spin.
constexpr double kWallClockBound = 60.0;

FaultRule rule(FaultKind kind, double probability, int param = 1) {
  FaultRule r;
  r.kind = kind;
  r.probability = probability;
  r.param = param;
  return r;
}

TEST(FaultPlanUnit, DecisionsAreDeterministicGivenSeed) {
  FaultPlan a(1234), b(1234), c(99);
  for (FaultPlan* p : {&a, &b, &c}) {
    p->add_rule(rule(FaultKind::kDrop, 0.3));
    p->add_rule(rule(FaultKind::kDelay, 0.3, 5));
    p->add_rule(rule(FaultKind::kDuplicate, 0.3));
  }
  int diff_from_c = 0;
  for (std::uint64_t seq = 1; seq <= 200; ++seq) {
    const auto ia = a.decide("stencil", 0, 1, 7, seq);
    const auto ib = b.decide("stencil", 0, 1, 7, seq);
    EXPECT_EQ(ia.drop, ib.drop);
    EXPECT_EQ(ia.duplicate, ib.duplicate);
    EXPECT_EQ(ia.delay_polls, ib.delay_polls);
    const auto ic = c.decide("stencil", 0, 1, 7, seq);
    if (ia.drop != ic.drop || ia.duplicate != ic.duplicate ||
        ia.delay_polls != ic.delay_polls)
      ++diff_from_c;
  }
  // A different seed must give a different fault pattern.
  EXPECT_GT(diff_from_c, 0);
  // Probabilities actually fire at roughly the requested rate.
  const auto s = a.summary();
  EXPECT_GT(s.injected_drop, 20u);
  EXPECT_LT(s.injected_drop, 120u);
}

TEST(FaultPlanUnit, ScopesRestrictInjection) {
  FaultPlan plan(7);
  FaultRule r = rule(FaultKind::kDrop, 1.0);
  r.phase = "stencil";
  r.tag = 42;
  r.src = 0;
  r.dst = 1;
  plan.add_rule(r);
  EXPECT_TRUE(plan.decide("stencil", 0, 1, 42, 1).drop);
  EXPECT_FALSE(plan.decide("collective", 0, 1, 42, 1).drop);
  EXPECT_FALSE(plan.decide("stencil", 1, 0, 42, 1).drop);
  EXPECT_FALSE(plan.decide("stencil", 0, 1, 43, 1).drop);
}

TEST(FaultPlanUnit, EmptyPlanIsDisabled) {
  FaultPlan plan(31);
  EXPECT_FALSE(plan.enabled());
  EXPECT_FALSE(plan.decide("stencil", 0, 1, 9, 1).any());
  plan.add_rule(rule(FaultKind::kDrop, 1.0));
  EXPECT_TRUE(plan.enabled());
  EXPECT_EQ(plan.seed(), 31u);
}

// --- delay: recovered transparently ---------------------------------------

TEST(FaultInjection, DelayRecoversBitForBit) {
  FaultPlan plan(11);
  plan.add_rule(rule(FaultKind::kDelay, 1.0, 3));
  RunOptions opts;
  opts.obs.dump_dir = dump_dir();
  opts.faults = &plan;
  const auto start = Clock::now();
  Runtime::run(2, opts, [](Context& ctx) {
    const auto& w = ctx.world();
    std::vector<double> buf(64);
    for (int round = 0; round < 8; ++round) {
      if (ctx.world_rank() == 0) {
        for (std::size_t i = 0; i < buf.size(); ++i)
          buf[i] = round * 1000.0 + static_cast<double>(i);
        ctx.send_values<double>(w, 1, 5, buf);
      } else {
        ctx.recv_values<double>(w, 0, 5, buf);
        for (std::size_t i = 0; i < buf.size(); ++i)
          ASSERT_EQ(buf[i], round * 1000.0 + static_cast<double>(i));
      }
    }
  });
  EXPECT_LT(elapsed_seconds(start), kWallClockBound);
  const auto s = plan.summary();
  EXPECT_EQ(s.injected_delay, 8u);
  EXPECT_EQ(s.recovered_delay, 8u);
  EXPECT_EQ(s.detected_total(), 0u);
}

// --- duplicate: suppressed via sequence numbers ----------------------------

TEST(FaultInjection, DuplicateSuppressedInOrder) {
  FaultPlan plan(13);
  plan.add_rule(rule(FaultKind::kDuplicate, 1.0));
  RunOptions opts;
  opts.obs.dump_dir = dump_dir();
  opts.faults = &plan;
  const auto start = Clock::now();
  Runtime::run(2, opts, [](Context& ctx) {
    const auto& w = ctx.world();
    std::array<double, 4> buf{};
    for (int i = 0; i < 10; ++i) {
      if (ctx.world_rank() == 0) {
        buf.fill(static_cast<double>(i));
        ctx.send_values<double>(w, 1, 3, buf);
      } else {
        ctx.recv_values<double>(w, 0, 3, buf);
        // Every receive must see the next value exactly once, in order.
        ASSERT_EQ(buf[0], static_cast<double>(i));
      }
    }
  });
  EXPECT_LT(elapsed_seconds(start), kWallClockBound);
  const auto s = plan.summary();
  EXPECT_EQ(s.injected_duplicate, 10u);
  EXPECT_GE(s.recovered_duplicate, 9u);  // the last copy may never be polled
  EXPECT_EQ(s.detected_total(), 0u);
}

// --- drop: recovered by retransmission, detected without retries -----------

TEST(FaultInjection, DropRecoversViaRetransmission) {
  FaultPlan plan(17);
  plan.add_rule(rule(FaultKind::kDrop, 1.0));
  RunOptions opts;
  opts.obs.dump_dir = dump_dir();
  opts.faults = &plan;
  opts.max_resends = 1;
  const auto start = Clock::now();
  Runtime::run(2, opts, [](Context& ctx) {
    const auto& w = ctx.world();
    std::array<double, 8> buf{};
    for (int i = 0; i < 6; ++i) {
      if (ctx.world_rank() == 0) {
        buf.fill(100.0 + i);
        ctx.send_values<double>(w, 1, 2, buf);
      } else {
        ctx.recv_values<double>(w, 0, 2, buf);
        ASSERT_EQ(buf[7], 100.0 + i);
      }
    }
  });
  EXPECT_LT(elapsed_seconds(start), kWallClockBound);
  const auto s = plan.summary();
  EXPECT_EQ(s.injected_drop, 6u);
  EXPECT_EQ(s.recovered_drop, 6u);
  EXPECT_EQ(s.detected_total(), 0u);
}

TEST(FaultInjection, DropDetectedAsTimeoutWhenRetriesDisabled) {
  FaultPlan plan(19);
  plan.add_rule(rule(FaultKind::kDrop, 1.0));
  RunOptions opts;
  opts.obs.dump_dir = dump_dir();
  opts.faults = &plan;
  opts.max_resends = 0;  // no retransmission: the drop must surface
  opts.recv_timeout = std::chrono::milliseconds(250);
  const auto start = Clock::now();
  EXPECT_THROW(
      Runtime::run(2, opts,
                   [](Context& ctx) {
                     const auto& w = ctx.world();
                     std::array<double, 8> buf{};
                     if (ctx.world_rank() == 0) {
                       buf.fill(1.0);
                       ctx.send_values<double>(w, 1, 2, buf);
                     } else {
                       ctx.recv_values<double>(w, 0, 2, buf);
                     }
                   }),
      TimeoutError);
  EXPECT_LT(elapsed_seconds(start), kWallClockBound);
  const auto s = plan.summary();
  EXPECT_EQ(s.injected_drop, 1u);
  EXPECT_GE(s.detected_timeout, 1u);
  EXPECT_EQ(s.recovered_drop, 0u);
}

// --- corrupt: detected via the payload checksum ----------------------------

TEST(FaultInjection, CorruptDetectedByChecksum) {
  FaultPlan plan(23);
  plan.add_rule(rule(FaultKind::kCorrupt, 1.0, 1));
  RunOptions opts;
  opts.obs.dump_dir = dump_dir();
  opts.faults = &plan;
  const auto start = Clock::now();
  EXPECT_THROW(
      Runtime::run(2, opts,
                   [](Context& ctx) {
                     const auto& w = ctx.world();
                     std::array<double, 16> buf{};
                     if (ctx.world_rank() == 0) {
                       buf.fill(3.25);
                       ctx.send_values<double>(w, 1, 4, buf);
                     } else {
                       ctx.recv_values<double>(w, 0, 4, buf);
                     }
                   }),
      ChecksumError);
  EXPECT_LT(elapsed_seconds(start), kWallClockBound);
  const auto s = plan.summary();
  EXPECT_EQ(s.injected_corrupt, 1u);
  EXPECT_EQ(s.detected_checksum, 1u);
}

// --- stall: detected by the peer's bounded wait, recovered under a
// generous timeout -----------------------------------------------------------

TEST(FaultInjection, StallDetectedByPeerTimeout) {
  FaultPlan plan(29);
  FaultRule r = rule(FaultKind::kStall, 1.0, 5000);  // 5000 polls = 1 s
  r.src = 0;                                         // stall rank 0 only
  plan.add_rule(r);
  RunOptions opts;
  opts.obs.dump_dir = dump_dir();
  opts.faults = &plan;
  opts.recv_timeout = std::chrono::milliseconds(150);
  const auto start = Clock::now();
  EXPECT_THROW(
      Runtime::run(2, opts,
                   [](Context& ctx) {
                     const auto& w = ctx.world();
                     std::array<double, 4> buf{};
                     ctx.notify_step();  // rank 0 stalls here
                     if (ctx.world_rank() == 0) {
                       buf.fill(9.0);
                       ctx.send_values<double>(w, 1, 6, buf);
                     } else {
                       ctx.recv_values<double>(w, 0, 6, buf);
                     }
                   }),
      TimeoutError);
  EXPECT_LT(elapsed_seconds(start), kWallClockBound);
  const auto s = plan.summary();
  EXPECT_EQ(s.injected_stall, 1u);
  EXPECT_GE(s.detected_timeout, 1u);
}

TEST(FaultInjection, StallRecoversUnderGenerousTimeout) {
  FaultPlan plan(31);
  FaultRule r = rule(FaultKind::kStall, 1.0, 50);  // 50 polls = 10 ms
  r.src = 0;
  plan.add_rule(r);
  RunOptions opts;
  opts.obs.dump_dir = dump_dir();
  opts.faults = &plan;
  const auto start = Clock::now();
  Runtime::run(2, opts, [](Context& ctx) {
    const auto& w = ctx.world();
    std::array<double, 4> buf{};
    ctx.notify_step();
    if (ctx.world_rank() == 0) {
      buf.fill(9.0);
      ctx.send_values<double>(w, 1, 6, buf);
    } else {
      ctx.recv_values<double>(w, 0, 6, buf);
      ASSERT_EQ(buf[0], 9.0);
    }
  });
  EXPECT_LT(elapsed_seconds(start), kWallClockBound);
  const auto s = plan.summary();
  EXPECT_EQ(s.injected_stall, 1u);
  EXPECT_EQ(s.detected_total(), 0u);
}

// --- bit-for-bit recovery of the CA core under recoverable faults ----------

namespace {

core::DycoreConfig chaos_config() {
  core::DycoreConfig c;
  c.nx = 24;
  c.ny = 16;
  c.nz = 8;
  c.M = 2;
  c.dt_adapt = 30.0;
  c.dt_advect = 120.0;
  c.z_allreduce = AllreduceAlgorithm::kLinearOrdered;
  return c;
}

/// Runs the CA core for `steps` on `dims` ranks under `opts` and returns
/// the gathered global state (valid on the caller).
state::State run_ca(const core::DycoreConfig& cfg, std::array<int, 3> dims,
                    int steps, const RunOptions& opts) {
  state::State global;
  const int p = dims[0] * dims[1] * dims[2];
  Runtime::run(p, opts, [&](Context& ctx) {
    core::CACore core(cfg, ctx, dims);
    auto xi = core.make_state();
    state::InitialOptions init;
    init.kind = state::InitialCondition::kPlanetaryWave;
    core.initialize(xi, init);
    core.run(xi, steps);
    state::State g =
        core::gather_global(core.op_context(), ctx, core.topology(), xi);
    if (ctx.world_rank() == 0) global = std::move(g);
  });
  return global;
}

}  // namespace

TEST(FaultInjection, CACoreRecoversBitForBitFromRecoverableFaults) {
  const auto cfg = chaos_config();
  const std::array<int, 3> dims{1, 2, 2};
  constexpr int kSteps = 2;

  const state::State reference = run_ca(cfg, dims, kSteps, RunOptions{});

  FaultPlan plan(4242);
  plan.add_rule(rule(FaultKind::kDrop, 0.08));
  plan.add_rule(rule(FaultKind::kDuplicate, 0.08));
  plan.add_rule(rule(FaultKind::kDelay, 0.08, 2));
  RunOptions opts;
  opts.obs.dump_dir = dump_dir();
  opts.faults = &plan;
  const auto start = Clock::now();
  const state::State chaos = run_ca(cfg, dims, kSteps, opts);
  EXPECT_LT(elapsed_seconds(start), kWallClockBound);

  const auto s = plan.summary();
  EXPECT_GT(s.injected_total(), 0u) << "plan injected nothing; test is vacuous";
  EXPECT_EQ(s.detected_total(), 0u);
  const double diff =
      state::State::max_abs_diff(chaos, reference, reference.interior());
  EXPECT_EQ(diff, 0.0) << "recovery was not bit-for-bit";
}

}  // namespace
}  // namespace ca::comm
