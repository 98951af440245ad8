// Parallel equivalence: the distributed original algorithm must reproduce
// the serial reference under every decomposition scheme, and the
// communication-avoiding algorithm must be decomposition-invariant.
#include <gtest/gtest.h>

#include <array>

#include "comm/runtime.hpp"
#include "core/ca_core.hpp"
#include "core/exchange.hpp"
#include "core/original_core.hpp"
#include "core/serial_core.hpp"

namespace ca::core {
namespace {

DycoreConfig test_config() {
  DycoreConfig c;
  c.nx = 24;
  c.ny = 16;
  c.nz = 8;
  c.M = 2;
  c.dt_adapt = 30.0;
  c.dt_advect = 120.0;
  // Ordered z reduction keeps run-to-run determinism in the comparison.
  c.z_allreduce = comm::AllreduceAlgorithm::kLinearOrdered;
  return c;
}

state::State serial_reference(const DycoreConfig& cfg,
                              state::InitialCondition ic, int steps) {
  SerialCore core(cfg);
  auto xi = core.make_state();
  state::InitialOptions opt;
  opt.kind = ic;
  core.initialize(xi, opt);
  core.run(xi, steps);
  return xi;
}

struct OriginalCase {
  DecompScheme scheme;
  std::array<int, 3> dims;
  const char* name;
};

class OriginalEquivalence : public ::testing::TestWithParam<OriginalCase> {};

TEST_P(OriginalEquivalence, MatchesSerialReference) {
  const auto& param = GetParam();
  const DycoreConfig cfg = test_config();
  constexpr int kSteps = 2;
  const auto ic = state::InitialCondition::kPlanetaryWave;
  state::State reference = serial_reference(cfg, ic, kSteps);

  const int p = param.dims[0] * param.dims[1] * param.dims[2];
  comm::Runtime::run(p, [&](comm::Context& ctx) {
    OriginalCore core(cfg, ctx, param.scheme, param.dims);
    auto xi = core.make_state();
    state::InitialOptions opt;
    opt.kind = ic;
    core.initialize(xi, opt);
    core.run(xi, kSteps);
    state::State global =
        gather_global(core.op_context(), ctx, core.topology(), xi);
    if (ctx.world_rank() == 0) {
      const double diff = state::State::max_abs_diff(
          global, reference, reference.interior());
      EXPECT_LT(diff, 1e-8)
          << "distributed original algorithm diverged from serial";
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, OriginalEquivalence,
    ::testing::Values(
        OriginalCase{DecompScheme::kYZ, {1, 1, 1}, "yz_1x1"},
        OriginalCase{DecompScheme::kYZ, {1, 4, 1}, "yz_py4"},
        OriginalCase{DecompScheme::kYZ, {1, 1, 4}, "yz_pz4"},
        OriginalCase{DecompScheme::kYZ, {1, 2, 2}, "yz_2x2"},
        OriginalCase{DecompScheme::kYZ, {1, 4, 2}, "yz_4x2"},
        OriginalCase{DecompScheme::kXY, {2, 1, 1}, "xy_px2"},
        OriginalCase{DecompScheme::kXY, {2, 2, 1}, "xy_2x2"},
        OriginalCase{DecompScheme::kXY, {4, 2, 1}, "xy_4x2"},
        OriginalCase{DecompScheme::k3D, {2, 2, 2}, "full3d_2x2x2"},
        OriginalCase{DecompScheme::k3D, {2, 4, 2}, "full3d_2x4x2"}),
    [](const ::testing::TestParamInfo<OriginalCase>& i) {
      return i.param.name;
    });

struct CACase {
  std::array<int, 3> dims;
  const char* name;
};

class CAEquivalence : public ::testing::TestWithParam<CACase> {};

TEST_P(CAEquivalence, DecompositionInvariant) {
  // CA on p ranks must match CA on 1 rank (same algorithm, same
  // approximations) to round-off accumulation.
  const DycoreConfig cfg = test_config();
  constexpr int kSteps = 2;
  const auto ic = state::InitialCondition::kPlanetaryWave;

  state::State reference;
  comm::Runtime::run(1, [&](comm::Context& ctx) {
    CACore core(cfg, ctx, {1, 1, 1});
    auto xi = core.make_state();
    state::InitialOptions opt;
    opt.kind = ic;
    core.initialize(xi, opt);
    core.run(xi, kSteps);
    reference = gather_global(core.op_context(), ctx, core.topology(), xi);
  });

  const auto& param = GetParam();
  const int p = param.dims[0] * param.dims[1] * param.dims[2];
  // Exact mode: fresh C on the full extended faces makes the algorithm
  // decomposition-invariant to round-off.
  comm::Runtime::run(p, [&](comm::Context& ctx) {
    CAOptions opts;
    opts.fresh_c_on_block_face = false;
    CACore core(cfg, ctx, param.dims, opts);
    auto xi = core.make_state();
    state::InitialOptions opt;
    opt.kind = ic;
    core.initialize(xi, opt);
    core.run(xi, kSteps);
    state::State global =
        gather_global(core.op_context(), ctx, core.topology(), xi);
    if (ctx.world_rank() == 0) {
      const double diff = state::State::max_abs_diff(
          global, reference, reference.interior());
      EXPECT_LT(diff, 1e-8)
          << "CA algorithm is not decomposition-invariant";
    }
  });
}

TEST(CAEquivalence, PaperModeStaysWithinApproximationClass) {
  // Paper mode (fresh C on the block face only) perturbs the edge rows of
  // the redundant windows at the same order as the approximate iteration
  // itself: the deviation from the exact-mode run must be small and must
  // shrink with dt.
  const auto ic = state::InitialCondition::kPlanetaryWave;
  auto deviation = [&](double scale) {
    DycoreConfig cfg = test_config();
    cfg.dt_adapt *= scale;
    cfg.dt_advect *= scale;
    state::State exact, paper;
    for (bool block_face : {false, true}) {
      comm::Runtime::run(2, [&](comm::Context& ctx) {
        CAOptions opts;
        opts.fresh_c_on_block_face = block_face;
        CACore core(cfg, ctx, {1, 2, 1}, opts);
        auto xi = core.make_state();
        state::InitialOptions opt;
        opt.kind = ic;
        core.initialize(xi, opt);
        core.run(xi, 2);
        auto g = gather_global(core.op_context(), ctx, core.topology(), xi);
        if (ctx.world_rank() == 0) (block_face ? paper : exact) = std::move(g);
      });
    }
    return state::State::max_abs_diff(exact, paper, exact.interior());
  };
  const double d1 = deviation(1.0);
  EXPECT_LT(d1, 1e-2);
  if (d1 > 1e-12) {
    const double d2 = deviation(0.5);
    EXPECT_LT(d2, 0.7 * d1) << "block-face C error must shrink with dt";
  }
}

INSTANTIATE_TEST_SUITE_P(Decomps, CAEquivalence,
                         ::testing::Values(CACase{{1, 2, 1}, "py2"},
                                           CACase{{1, 1, 1}, "single"},
                                           CACase{{1, 1, 2}, "pz2"},
                                           CACase{{1, 2, 2}, "py2pz2"}),
                         [](const ::testing::TestParamInfo<CACase>& i) {
                           return i.param.name;
                         });

TEST(CAEquivalenceOptions, OverlapOnOffIdentical) {
  // The inner/outer split must not change any value: inner points never
  // read data the later smoothing or the exchange modifies.
  const DycoreConfig cfg = test_config();
  constexpr int kSteps = 2;
  const auto ic = state::InitialCondition::kPlanetaryWave;
  state::State with_overlap, without_overlap;
  for (bool overlap : {true, false}) {
    comm::Runtime::run(2, [&](comm::Context& ctx) {
      CAOptions opts;
      opts.overlap = overlap;
      CACore core(cfg, ctx, {1, 2, 1}, opts);  // paper mode: overlap is
                                               // still a pure reordering
      auto xi = core.make_state();
      state::InitialOptions opt;
      opt.kind = ic;
      core.initialize(xi, opt);
      core.run(xi, kSteps);
      auto global =
          gather_global(core.op_context(), ctx, core.topology(), xi);
      if (ctx.world_rank() == 0)
        (overlap ? with_overlap : without_overlap) = std::move(global);
    });
  }
  const double diff = state::State::max_abs_diff(
      with_overlap, without_overlap, with_overlap.interior());
  EXPECT_EQ(diff, 0.0) << "overlap must be a pure scheduling change";
}

TEST(CAEquivalenceOptions, FusedSmoothingMatchesSeparate) {
  // S2 ∘ S1 == S: fusing the smoothing exchange must not change results
  // beyond floating-point reassociation.
  const DycoreConfig cfg = test_config();
  constexpr int kSteps = 3;
  const auto ic = state::InitialCondition::kPlanetaryWave;
  state::State fused, separate;
  for (bool fuse : {true, false}) {
    comm::Runtime::run(2, [&](comm::Context& ctx) {
      CAOptions opts;
      opts.fuse_smoothing = fuse;
      CACore core(cfg, ctx, {1, 2, 1}, opts);
      auto xi = core.make_state();
      state::InitialOptions opt;
      opt.kind = ic;
      core.initialize(xi, opt);
      core.run(xi, kSteps);
      auto global =
          gather_global(core.op_context(), ctx, core.topology(), xi);
      if (ctx.world_rank() == 0)
        (fuse ? fused : separate) = std::move(global);
    });
  }
  const double diff =
      state::State::max_abs_diff(fused, separate, fused.interior());
  EXPECT_LT(diff, 1e-9) << "split smoothing must equal full smoothing";
}

TEST(CAvsOriginal, ApproximationErrorIsSmallAndConverges) {
  // The approximate nonlinear iteration perturbs the solution at high
  // order in dt1: halving dt1 (and the step counts accordingly) must
  // shrink the CA-vs-original difference by at least ~4x.
  const auto ic = state::InitialCondition::kPlanetaryWave;
  auto diff_for = [&](double dt_scale) {
    DycoreConfig cfg = test_config();
    cfg.dt_adapt *= dt_scale;
    cfg.dt_advect *= dt_scale;
    constexpr int kSteps = 1;

    state::State orig, cavar;
    comm::Runtime::run(2, [&](comm::Context& ctx) {
      OriginalCore core(cfg, ctx, DecompScheme::kYZ, {1, 2, 1});
      auto xi = core.make_state();
      state::InitialOptions opt;
      opt.kind = ic;
      core.initialize(xi, opt);
      core.run(xi, kSteps);
      auto g = gather_global(core.op_context(), ctx, core.topology(), xi);
      if (ctx.world_rank() == 0) orig = std::move(g);
    });
    comm::Runtime::run(2, [&](comm::Context& ctx) {
      CACore core(cfg, ctx, {1, 2, 1});
      auto xi = core.make_state();
      state::InitialOptions opt;
      opt.kind = ic;
      core.initialize(xi, opt);
      core.run(xi, kSteps);
      auto g = gather_global(core.op_context(), ctx, core.topology(), xi);
      if (ctx.world_rank() == 0) cavar = std::move(g);
    });
    return state::State::max_abs_diff(orig, cavar, orig.interior());
  };

  const double d1 = diff_for(1.0);
  const double d2 = diff_for(0.5);
  EXPECT_LT(d1, 1e-2) << "CA must stay close to the exact iteration";
  if (d1 > 1e-12) {
    EXPECT_LT(d2, 0.6 * d1)
        << "approximation error must shrink with dt (got " << d1 << " -> "
        << d2 << ")";
  }
}

TEST(CAvsOriginal, ExactIterationMatchesOriginalClosely) {
  // With the approximate iteration disabled, CA differs from the original
  // only by redundant halo computation and smoothing splitting — pure
  // floating-point effects.
  const DycoreConfig cfg = test_config();
  constexpr int kSteps = 2;
  const auto ic = state::InitialCondition::kPlanetaryWave;
  state::State orig, cavar;
  comm::Runtime::run(2, [&](comm::Context& ctx) {
    OriginalCore core(cfg, ctx, DecompScheme::kYZ, {1, 2, 1});
    auto xi = core.make_state();
    state::InitialOptions opt;
    opt.kind = ic;
    core.initialize(xi, opt);
    core.run(xi, kSteps);
    auto g = gather_global(core.op_context(), ctx, core.topology(), xi);
    if (ctx.world_rank() == 0) orig = std::move(g);
  });
  comm::Runtime::run(2, [&](comm::Context& ctx) {
    CAOptions opts;
    opts.approximate_iteration = false;
    opts.fresh_c_on_block_face = false;  // exact mode for the comparison
    CACore core(cfg, ctx, {1, 2, 1}, opts);
    auto xi = core.make_state();
    state::InitialOptions opt;
    opt.kind = ic;
    core.initialize(xi, opt);
    core.run(xi, kSteps);
    auto g = gather_global(core.op_context(), ctx, core.topology(), xi);
    if (ctx.world_rank() == 0) cavar = std::move(g);
  });
  const double diff =
      state::State::max_abs_diff(orig, cavar, orig.interior());
  EXPECT_LT(diff, 1e-7);
}

TEST(MessageCounts, CAReducesExchangesFrom3MPlus4To2) {
  // The headline communication-frequency claim: the original algorithm
  // performs 3M + 4 neighbor exchanges per step, the CA algorithm 2.
  const DycoreConfig cfg = test_config();  // M = 2 -> 10 vs 2
  const auto ic = state::InitialCondition::kPlanetaryWave;

  comm::Runtime::run(2, [&](comm::Context& ctx) {
    OriginalCore core(cfg, ctx, DecompScheme::kYZ, {1, 2, 1});
    auto xi = core.make_state();
    state::InitialOptions opt;
    opt.kind = ic;
    core.initialize(xi, opt);
    auto before = ctx.stats().phase_totals(util::Phase::kStencil);
    core.step(xi);
    auto after = ctx.stats().phase_totals(util::Phase::kStencil);
    // 4 items per exchange (U, V, Phi, psa), one neighbor, (3M + 4)
    // exchanges.
    const auto sent = after.p2p_messages - before.p2p_messages;
    EXPECT_EQ(sent, static_cast<std::uint64_t>(4 * (3 * cfg.M + 4)));
  });

  comm::Runtime::run(2, [&](comm::Context& ctx) {
    CACore core(cfg, ctx, {1, 2, 1});
    auto xi = core.make_state();
    state::InitialOptions opt;
    opt.kind = ic;
    core.initialize(xi, opt);
    core.step(xi);  // step 1: no smoothing yet
    auto before = ctx.stats().phase_totals(util::Phase::kStencil);
    core.step(xi);  // steady-state step
    auto after = ctx.stats().phase_totals(util::Phase::kStencil);
    const auto sent = after.p2p_messages - before.p2p_messages;
    // Exchange 1 carries xi plus the C products plus the fused
    // pre-smoothing rows: U, V, Phi, psa, divsum, sdot, w, phi_geo,
    // pre-Phi, pre-psa = 10 items (the paper's "length of xi being ten");
    // exchange 2 carries U, V, Phi, psa, sdot = 5.  One neighbor each.
    EXPECT_EQ(sent, 15u);
  });
}

TEST(CollectiveCounts, CAUsesTwoThirdsOfOriginalZCollectives) {
  DycoreConfig cfg = test_config();
  cfg.nz = 16;  // the CA deep z-halos need nz/pz >= 3M
  const auto ic = state::InitialCondition::kPlanetaryWave;
  std::uint64_t orig_calls = 0, ca_calls = 0;

  comm::Runtime::run(2, [&](comm::Context& ctx) {
    OriginalCore core(cfg, ctx, DecompScheme::kYZ, {1, 1, 2});
    auto xi = core.make_state();
    state::InitialOptions opt;
    opt.kind = ic;
    core.initialize(xi, opt);
    auto before = ctx.stats().phase_totals(util::Phase::kCollective);
    core.step(xi);
    auto after = ctx.stats().phase_totals(util::Phase::kCollective);
    if (ctx.world_rank() == 0)
      orig_calls = after.collective_calls - before.collective_calls;
  });
  comm::Runtime::run(2, [&](comm::Context& ctx) {
    CACore core(cfg, ctx, {1, 1, 2});
    auto xi = core.make_state();
    state::InitialOptions opt;
    opt.kind = ic;
    core.initialize(xi, opt);
    core.step(xi);
    auto before = ctx.stats().phase_totals(util::Phase::kCollective);
    core.step(xi);
    auto after = ctx.stats().phase_totals(util::Phase::kCollective);
    if (ctx.world_rank() == 0)
      ca_calls = after.collective_calls - before.collective_calls;
  });
  // Per step the original executes C 3M times, CA 2M times; each C is a
  // fixed number of collective calls (allreduce [+ nested bcast for the
  // ordered algorithm] + exscan), so the ratio must be exactly 2:3.
  EXPECT_GT(ca_calls, 0u);
  EXPECT_EQ(orig_calls * 2, ca_calls * 3)
      << "CA must eliminate exactly one third of the z collectives";
  EXPECT_EQ(orig_calls % (3 * cfg.M), 0u);
}

}  // namespace
}  // namespace ca::core
