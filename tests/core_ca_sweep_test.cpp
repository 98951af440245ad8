// Parameter sweeps of the communication-avoiding core: every combination
// of M, finite-difference order, vertical-level stretching, and
// decomposition must (a) run stably and (b) remain
// decomposition-invariant in exact mode.
#include <gtest/gtest.h>

#include <array>

#include "comm/runtime.hpp"
#include "core/ca_core.hpp"
#include "core/diagnostics.hpp"
#include "core/exchange.hpp"

namespace ca::core {
namespace {

struct SweepCase {
  int M;
  int x_order;
  bool stretched;
  std::array<int, 3> dims;
};

std::string case_name(const ::testing::TestParamInfo<SweepCase>& info) {
  const auto& c = info.param;
  return "M" + std::to_string(c.M) + "_ord" + std::to_string(c.x_order) +
         (c.stretched ? "_str" : "_uni") + "_py" +
         std::to_string(c.dims[1]) + "pz" + std::to_string(c.dims[2]);
}

DycoreConfig sweep_config(const SweepCase& c) {
  DycoreConfig cfg;
  cfg.nx = 24;
  // Block-size constraint: ny/py >= 3M + 2.
  cfg.ny = c.dims[1] * (3 * c.M + 4);
  cfg.nz = std::max(8, c.dims[2] * 4);
  cfg.M = c.M;
  cfg.dt_adapt = 30.0;
  cfg.dt_advect = 120.0;
  cfg.params.x_order = c.x_order;
  cfg.stretched_levels = c.stretched;
  cfg.z_allreduce = comm::AllreduceAlgorithm::kLinearOrdered;
  return cfg;
}

class CASweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(CASweep, StableAndDecompositionInvariant) {
  const auto& param = GetParam();
  const auto cfg = sweep_config(param);
  const auto ic = state::InitialCondition::kPlanetaryWave;
  constexpr int kSteps = 2;

  CAOptions opts;
  opts.fresh_c_on_block_face = false;  // exact mode

  state::State reference;
  comm::Runtime::run(1, [&](comm::Context& ctx) {
    CACore core(cfg, ctx, {1, 1, 1}, opts);
    auto xi = core.make_state();
    state::InitialOptions o;
    o.kind = ic;
    core.initialize(xi, o);
    core.run(xi, kSteps);
    reference = gather_global(core.op_context(), ctx, core.topology(), xi);
  });

  // Stability.
  GlobalDiag diag;
  {
    mesh::LatLonMesh mesh(cfg.nx, cfg.ny, cfg.nz);
    auto levels = cfg.stretched_levels ? mesh::SigmaLevels::stretched(cfg.nz)
                                       : mesh::SigmaLevels::uniform(cfg.nz);
    state::Stratification strat(levels);
    mesh::DomainDecomp d(mesh, {1, 1, 1}, {0, 0, 0});
    ops::OpContext ctx{&mesh, &levels, &strat, &d, cfg.params};
    diag = local_diagnostics(ctx, reference);
  }
  EXPECT_TRUE(std::isfinite(diag.total_energy()));
  EXPECT_LT(diag.max_abs_u, 500.0);

  const int p = param.dims[0] * param.dims[1] * param.dims[2];
  comm::Runtime::run(p, [&](comm::Context& ctx) {
    CACore core(cfg, ctx, param.dims, opts);
    auto xi = core.make_state();
    state::InitialOptions o;
    o.kind = ic;
    core.initialize(xi, o);
    core.run(xi, kSteps);
    auto g = gather_global(core.op_context(), ctx, core.topology(), xi);
    if (ctx.world_rank() == 0) {
      EXPECT_LT(state::State::max_abs_diff(g, reference,
                                           reference.interior()),
                1e-8)
          << case_name({GetParam(), 0});
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Parameters, CASweep,
    ::testing::Values(SweepCase{2, 4, false, {1, 2, 1}},
                      SweepCase{3, 4, false, {1, 2, 1}},
                      SweepCase{4, 4, false, {1, 2, 1}},
                      SweepCase{2, 2, false, {1, 2, 1}},
                      SweepCase{2, 4, true, {1, 2, 1}},
                      SweepCase{2, 4, false, {1, 2, 2}},
                      SweepCase{2, 2, true, {1, 2, 2}},
                      SweepCase{3, 4, false, {1, 3, 1}}),
    case_name);

TEST(CASweepCounts, ExchangeCountIndependentOfM) {
  // Two exchanges per steady step for every M — the whole point.
  for (int M : {2, 3, 4}) {
    DycoreConfig cfg;
    cfg.nx = 24;
    cfg.ny = 2 * (3 * M + 4);
    cfg.nz = 8;
    cfg.M = M;
    comm::Runtime::run(2, [&](comm::Context& ctx) {
      CACore core(cfg, ctx, {1, 2, 1});
      auto xi = core.make_state();
      state::InitialOptions o;
      o.kind = state::InitialCondition::kPlanetaryWave;
      core.initialize(xi, o);
      core.step(xi);
      auto before = ctx.stats().phase_totals(util::Phase::kStencil);
      core.step(xi);
      auto after = ctx.stats().phase_totals(util::Phase::kStencil);
      // 10 items in the adaptation exchange + 5 in the advection one,
      // one neighbor.
      EXPECT_EQ(after.p2p_messages - before.p2p_messages, 15u)
          << "M = " << M;
    });
  }
}

}  // namespace
}  // namespace ca::core
