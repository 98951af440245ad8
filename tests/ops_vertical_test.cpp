// Vertical integrals of the operator C: divergence, column sums,
// sigma-dot boundary conditions, hydrostatic consistency, and the exact
// agreement of the distributed (z-split) computation with the serial one.
#include <gtest/gtest.h>

#include <cmath>

#include "comm/runtime.hpp"
#include "comm/topology.hpp"
#include "core/dycore_config.hpp"
#include "core/exchange.hpp"
#include "core/serial_core.hpp"
#include "ops/tendency.hpp"
#include "ops/vertical.hpp"
#include "util/math.hpp"

namespace ca::ops {
namespace {

core::DycoreConfig cfg() {
  core::DycoreConfig c;
  c.nx = 16;
  c.ny = 12;
  c.nz = 8;
  return c;
}

struct Fixture {
  Fixture() : core(cfg()), xi(core.make_state()),
              ws(cfg().nx, cfg().ny, cfg().nz, core::halos_for_depth(1)) {
    state::InitialOptions opt;
    opt.kind = state::InitialCondition::kPlanetaryWave;
    core.initialize(xi, opt);
    for (int j = 0; j < xi.lny(); ++j)
      for (int i = 0; i < xi.lnx(); ++i)
        xi.psa()(i, j) = 200.0 * std::sin(0.5 * i - 0.7 * j);
    core.fill_boundaries(xi);
    ops::compute_local_diag(core.op_context(), xi, xi.interior(), ws);
    core::compute_c(core.op_context(), nullptr, nullptr, xi, xi.interior(), ws,
                    comm::AllreduceAlgorithm::kAuto);
  }
  core::SerialCore core;
  state::State xi;
  DiagWorkspace ws;
};

TEST(Vertical, SurfaceFactorsMatchDefinition) {
  Fixture f;
  const auto& strat = f.core.strat();
  for (int j = 0; j < 12; ++j)
    for (int i = 0; i < 16; ++i) {
      const double pes =
          strat.ps_ref() + f.xi.psa()(i, j) - util::kPressureTop;
      EXPECT_NEAR(f.ws.local.pes(i, j), pes, 1e-9);
      EXPECT_NEAR(f.ws.local.pfac(i, j),
                  std::sqrt(pes / util::kPressureRef), 1e-12);
    }
}

TEST(Vertical, DivergenceOfZonalConstantFlowVanishes) {
  // u = const, v = 0, flat psa: PU is x-uniform so D(P) = 0.
  auto c = cfg();
  core::SerialCore core(c);
  auto xi = core.make_state();
  xi.fill(0.0);
  for (int k = 0; k < c.nz; ++k)
    for (int j = 0; j < c.ny; ++j)
      for (int i = 0; i < c.nx; ++i) xi.u()(i, j, k) = 12.5;
  core.fill_boundaries(xi);
  DiagWorkspace ws(c.nx, c.ny, c.nz, core::halos_for_depth(1));
  ops::compute_local_diag(core.op_context(), xi, xi.interior(), ws);
  core::compute_c(core.op_context(), nullptr, nullptr, xi, xi.interior(), ws,
                  comm::AllreduceAlgorithm::kAuto);
  for (int k = 0; k < c.nz; ++k)
    for (int j = 0; j < c.ny; ++j)
      for (int i = 0; i < c.nx; ++i)
        EXPECT_NEAR(ws.local.div(i, j, k), 0.0, 1e-14);
}

TEST(Vertical, DivsumIsColumnSumOfDiv) {
  Fixture f;
  for (int j = 0; j < 12; ++j)
    for (int i = 0; i < 16; ++i) {
      double sum = 0.0;
      for (int k = 0; k < 8; ++k)
        sum += f.core.levels().dsigma(k) * f.ws.local.div(i, j, k);
      EXPECT_NEAR(f.ws.vert.divsum(i, j), sum, 1e-12 * (std::abs(sum) + 1));
    }
}

TEST(Vertical, SigmaDotVanishesAtTopAndSurface) {
  Fixture f;
  for (int j = 0; j < 12; ++j)
    for (int i = 0; i < 16; ++i) {
      EXPECT_NEAR(f.ws.vert.sdot(i, j, 0), 0.0, 1e-12)
          << "sigma-dot must vanish at the model top";
      EXPECT_NEAR(f.ws.vert.sdot(i, j, 8), 0.0, 1e-9)
          << "sigma-dot must vanish at the surface";
    }
}

TEST(Vertical, WIsPfacTimesSigmaDot) {
  Fixture f;
  for (int k = 0; k <= 8; ++k)
    for (int j = 0; j < 12; ++j)
      for (int i = 0; i < 16; ++i)
        EXPECT_NEAR(f.ws.vert.w(i, j, k),
                    f.ws.local.pfac(i, j) * f.ws.vert.sdot(i, j, k), 1e-12);
}

TEST(Vertical, PhiGeoVanishesForZeroPhi) {
  auto c = cfg();
  core::SerialCore core(c);
  auto xi = core.make_state();
  xi.fill(0.0);
  for (int k = 0; k < c.nz; ++k)
    for (int j = 0; j < c.ny; ++j)
      for (int i = 0; i < c.nx; ++i) xi.u()(i, j, k) = 3.0 * k;
  core.fill_boundaries(xi);
  DiagWorkspace ws(c.nx, c.ny, c.nz, core::halos_for_depth(1));
  ops::compute_local_diag(core.op_context(), xi, xi.interior(), ws);
  core::compute_c(core.op_context(), nullptr, nullptr, xi, xi.interior(), ws,
                  comm::AllreduceAlgorithm::kAuto);
  for (int k = 0; k < c.nz; ++k)
    EXPECT_NEAR(ws.vert.phi_geo(3, 3, k), 0.0, 1e-14);
}

TEST(Vertical, WarmColumnRaisesGeopotentialAloft) {
  // A positive (warm) Phi column gives phi' increasing upward and ~0 at
  // the surface half-step scale.
  auto c = cfg();
  core::SerialCore core(c);
  auto xi = core.make_state();
  xi.fill(0.0);
  for (int k = 0; k < c.nz; ++k)
    for (int j = 0; j < c.ny; ++j)
      for (int i = 0; i < c.nx; ++i) xi.phi()(i, j, k) = 5.0;
  core.fill_boundaries(xi);
  DiagWorkspace ws(c.nx, c.ny, c.nz, core::halos_for_depth(1));
  ops::compute_local_diag(core.op_context(), xi, xi.interior(), ws);
  core::compute_c(core.op_context(), nullptr, nullptr, xi, xi.interior(), ws,
                  comm::AllreduceAlgorithm::kAuto);
  for (int k = 0; k + 1 < c.nz; ++k)
    EXPECT_GT(ws.vert.phi_geo(5, 5, k), ws.vert.phi_geo(5, 5, k + 1))
        << "phi' must increase upward in a warm column";
  EXPECT_GT(ws.vert.phi_geo(5, 5, c.nz - 1), 0.0);
}

TEST(Vertical, HydrostaticIncrementMatchesManualFormula) {
  Fixture f;
  const auto& ctx = f.core.op_context();
  const int i = 4, j = 6, m = 3;
  const double b = util::kGravityWaveSpeed;
  const double expect = b * 0.5 *
                        (f.xi.phi()(i, j, m - 1) + f.xi.phi()(i, j, m)) /
                        (f.ws.local.pfac(i, j) * ctx.sig_half(m)) *
                        (ctx.sig(m) - ctx.sig(m - 1));
  EXPECT_NEAR(hydrostatic_increment(ctx, f.xi, f.ws.local, i, j, m), expect,
              1e-12 * (std::abs(expect) + 1));
}

class ZSplitSweep : public ::testing::TestWithParam<int> {};

TEST_P(ZSplitSweep, DistributedColumnsMatchSerial) {
  const int pz = GetParam();
  Fixture ref;
  comm::Runtime::run(pz, [&](comm::Context& cc) {
    auto topo = comm::make_cart(cc, cc.world(), {1, 1, pz},
                                {true, false, false});
    auto c = cfg();
    mesh::LatLonMesh mesh(c.nx, c.ny, c.nz);
    auto levels = mesh::SigmaLevels::uniform(c.nz);
    state::Stratification strat(levels);
    mesh::DomainDecomp d(mesh, {1, 1, pz}, topo.coords);
    OpContext ctx{&mesh, &levels, &strat, &d, ModelParams{}};
    state::State xi(d.lnx(), d.lny(), d.lnz(), core::halos_for_depth(1));
    // Copy the serial fixture's state slice (including z halos).
    const auto h = xi.u().halo();
    for (int k = -h.z; k < d.lnz() + h.z; ++k) {
      const int gk = d.gk(k);
      if (gk < -1 || gk > c.nz) continue;
      const int gkc = std::min(std::max(gk, -1), c.nz);
      for (int j = -h.y; j < d.lny() + h.y; ++j)
        for (int i = -h.x; i < d.lnx() + h.x; ++i) {
          xi.u()(i, j, k) = ref.xi.u()(i, j, gkc);
          xi.v()(i, j, k) = ref.xi.v()(i, j, gkc);
          xi.phi()(i, j, k) = ref.xi.phi()(i, j, gkc);
        }
    }
    for (int j = -xi.psa().hy(); j < d.lny() + xi.psa().hy(); ++j)
      for (int i = -xi.psa().hx(); i < d.lnx() + xi.psa().hx(); ++i)
        xi.psa()(i, j) = ref.xi.psa()(i, j);

    DiagWorkspace ws(d.lnx(), d.lny(), d.lnz(), core::halos_for_depth(1));
    ops::compute_local_diag(ctx, xi, xi.interior(), ws);
    core::compute_c(ctx, &cc, &topo.line_z, xi, xi.interior(), ws,
                    comm::AllreduceAlgorithm::kAuto);
    for (int k = 0; k < d.lnz(); ++k)
      for (int j = 0; j < d.lny(); ++j)
        for (int i = 0; i < d.lnx(); ++i) {
          EXPECT_NEAR(ws.vert.sdot(i, j, k),
                      ref.ws.vert.sdot(i, j, d.gk(k)), 1e-12);
          EXPECT_NEAR(ws.vert.phi_geo(i, j, k),
                      ref.ws.vert.phi_geo(i, j, d.gk(k)), 1e-9);
          EXPECT_NEAR(ws.vert.divsum(i, j), ref.ws.vert.divsum(i, j),
                      1e-12);
        }
  });
}

INSTANTIATE_TEST_SUITE_P(Pz, ZSplitSweep, ::testing::Values(1, 2, 4, 8),
                         [](const ::testing::TestParamInfo<int>& i) {
                           return "pz" + std::to_string(i.param);
                         });

}  // namespace
}  // namespace ca::ops
