// Serial reference core: exact rest-state preservation, stability on
// smooth initial conditions, conservation of the quadratic invariant
// under pure advection, and basic diagnostics.
#include <gtest/gtest.h>

#include <cmath>

#include "core/diagnostics.hpp"
#include "core/exchange.hpp"
#include "core/serial_core.hpp"
#include "ops/advection.hpp"
#include "ops/tendency.hpp"
#include "state/transforms.hpp"

namespace ca::core {
namespace {

DycoreConfig small_config() {
  DycoreConfig c;
  c.nx = 24;
  c.ny = 12;
  c.nz = 6;
  c.M = 2;
  c.dt_adapt = 30.0;
  c.dt_advect = 120.0;
  return c;
}

TEST(SerialCore, RestStateIsExactFixedPoint) {
  SerialCore core(small_config());
  auto xi = core.make_state();
  state::InitialOptions opt;
  opt.kind = state::InitialCondition::kRestIsothermal;
  core.initialize(xi, opt);
  auto zero = core.make_state();
  core.run(xi, 3);
  EXPECT_DOUBLE_EQ(state::State::max_abs_diff(xi, zero, xi.interior()), 0.0)
      << "an isothermal rest state must be an exact discrete fixed point";
}

TEST(SerialCore, RestTendenciesVanish) {
  SerialCore core(small_config());
  auto xi = core.make_state();
  state::InitialOptions opt;
  opt.kind = state::InitialCondition::kRestIsothermal;
  core.initialize(xi, opt);
  auto tend = core.make_state();
  tend.fill(999.0);
  core.adaptation_tendency(xi, tend);
  auto zero = core.make_state();
  EXPECT_DOUBLE_EQ(state::State::max_abs_diff(tend, zero, xi.interior()),
                   0.0);
  tend.fill(999.0);
  core.advection_tendency(xi, tend);
  EXPECT_DOUBLE_EQ(state::State::max_abs_diff(tend, zero, xi.interior()),
                   0.0);
}

TEST(SerialCore, CoriolisDeflectsWesterliesToTheRight) {
  // A uniform physical westerly over a flat isothermal atmosphere feels
  // only the (effective) Coriolis force: rightward deflection, i.e.
  // southward (V > 0 in this convention) in the northern hemisphere and
  // northward in the southern.
  const auto cfg = small_config();
  SerialCore core(cfg);
  auto xi = core.make_state();
  state::InitialOptions opt;
  opt.kind = state::InitialCondition::kRestIsothermal;
  core.initialize(xi, opt);
  for (int k = 0; k < cfg.nz; ++k)
    for (int j = 0; j < cfg.ny; ++j)
      for (int i = 0; i < cfg.nx; ++i)
        xi.u()(i, j, k) =
            10.0 * state::p_factor_u(xi.psa(), core.strat(), i, j);
  core.fill_boundaries(xi);
  auto tend = core.make_state();
  core.adaptation_tendency(xi, tend);
  // Interior V rows (v(j) sits between theta rows j and j+1; skip the
  // pole-adjacent rows where the flux is pinned to zero).
  double north = 0.0, south = 0.0;
  for (int k = 0; k < cfg.nz; ++k)
    for (int i = 0; i < cfg.nx; ++i) {
      for (int j = 1; j < cfg.ny / 2 - 1; ++j) north += tend.v()(i, j, k);
      for (int j = cfg.ny / 2 + 1; j < cfg.ny - 1; ++j)
        south += tend.v()(i, j, k);
    }
  EXPECT_GT(north, 0.0) << "NH westerly must accelerate southward (right)";
  EXPECT_LT(south, 0.0) << "SH westerly must accelerate northward (right)";
}

TEST(SerialCore, PressureGradientForceOpposesGradient) {
  // A zonal warm/cold wave in Phi raises the hydrostatic geopotential
  // over warm columns; the adaptation force on u must point DOWN that
  // geopotential gradient (inner product strictly negative).
  const auto cfg = small_config();
  SerialCore core(cfg);
  auto xi = core.make_state();
  state::InitialOptions opt;
  opt.kind = state::InitialCondition::kRestIsothermal;
  core.initialize(xi, opt);
  for (int k = 0; k < cfg.nz; ++k)
    for (int j = 0; j < cfg.ny; ++j)
      for (int i = 0; i < cfg.nx; ++i)
        xi.phi()(i, j, k) =
            5.0 * std::sin(2.0 * util::kPi * i / cfg.nx);
  core.fill_boundaries(xi);

  ops::DiagWorkspace ws(cfg.nx, cfg.ny, cfg.nz, halos_for_depth(1));
  ops::compute_local_diag(core.op_context(), xi, xi.interior(), ws);
  compute_c(core.op_context(), nullptr, nullptr, xi, xi.interior(), ws,
            comm::AllreduceAlgorithm::kAuto);
  auto tend = core.make_state();
  core.adaptation_tendency(xi, tend);

  double inner = 0.0;
  for (int k = 0; k < cfg.nz; ++k)
    for (int j = 1; j < cfg.ny - 1; ++j)
      for (int i = 0; i < cfg.nx; ++i)
        inner += tend.u()(i, j, k) *
                 (ws.vert.phi_geo(i, j, k) - ws.vert.phi_geo(i - 1, j, k));
  EXPECT_LT(inner, 0.0)
      << "the pressure-gradient force must push air from high to low";
}

TEST(SerialCore, JetRunsStably) {
  auto cfg = small_config();
  SerialCore core(cfg);
  auto xi = core.make_state();
  state::InitialOptions opt;
  opt.kind = state::InitialCondition::kZonalJet;
  core.initialize(xi, opt);
  const GlobalDiag before = local_diagnostics(core.op_context(), xi);
  core.run(xi, 10);
  const GlobalDiag after = local_diagnostics(core.op_context(), xi);
  EXPECT_TRUE(std::isfinite(after.total_energy()));
  EXPECT_GT(after.quad_energy, 0.0);
  // Smoothing and filtering dissipate; energy must not blow up.
  EXPECT_LT(after.total_energy(), 2.0 * before.total_energy() + 1.0);
  EXPECT_LT(after.max_abs_u, 10.0 * before.max_abs_u + 1.0);
}

TEST(SerialCore, PlanetaryWaveRunsStably) {
  auto cfg = small_config();
  SerialCore core(cfg);
  auto xi = core.make_state();
  state::InitialOptions opt;
  opt.kind = state::InitialCondition::kPlanetaryWave;
  core.initialize(xi, opt);
  core.run(xi, 10);
  const GlobalDiag d = local_diagnostics(core.op_context(), xi);
  EXPECT_TRUE(std::isfinite(d.total_energy()));
  EXPECT_LT(d.max_abs_u, 500.0);
  EXPECT_LT(d.max_abs_psa, 5.0e4);
}

TEST(SerialCore, AdvectionConservesQuadraticInvariant) {
  // With 2nd-order (exactly skew-symmetric) x-advection, the weighted
  // inner product <F, L(F)> telescopes to zero in every direction (zero
  // flux at poles and sigma boundaries, periodic in x), so the advection
  // tendency must not change sum w * F^2 at leading order.
  auto cfg = small_config();
  cfg.params.x_order = 2;
  SerialCore core(cfg);
  auto xi = core.make_state();
  state::InitialOptions opt;
  opt.kind = state::InitialCondition::kPlanetaryWave;
  core.initialize(xi, opt);

  auto tend = core.make_state();
  // Unfiltered advection tendency: evaluate the operator directly.
  core.fill_boundaries(xi);
  ops::DiagWorkspace ws(cfg.nx, cfg.ny, cfg.nz, halos_for_depth(1));
  const mesh::Box window = xi.interior();
  ops::compute_local_diag(core.op_context(), xi, window, ws);
  compute_c(core.op_context(), nullptr, nullptr, xi, window, ws,
            cfg.z_allreduce);
  ops::apply_advection(core.op_context(), xi, ws.local, ws.vert, tend,
                       window);

  const auto& ctx = core.op_context();
  double inner = 0.0, scale = 0.0;
  for (int k = 0; k < cfg.nz; ++k) {
    for (int j = 0; j < cfg.ny; ++j) {
      const double wu = ctx.sin_t(j) * ctx.dsig(k);
      const double wv = ctx.sin_tv(j) * ctx.dsig(k);
      for (int i = 0; i < cfg.nx; ++i) {
        inner += wu * xi.u()(i, j, k) * tend.u()(i, j, k);
        inner += wv * xi.v()(i, j, k) * tend.v()(i, j, k);
        inner += wu * xi.phi()(i, j, k) * tend.phi()(i, j, k);
        scale += wu * std::abs(xi.u()(i, j, k) * tend.u()(i, j, k));
        scale += wv * std::abs(xi.v()(i, j, k) * tend.v()(i, j, k));
        scale += wu * std::abs(xi.phi()(i, j, k) * tend.phi()(i, j, k));
      }
    }
  }
  ASSERT_GT(scale, 0.0) << "advection must actually do something";
  EXPECT_LT(std::abs(inner), 1e-10 * scale)
      << "skew-symmetric advection must conserve the quadratic invariant";
}

TEST(SerialCore, FourthOrderAdvectionNearlyConserves) {
  auto cfg = small_config();
  cfg.params.x_order = 4;
  SerialCore core(cfg);
  auto xi = core.make_state();
  state::InitialOptions opt;
  opt.kind = state::InitialCondition::kPlanetaryWave;
  core.initialize(xi, opt);
  core.fill_boundaries(xi);
  ops::DiagWorkspace ws(cfg.nx, cfg.ny, cfg.nz, halos_for_depth(1));
  auto tend = core.make_state();
  const mesh::Box window = xi.interior();
  ops::compute_local_diag(core.op_context(), xi, window, ws);
  compute_c(core.op_context(), nullptr, nullptr, xi, window, ws,
            cfg.z_allreduce);
  ops::apply_advection(core.op_context(), xi, ws.local, ws.vert, tend,
                       window);
  const auto& ctx = core.op_context();
  double inner = 0.0, scale = 0.0;
  for (int k = 0; k < cfg.nz; ++k)
    for (int j = 0; j < cfg.ny; ++j)
      for (int i = 0; i < cfg.nx; ++i) {
        const double wu = ctx.sin_t(j) * ctx.dsig(k);
        inner += wu * xi.phi()(i, j, k) * tend.phi()(i, j, k);
        scale += wu * std::abs(xi.phi()(i, j, k) * tend.phi()(i, j, k));
      }
  ASSERT_GT(scale, 0.0);
  EXPECT_LT(std::abs(inner), 0.05 * scale)
      << "4th-order variant should conserve approximately";
}

TEST(SerialCore, DiagnosticsReportExtrema) {
  SerialCore core(small_config());
  auto xi = core.make_state();
  xi.fill(0.0);
  xi.u()(3, 4, 2) = -7.5;
  xi.psa()(1, 1) = 123.0;
  const GlobalDiag d = local_diagnostics(core.op_context(), xi);
  EXPECT_DOUBLE_EQ(d.max_abs_u, 7.5);
  EXPECT_DOUBLE_EQ(d.max_abs_psa, 123.0);
  EXPECT_GT(d.quad_energy, 0.0);
}

TEST(SerialCore, ZonalMeansMatchInitialJet) {
  auto cfg = small_config();
  SerialCore core(cfg);
  auto xi = core.make_state();
  state::InitialOptions opt;
  opt.kind = state::InitialCondition::kZonalJet;
  opt.jet_speed = 25.0;
  core.initialize(xi, opt);
  auto u_mean = zonal_mean_u(core.op_context(), xi, 1);
  // Jet is symmetric about the equator and vanishes at the poles.
  EXPECT_NEAR(u_mean[0], u_mean[11], 1e-9);
  EXPECT_LT(u_mean[0], u_mean[3]);
  auto t_mean = zonal_mean_t(core.op_context(), xi, 1);
  // Warm equator, cold poles at this level (t anomaly -2 cos(2 theta)).
  EXPECT_GT(t_mean[5], t_mean[0]);
}

}  // namespace
}  // namespace ca::core
