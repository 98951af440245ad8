// Terrain (surface geopotential): the sigma coordinate following a
// mountain.  Flat terrain must be bitwise identical to the no-terrain
// path; a hydrostatically initialized mountain state must stay
// near-steady (the classic sigma-coordinate pressure-gradient error stays
// small); the distributed runs must agree.
#include <gtest/gtest.h>

#include <cmath>

#include "comm/runtime.hpp"
#include "core/diagnostics.hpp"
#include "core/exchange.hpp"
#include "core/original_core.hpp"
#include "core/serial_core.hpp"
#include "state/initial.hpp"
#include "util/math.hpp"

namespace ca {
namespace {

core::DycoreConfig cfg() {
  core::DycoreConfig c;
  c.nx = 32;
  c.ny = 16;
  c.nz = 8;
  c.M = 2;
  c.dt_adapt = 30.0;
  c.dt_advect = 120.0;
  return c;
}

TEST(Terrain, FlatTerrainIsBitwiseIdenticalToNoTerrain) {
  const auto c = cfg();
  core::SerialCore a(c), b(c);
  mesh::LatLonMesh mesh(c.nx, c.ny, c.nz);
  const auto halo = core::halos_for_depth(1);
  auto flat = state::make_terrain(mesh, a.decomp(), halo.hx2, halo.hy2,
                                  [](double, double) { return 0.0; });
  b.set_terrain(&flat);

  auto xa = a.make_state();
  auto xb = b.make_state();
  state::InitialOptions opt;
  opt.kind = state::InitialCondition::kPlanetaryWave;
  a.initialize(xa, opt);
  b.initialize(xb, opt);
  a.run(xa, 2);
  b.run(xb, 2);
  EXPECT_DOUBLE_EQ(state::State::max_abs_diff(xa, xb, xa.interior()), 0.0);
}

TEST(Terrain, GaussianMountainEvaluatesConsistently) {
  mesh::LatLonMesh mesh(32, 16, 8);
  auto fn = state::gaussian_mountain(2000.0, util::kPi, util::kPi / 2,
                                     0.5);
  EXPECT_NEAR(fn(util::kPi, util::kPi / 2), util::kGravity * 2000.0, 1e-6);
  EXPECT_LT(fn(0.0, util::kPi / 2), 0.01 * util::kGravity * 2000.0)
      << "antipode must be nearly flat";
  // Decomposition invariance of the evaluated field.
  mesh::DomainDecomp whole(mesh, {1, 1, 1}, {0, 0, 0});
  mesh::DomainDecomp part(mesh, {1, 2, 1}, {0, 1, 0});
  auto g_all = state::make_terrain(mesh, whole, 3, 3, fn);
  auto g_part = state::make_terrain(mesh, part, 3, 3, fn);
  for (int j = 0; j < part.lny(); ++j)
    for (int i = 0; i < 32; ++i)
      EXPECT_DOUBLE_EQ(g_part(i, j), g_all(i, part.gj(j)));
}

TEST(Terrain, HydrostaticRestStateOverMountainStaysNearSteady) {
  const auto c = cfg();
  core::SerialCore core(c);
  mesh::LatLonMesh mesh(c.nx, c.ny, c.nz);
  const auto halo = core::halos_for_depth(1);
  auto mountain = state::make_terrain(
      mesh, core.decomp(), halo.hx2, halo.hy2,
      state::gaussian_mountain(1500.0, util::kPi, util::kPi / 2, 0.6));
  core.set_terrain(&mountain);

  auto xi = core.make_state();
  state::InitialOptions opt;
  opt.kind = state::InitialCondition::kRestIsothermal;
  core.initialize(xi, opt);
  state::apply_terrain_surface_pressure(xi, core.strat(), mountain,
                                        core.decomp());
  core.fill_boundaries(xi);

  core.run(xi, 10);
  const auto d = core::local_diagnostics(core.op_context(), xi);
  EXPECT_TRUE(std::isfinite(d.total_energy()));
  // The discrete hydrostatic balance is not exact (the classic
  // sigma-coordinate PGF error + the isothermal-vs-stratified mismatch),
  // but spurious winds must stay a small fraction of real flows.
  EXPECT_LT(d.max_abs_u, 8.0)
      << "spurious mountain winds must stay weak (PGF error)";
  EXPECT_LT(d.max_abs_v, 8.0);
}

TEST(Terrain, MountainTorqueSpinsUpFlowFromUniformWind) {
  // A zonal jet hitting a mountain must develop meridional flow (flow
  // deflection) — terrain must actually couple into the dynamics.
  const auto c = cfg();
  core::SerialCore flat_core(c), mtn_core(c);
  mesh::LatLonMesh mesh(c.nx, c.ny, c.nz);
  const auto halo = core::halos_for_depth(1);
  auto mountain = state::make_terrain(
      mesh, mtn_core.decomp(), halo.hx2, halo.hy2,
      state::gaussian_mountain(1500.0, util::kPi / 2, util::kPi / 3, 0.5));
  mtn_core.set_terrain(&mountain);

  state::InitialOptions opt;
  opt.kind = state::InitialCondition::kZonalJet;
  auto xf = flat_core.make_state();
  auto xm = mtn_core.make_state();
  flat_core.initialize(xf, opt);
  mtn_core.initialize(xm, opt);
  state::apply_terrain_surface_pressure(xm, mtn_core.strat(), mountain,
                                        mtn_core.decomp());
  mtn_core.fill_boundaries(xm);

  flat_core.run(xf, 5);
  mtn_core.run(xm, 5);
  const double diff = state::State::max_abs_diff(xf, xm, xf.interior());
  EXPECT_GT(diff, 1e-3) << "the mountain must alter the flow";
  const auto d = core::local_diagnostics(mtn_core.op_context(), xm);
  EXPECT_TRUE(std::isfinite(d.total_energy()));
  EXPECT_LT(d.max_abs_u, 200.0);
}

TEST(Terrain, DistributedRunMatchesSerial) {
  const auto c = cfg();
  auto fn = state::gaussian_mountain(1200.0, util::kPi, util::kPi / 2, 0.6);
  const auto halo = core::halos_for_depth(1);
  mesh::LatLonMesh mesh(c.nx, c.ny, c.nz);

  core::SerialCore serial(c);
  auto terrain_s =
      state::make_terrain(mesh, serial.decomp(), halo.hx2, halo.hy2, fn);
  serial.set_terrain(&terrain_s);
  auto ref = serial.make_state();
  state::InitialOptions opt;
  opt.kind = state::InitialCondition::kZonalJet;
  serial.initialize(ref, opt);
  state::apply_terrain_surface_pressure(ref, serial.strat(), terrain_s,
                                        serial.decomp());
  serial.fill_boundaries(ref);
  serial.run(ref, 2);

  comm::Runtime::run(4, [&](comm::Context& ctx) {
    core::OriginalCore core(c, ctx, core::DecompScheme::kYZ, {1, 2, 2});
    auto terrain =
        state::make_terrain(mesh, core.decomp(), halo.hx2, halo.hy2, fn);
    core.set_terrain(&terrain);
    auto xi = core.make_state();
    core.initialize(xi, opt);
    state::apply_terrain_surface_pressure(xi, core.strat()
                                              /* via op_context */,
                                          terrain, core.decomp());
    core.refresh_halos(xi);
    core.run(xi, 2);
    auto g = core::gather_global(core.op_context(), ctx, core.topology(),
                                 xi);
    if (ctx.world_rank() == 0) {
      EXPECT_LT(state::State::max_abs_diff(g, ref, ref.interior()), 1e-8)
          << "terrain runs must be decomposition-invariant";
    }
  });
}

}  // namespace
}  // namespace ca
