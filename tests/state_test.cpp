// State container arithmetic, stratification, and initial conditions.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/dycore_config.hpp"
#include "mesh/decomp.hpp"
#include "state/initial.hpp"
#include "state/state.hpp"
#include "state/stratification.hpp"
#include "util/math.hpp"

namespace ca::state {
namespace {

StateHalo test_halo() { return core::halos_for_depth(1); }

TEST(State, RegionScopedArithmetic) {
  State a(4, 4, 3, test_halo()), b(4, 4, 3, test_halo()),
      c(4, 4, 3, test_halo());
  a.fill(1.0);
  b.fill(2.0);
  c.fill(-5.0);
  mesh::Box half{0, 4, 0, 2, 0, 3};
  c.add_scaled(a, 3.0, b, half);
  EXPECT_DOUBLE_EQ(c.u()(0, 0, 0), 7.0);
  EXPECT_DOUBLE_EQ(c.phi()(3, 1, 2), 7.0);
  EXPECT_DOUBLE_EQ(c.psa()(0, 1), 7.0);
  EXPECT_DOUBLE_EQ(c.u()(0, 3, 0), -5.0) << "outside region untouched";
  EXPECT_DOUBLE_EQ(c.psa()(0, 3), -5.0);

  c.average(a, b, half);
  EXPECT_DOUBLE_EQ(c.v()(1, 0, 1), 1.5);
  c.assign(b, half);
  EXPECT_DOUBLE_EQ(c.v()(1, 1, 1), 2.0);
}

TEST(State, RegionClipsToAllocatedHalo) {
  State a(4, 4, 3, test_halo()), b(4, 4, 3, test_halo());
  a.fill(1.0);
  b.fill(0.0);
  // A huge region must clip instead of crashing.
  b.assign(a, mesh::Box{-100, 100, -100, 100, -100, 100});
  EXPECT_DOUBLE_EQ(b.u()(-3, -2, -1), 1.0);
  EXPECT_DOUBLE_EQ(b.u()(6, 5, 3), 1.0);
}

TEST(State, MaxAbsDiff) {
  State a(3, 3, 2, test_halo()), b(3, 3, 2, test_halo());
  a.fill(0.0);
  b.fill(0.0);
  b.phi()(1, 2, 1) = 0.25;
  b.psa()(2, 0) = -0.5;
  EXPECT_DOUBLE_EQ(State::max_abs_diff(a, b, a.interior()), 0.5);
}

TEST(State, MaxAbsDiffReportsNaN) {
  // One NaN cell against a finite state must never read as "equal", even
  // when a larger finite difference comes after it in the scan.
  State a(4, 3, 2, test_halo()), b(4, 3, 2, test_halo());
  a.fill(1.0);
  b.fill(1.0);
  b.u()(0, 0, 0) = std::numeric_limits<double>::quiet_NaN();
  b.psa()(3, 2) = 5.0;
  const double diff = State::max_abs_diff(a, b, a.interior());
  EXPECT_TRUE(std::isnan(diff)) << diff;
  EXPECT_FALSE(diff == 0.0);
  EXPECT_TRUE(std::isnan(State::max_abs_diff(b, a, a.interior())));
}

TEST(Stratification, StandardAtmosphereProfile) {
  auto levels = mesh::SigmaLevels::uniform(20);
  Stratification strat(levels);
  EXPECT_NEAR(Stratification::t_standard(strat.ps_ref()), 288.15, 1.0);
  // Temperature decreases with height until the isothermal stratosphere.
  EXPECT_LT(strat.t_ref(0), strat.t_ref(19));
  EXPECT_GE(strat.t_ref(0), 216.0);
  // P factor of the reference state.
  EXPECT_NEAR(strat.p_factor_ref(),
              std::sqrt((1.0e5 - 220.0) / 1.0e5), 1e-12);
  EXPECT_GT(strat.rho_sa(), 1.0);
  EXPECT_LT(strat.rho_sa(), 1.5);
}

TEST(Stratification, TStandardMonotoneInPressure) {
  double prev = 0.0;
  for (double p : {5e3, 2e4, 5e4, 8e4, 1e5}) {
    const double t = Stratification::t_standard(p);
    EXPECT_GE(t, 216.65);
    EXPECT_GE(t, prev);
    prev = t;
  }
}

class InitialSweep : public ::testing::TestWithParam<InitialCondition> {};

TEST_P(InitialSweep, DecompositionInvariant) {
  // The same global state must emerge from any decomposition.
  mesh::LatLonMesh mesh(24, 12, 6);
  auto levels = mesh::SigmaLevels::uniform(6);
  Stratification strat(levels);
  InitialOptions opt;
  opt.kind = GetParam();

  mesh::DomainDecomp whole(mesh, {1, 1, 1}, {0, 0, 0});
  State global(24, 12, 6, test_halo());
  initialize(global, mesh, levels, strat, whole, opt);

  mesh::DomainDecomp part(mesh, {1, 3, 2}, {0, 1, 1});
  State local(24, part.lny(), part.lnz(), test_halo());
  initialize(local, mesh, levels, strat, part, opt);

  for (int k = 0; k < part.lnz(); ++k)
    for (int j = 0; j < part.lny(); ++j)
      for (int i = 0; i < part.lnx(); ++i) {
        EXPECT_DOUBLE_EQ(local.u()(i, j, k),
                         global.u()(part.gi(i), part.gj(j), part.gk(k)));
        EXPECT_DOUBLE_EQ(local.phi()(i, j, k),
                         global.phi()(part.gi(i), part.gj(j), part.gk(k)));
      }
  for (int j = 0; j < part.lny(); ++j)
    for (int i = 0; i < part.lnx(); ++i)
      EXPECT_DOUBLE_EQ(local.psa()(i, j),
                       global.psa()(part.gi(i), part.gj(j)));
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, InitialSweep,
    ::testing::Values(InitialCondition::kRestIsothermal,
                      InitialCondition::kZonalJet,
                      InitialCondition::kPlanetaryWave,
                      InitialCondition::kRandomPerturbation),
    [](const ::testing::TestParamInfo<InitialCondition>& i) {
      switch (i.param) {
        case InitialCondition::kRestIsothermal:
          return std::string("rest");
        case InitialCondition::kZonalJet:
          return std::string("jet");
        case InitialCondition::kPlanetaryWave:
          return std::string("wave");
        default:
          return std::string("random");
      }
    });

TEST(Initial, JetHasExpectedStructure) {
  mesh::LatLonMesh mesh(24, 12, 6);
  auto levels = mesh::SigmaLevels::uniform(6);
  Stratification strat(levels);
  mesh::DomainDecomp whole(mesh, {1, 1, 1}, {0, 0, 0});
  State xi(24, 12, 6, test_halo());
  InitialOptions opt;
  opt.kind = InitialCondition::kZonalJet;
  initialize(xi, mesh, levels, strat, whole, opt);
  // Westerly (positive U) everywhere, peak away from equator and poles,
  // V identically zero.
  double max_u = 0.0;
  for (int j = 0; j < 12; ++j) max_u = std::max(max_u, xi.u()(0, j, 1));
  EXPECT_GT(max_u, 0.0);
  EXPECT_DOUBLE_EQ(xi.v()(5, 5, 2), 0.0);
  // Zonally uniform.
  EXPECT_DOUBLE_EQ(xi.u()(0, 4, 1), xi.u()(13, 4, 1));
  EXPECT_DOUBLE_EQ(xi.psa()(3, 3), 0.0);
}

}  // namespace
}  // namespace ca::state
