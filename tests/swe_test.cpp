// Shallow-water testbed: fixed points, conservation, wave radiation,
// geostrophic near-balance, and parallel equivalence — the library's
// substrates exercised by an independent model.
#include <gtest/gtest.h>

#include <cmath>

#include "comm/collectives.hpp"
#include "comm/runtime.hpp"
#include "swe/shallow_water.hpp"

namespace ca::swe {
namespace {

SweConfig small() {
  SweConfig c;
  c.nx = 48;
  c.ny = 24;
  c.dt = 60.0;
  return c;
}

void run(ShallowWaterCore& core, SweState& s, int steps) {
  for (int n = 0; n < steps; ++n) core.step(s);
}

TEST(ShallowWater, RestStateIsExactFixedPoint) {
  ShallowWaterCore core(small());
  auto s = core.make_state();
  core.initialize(s, SweInitial::kRest);
  const double m0 = core.local_mass(s);
  run(core, s, 5);
  EXPECT_DOUBLE_EQ(core.max_abs_velocity(s), 0.0);
  EXPECT_DOUBLE_EQ(core.local_mass(s), m0);
  for (int j = 0; j < 24; ++j)
    for (int i = 0; i < 48; ++i)
      EXPECT_DOUBLE_EQ(s.h(i, j), 8000.0);
}

TEST(ShallowWater, MassIsConservedToRoundoff) {
  ShallowWaterCore core(small());
  auto s = core.make_state();
  core.initialize(s, SweInitial::kGravityWave);
  const double m0 = core.local_mass(s);
  run(core, s, 20);
  const double m1 = core.local_mass(s);
  EXPECT_NEAR(m1 / m0, 1.0, 1e-11)
      << "flux-form continuity must conserve mass";
}

TEST(ShallowWater, GravityWaveRadiatesWithoutBlowup) {
  ShallowWaterCore core(small());
  auto s = core.make_state();
  core.initialize(s, SweInitial::kGravityWave);
  // Initial bump is at the equator near lambda=0; no flow yet.
  EXPECT_DOUBLE_EQ(core.max_abs_velocity(s), 0.0);
  const double e0 = core.local_energy(s);
  run(core, s, 30);
  EXPECT_GT(core.max_abs_velocity(s), 0.01)
      << "the height bump must start flows";
  EXPECT_LT(core.max_abs_velocity(s), 100.0);
  const double e1 = core.local_energy(s);
  EXPECT_NEAR(e1 / e0, 1.0, 0.01)
      << "energy drift must stay small over 30 steps";
}

TEST(ShallowWater, GravityWaveSpeedIsPhysical) {
  // The bump's front should travel at roughly c = sqrt(gH) ~ 280 m/s:
  // after t seconds, the disturbance must have reached points ~c*t away
  // but not dramatically farther.
  SweConfig cfg = small();
  cfg.dt = 30.0;
  ShallowWaterCore core(cfg);
  auto s = core.make_state();
  core.initialize(s, SweInitial::kGravityWave);
  const int steps = 20;
  run(core, s, steps);
  const double t = steps * cfg.dt;
  const double c = std::sqrt(9.80616 * cfg.mean_depth);
  const double reach = c * t;  // meters
  // Check a point ~90 degrees away along the equator is still quiet if
  // the front cannot have reached it (quarter circumference ~ 1.0e7 m).
  const double quarter = 0.25 * 2.0 * 3.14159 * 6.371e6;
  ASSERT_LT(reach, quarter) << "test setup: front must not reach 90 deg";
  const int i_far = cfg.nx / 2;  // lambda ~ pi (antipodal-ish)
  const int j_eq = cfg.ny / 2;
  EXPECT_LT(std::abs(s.h(i_far, j_eq) - cfg.mean_depth), 0.5)
      << "the antipode must still be undisturbed";
  // Near the source the height must have changed.
  EXPECT_GT(std::abs(s.h(0, j_eq) - cfg.mean_depth), 1.0);
}

TEST(ShallowWater, GeostrophicJetStaysNearBalance) {
  SweConfig cfg = small();
  cfg.dt = 60.0;
  ShallowWaterCore core(cfg);
  auto s = core.make_state();
  core.initialize(s, SweInitial::kGeostrophicJet);
  const double u0 = core.max_abs_velocity(s);
  run(core, s, 40);
  // An exactly balanced state would be steady; our discrete balance is
  // approximate, so demand the flow stays the same order of magnitude and
  // the meridional flow stays a fraction of the jet.
  EXPECT_NEAR(core.max_abs_velocity(s), u0, 0.5 * u0);
  double vmax = 0.0;
  for (int j = 0; j < cfg.ny; ++j)
    for (int i = 0; i < cfg.nx; ++i)
      vmax = std::max(vmax, std::abs(s.v(i, j)));
  EXPECT_LT(vmax, 0.4 * u0)
      << "geostrophic adjustment must keep v << u";
}

TEST(ShallowWater, ParallelMatchesSerial) {
  const SweConfig cfg = small();
  ShallowWaterCore serial(cfg);
  auto ref = serial.make_state();
  serial.initialize(ref, SweInitial::kGravityWave);
  run(serial, ref, 10);

  for (int py : {2, 4}) {
    comm::Runtime::run(py, [&](comm::Context& ctx) {
      ShallowWaterCore core(cfg, ctx, py);
      auto s = core.make_state();
      core.initialize(s, SweInitial::kGravityWave);
      run(core, s, 10);
      // !(|a - b| < bound) counts a NaN as a miss.
      int misses = 0;
      auto close = [&](double a, double b) {
        misses += !(std::abs(a - b) < 1e-10);
      };
      for (int j = 0; j < core.decomp().lny(); ++j)
        for (int i = 0; i < cfg.nx; ++i) {
          const int gj = core.decomp().gj(j);
          close(s.h(i, j), ref.h(i, gj));
          close(s.u(i, j), ref.u(i, gj));
          close(s.v(i, j), ref.v(i, gj));
        }
      EXPECT_EQ(misses, 0) << "py = " << py;
    });
  }
}

TEST(ShallowWater, MassConservedInParallel) {
  const SweConfig cfg = small();
  comm::Runtime::run(3, [&](comm::Context& ctx) {
    ShallowWaterCore core(cfg, ctx, 3);
    auto s = core.make_state();
    core.initialize(s, SweInitial::kGravityWave);
    std::vector<double> in{core.local_mass(s)}, m0(1);
    comm::allreduce<double>(ctx, ctx.world(), in, m0, comm::ReduceOp::kSum);
    run(core, s, 15);
    std::vector<double> in1{core.local_mass(s)}, m1(1);
    comm::allreduce<double>(ctx, ctx.world(), in1, m1,
                            comm::ReduceOp::kSum);
    EXPECT_NEAR(m1[0] / m0[0], 1.0, 1e-11);
  });
}

TEST(ShallowWater, RossbyHaurwitzPropagatesEastwardAtKnownSpeed) {
  // Williamson test 6: the wavenumber-4 pattern rotates eastward at
  // angular speed c = [R(3+R)w - 2 Omega] / [(1+R)(2+R)] ~ 1.45e-6 rad/s
  // (about 25 degrees/day).  Track the phase of the m = 4 height harmonic
  // on a mid-latitude row.
  SweConfig cfg;
  cfg.nx = 64;
  cfg.ny = 32;
  cfg.dt = 90.0;
  ShallowWaterCore core(cfg);
  auto s = core.make_state();
  core.initialize(s, SweInitial::kRossbyHaurwitz);
  const int j_mid = 10;  // ~34 degrees colatitude
  const int m = 4;
  const double phase0 = core.zonal_phase(s, j_mid, m);
  const int steps = 300;
  run(core, s, steps);
  const double t = steps * cfg.dt;
  // Our zonal_phase uses exp(+i m lambda) projection with atan2(sn, cs);
  // eastward motion (pattern ~ cos(R(lambda - c t))) shifts the phase by
  // -m*c*t in this convention... measure and compare magnitudes and sign.
  double dphase = core.zonal_phase(s, j_mid, m) - phase0;
  while (dphase > util::kPi) dphase -= 2.0 * util::kPi;
  while (dphase < -util::kPi) dphase += 2.0 * util::kPi;
  constexpr double w = 7.848e-6;
  constexpr int R = 4;
  const double c_expect =
      (R * (3.0 + R) * w - 2.0 * util::kOmega) / ((1.0 + R) * (2.0 + R));
  const double expect = m * c_expect * t;  // pattern phase advance
  // Sign: cos(m lambda - m c t) = Re[exp(i m lambda) exp(-i m c t)]:
  // the projection's atan2 phase moves by +m c t.
  EXPECT_GT(std::abs(dphase), 0.3 * std::abs(expect))
      << "the wave must propagate (expected " << expect << ", got "
      << dphase << ")";
  EXPECT_LT(std::abs(dphase), 3.0 * std::abs(expect));
  EXPECT_GT(dphase * expect, 0.0) << "propagation direction must match";
  // The pattern must hold together: m=4 stays the dominant harmonic.
  double p4 = 0.0, p_others = 0.0;
  for (int mm = 1; mm <= 8; ++mm) {
    double cs = 0.0, sn = 0.0;
    for (int i = 0; i < cfg.nx; ++i) {
      cs += s.h(i, j_mid) * std::cos(2.0 * util::kPi * mm * i / cfg.nx);
      sn += s.h(i, j_mid) * std::sin(2.0 * util::kPi * mm * i / cfg.nx);
    }
    const double p = cs * cs + sn * sn;
    if (mm == 4) {
      p4 = p;
    } else {
      p_others = std::max(p_others, p);
    }
  }
  EXPECT_GT(p4, 3.0 * p_others)
      << "wavenumber 4 must remain the dominant zonal harmonic";
}

TEST(ShallowWater, WrongWorldSizeThrows) {
  EXPECT_THROW(
      comm::Runtime::run(
          2, [&](comm::Context& ctx) { ShallowWaterCore core(small(), ctx, 3); }),
      std::invalid_argument);
}

}  // namespace
}  // namespace ca::swe
