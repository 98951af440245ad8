// Fourier polar filter: damping behavior, conservation of the zonal mean,
// linearity, idempotence-like contraction, and the distributed (X-Y)
// path's agreement with the local one.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "comm/runtime.hpp"
#include "comm/topology.hpp"
#include "core/dycore_config.hpp"
#include "fft/dft.hpp"
#include "mesh/decomp.hpp"
#include "ops/filter.hpp"
#include "util/math.hpp"

namespace ca::ops {
namespace {

struct Fixture {
  Fixture(int nx = 48, int ny = 24, int nz = 4)
      : mesh(nx, ny, nz),
        levels(mesh::SigmaLevels::uniform(nz)),
        strat(levels),
        decomp(mesh, {1, 1, 1}, {0, 0, 0}) {
    ctx = OpContext{&mesh, &levels, &strat, &decomp, ModelParams{}};
  }
  mesh::LatLonMesh mesh;
  mesh::SigmaLevels levels;
  state::Stratification strat;
  mesh::DomainDecomp decomp;
  OpContext ctx;
};

TEST(Filter, PolarRowsActiveEquatorialRowsNot) {
  Fixture f;
  FourierFilter filt(f.ctx);
  EXPECT_TRUE(filt.row_active(0));
  EXPECT_TRUE(filt.row_active(23));
  EXPECT_FALSE(filt.row_active(11));
  EXPECT_FALSE(filt.row_active(12));
}

TEST(Filter, PreservesZonalMean) {
  Fixture f;
  FourierFilter filt(f.ctx);
  std::vector<double> line(48);
  for (int i = 0; i < 48; ++i)
    line[static_cast<std::size_t>(i)] =
        3.5 + std::sin(2.0 * util::kPi * 11 * i / 48.0);
  const double mean_before = 3.5;
  filt.filter_line(line, /*sin_theta=*/0.05);
  double mean_after = 0.0;
  for (double v : line) mean_after += v;
  mean_after /= 48.0;
  EXPECT_NEAR(mean_after, mean_before, 1e-12);
}

TEST(Filter, DampsHighWavenumbersNearPole) {
  Fixture f;
  FourierFilter filt(f.ctx);
  // Highest resolvable wavenumber at a near-pole row must be damped hard.
  std::vector<double> line(48);
  for (int i = 0; i < 48; ++i)
    line[static_cast<std::size_t>(i)] = (i % 2 == 0) ? 1.0 : -1.0;
  filt.filter_line(line, /*sin_theta=*/0.05);
  double amp = 0.0;
  for (double v : line) amp = std::max(amp, std::abs(v));
  EXPECT_LT(amp, 0.1) << "wavenumber nx/2 must be strongly damped";
}

TEST(Filter, NearEquatorLineAlmostUntouched) {
  Fixture f;
  FourierFilter filt(f.ctx);
  std::vector<double> line(48), orig(48);
  for (int i = 0; i < 48; ++i) {
    line[static_cast<std::size_t>(i)] =
        std::sin(2.0 * util::kPi * 3 * i / 48.0);
    orig[static_cast<std::size_t>(i)] = line[static_cast<std::size_t>(i)];
  }
  // sin(theta) = 1: damping factor min(1, aspect/sin(pi m/n)) with aspect
  // = 1: only wavenumbers near n/2 touched; m=3 untouched.
  filt.filter_line(line, 1.0);
  for (int i = 0; i < 48; ++i)
    EXPECT_NEAR(line[static_cast<std::size_t>(i)],
                orig[static_cast<std::size_t>(i)], 1e-10);
}

TEST(Filter, IsLinear) {
  Fixture f;
  FourierFilter filt(f.ctx);
  std::vector<double> a(48), b(48), combo(48);
  for (int i = 0; i < 48; ++i) {
    a[static_cast<std::size_t>(i)] = std::sin(0.7 * i);
    b[static_cast<std::size_t>(i)] = std::cos(1.3 * i + 0.4);
    combo[static_cast<std::size_t>(i)] =
        2.0 * a[static_cast<std::size_t>(i)] -
        0.5 * b[static_cast<std::size_t>(i)];
  }
  filt.filter_line(a, 0.1);
  filt.filter_line(b, 0.1);
  filt.filter_line(combo, 0.1);
  for (int i = 0; i < 48; ++i)
    EXPECT_NEAR(combo[static_cast<std::size_t>(i)],
                2.0 * a[static_cast<std::size_t>(i)] -
                    0.5 * b[static_cast<std::size_t>(i)],
                1e-10);
}

TEST(Filter, IsAContraction) {
  Fixture f;
  FourierFilter filt(f.ctx);
  std::vector<double> line(48);
  double energy_before = 0.0;
  for (int i = 0; i < 48; ++i) {
    line[static_cast<std::size_t>(i)] = std::sin(1.9 * i) + 0.3 * (i % 5);
    energy_before +=
        line[static_cast<std::size_t>(i)] * line[static_cast<std::size_t>(i)];
  }
  filt.filter_line(line, 0.08);
  double energy_after = 0.0;
  for (double v : line) energy_after += v * v;
  EXPECT_LE(energy_after, energy_before + 1e-12);
}

TEST(Filter, ApplyLocalTouchesOnlyActiveRows) {
  Fixture f;
  FourierFilter filt(f.ctx);
  state::State s(48, 24, 4, core::halos_for_depth(1));
  for (int k = 0; k < 4; ++k)
    for (int j = 0; j < 24; ++j)
      for (int i = 0; i < 48; ++i)
        s.phi()(i, j, k) = std::sin(0.9 * i) * (j + 1);
  state::State before(48, 24, 4, core::halos_for_depth(1));
  before.assign(s, s.interior());
  filt.apply_local(f.ctx, s, s.interior());
  for (int j = 0; j < 24; ++j) {
    bool changed = false;
    for (int k = 0; k < 4 && !changed; ++k)
      for (int i = 0; i < 48 && !changed; ++i)
        if (s.phi()(i, j, k) != before.phi()(i, j, k)) changed = true;
    EXPECT_EQ(changed, filt.row_active(j)) << "row " << j;
  }
}

TEST(Filter, MatchesDftOracleAtNonPowerOfTwoLength) {
  // nx = 120 = 2^3*3*5 (the CA workload's mesh): the mixed-radix real
  // transform, damping and inverse must agree with a line damped through
  // the O(n^2) reference DFT.
  const int nx = 120, ny = 48;
  Fixture f(nx, ny, 4);
  FourierFilter filt(f.ctx);
  const double sin_theta = 0.1;
  const double aspect = nx / (2.0 * ny);
  std::vector<double> line(nx);
  std::vector<fft::cplx> x(nx), spec(nx);
  for (int i = 0; i < nx; ++i) {
    line[static_cast<std::size_t>(i)] =
        std::sin(0.37 * i) + 0.5 * std::cos(2.9 * i) + 0.1 * (i % 7);
    x[static_cast<std::size_t>(i)] = line[static_cast<std::size_t>(i)];
  }
  fft::dft(x, spec, /*inverse=*/false);
  for (int m = 1; m <= nx / 2; ++m) {
    const double d =
        std::min(1.0, sin_theta * aspect / std::sin(util::kPi * m / nx));
    spec[static_cast<std::size_t>(m)] *= d;
    if (m < nx - m) spec[static_cast<std::size_t>(nx - m)] *= d;
  }
  fft::dft(spec, x, /*inverse=*/true);
  filt.filter_line(line, sin_theta);
  for (int i = 0; i < nx; ++i)
    EXPECT_NEAR(line[static_cast<std::size_t>(i)],
                x[static_cast<std::size_t>(i)].real(), 1e-13)
        << "i=" << i;
}

TEST(Filter, DistributedMatchesLocal) {
  // The X-Y decomposition's allgather-based filter must reproduce the
  // single-rank result exactly.
  const int nx = 48, ny = 24, nz = 4;
  Fixture f(nx, ny, nz);
  FourierFilter filt(f.ctx);
  state::State ref(nx, ny, nz, core::halos_for_depth(1));
  auto init = [&](state::State& s, const mesh::DomainDecomp& d) {
    for (int k = 0; k < d.lnz(); ++k)
      for (int j = 0; j < d.lny(); ++j)
        for (int i = 0; i < d.lnx(); ++i) {
          const int gi = d.gi(i), gj = d.gj(j);
          s.u()(i, j, k) = std::sin(0.5 * gi + gj) + 0.1 * k;
          s.v()(i, j, k) = std::cos(0.8 * gi - gj);
          s.phi()(i, j, k) = std::sin(1.7 * gi) * gj;
        }
    for (int j = 0; j < d.lny(); ++j)
      for (int i = 0; i < d.lnx(); ++i)
        s.psa()(i, j) = 100.0 * std::sin(0.3 * d.gi(i) + d.gj(j));
  };
  init(ref, f.decomp);
  filt.apply_local(f.ctx, ref, ref.interior());

  comm::Runtime::run(4, [&](comm::Context& cc) {
    auto topo = comm::make_cart(cc, cc.world(), {4, 1, 1},
                                {true, false, false});
    mesh::LatLonMesh mesh(nx, ny, nz);
    auto levels = mesh::SigmaLevels::uniform(nz);
    state::Stratification strat(levels);
    mesh::DomainDecomp d(mesh, {4, 1, 1}, topo.coords);
    OpContext ctx{&mesh, &levels, &strat, &d, ModelParams{}};
    FourierFilter dfilt(ctx);
    state::State s(d.lnx(), d.lny(), d.lnz(), core::halos_for_depth(1));
    init(s, d);
    dfilt.apply_distributed(ctx, cc, topo.line_x, s, s.interior());
    for (int k = 0; k < d.lnz(); ++k)
      for (int j = 0; j < d.lny(); ++j)
        for (int i = 0; i < d.lnx(); ++i) {
          EXPECT_NEAR(s.u()(i, j, k), ref.u()(d.gi(i), d.gj(j), k), 1e-12);
          EXPECT_NEAR(s.phi()(i, j, k), ref.phi()(d.gi(i), d.gj(j), k),
                      1e-12);
        }
    for (int j = 0; j < d.lny(); ++j)
      for (int i = 0; i < d.lnx(); ++i)
        EXPECT_NEAR(s.psa()(i, j), ref.psa()(d.gi(i), d.gj(j)), 1e-12);
  });
}

}  // namespace
}  // namespace ca::ops
