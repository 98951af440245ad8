// Smoothing operator: coefficients, damping properties, and the paper's
// central operator-splitting identity S~ = S~2 ∘ S~1 (Section 4.3.2).
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "core/dycore_config.hpp"
#include "mesh/decomp.hpp"
#include "ops/smoothing.hpp"

namespace ca::ops {
namespace {

struct Fixture {
  Fixture(int nx = 16, int ny = 20, int nz = 3)
      : mesh(nx, ny, nz),
        levels(mesh::SigmaLevels::uniform(nz)),
        strat(levels),
        decomp(mesh, {1, 1, 1}, {0, 0, 0}) {
    params.smooth_beta = 0.5;
    ctx = OpContext{&mesh, &levels, &strat, &decomp, params};
  }
  mesh::LatLonMesh mesh;
  mesh::SigmaLevels levels;
  state::Stratification strat;
  mesh::DomainDecomp decomp;
  ModelParams params;
  OpContext ctx;
};

state::State smooth_test_state(int nx, int ny, int nz) {
  state::State s(nx, ny, nz, core::halos_for_depth(1));
  auto h = s.u().halo();
  for (int k = -h.z; k < nz + h.z; ++k)
    for (int j = -h.y; j < ny + h.y; ++j)
      for (int i = -h.x; i < nx + h.x; ++i) {
        s.u()(i, j, k) = std::sin(0.9 * i + 0.4 * j) + 0.2 * k;
        s.v()(i, j, k) = std::cos(0.6 * i - 0.8 * j) * (k + 1);
        s.phi()(i, j, k) = std::sin(1.3 * i) * std::cos(0.5 * j) + 0.01 * k;
      }
  for (int j = -s.psa().hy(); j < ny + s.psa().hy(); ++j)
    for (int i = -s.psa().hx(); i < nx + s.psa().hx(); ++i)
      s.psa()(i, j) = 50.0 * std::sin(0.35 * i * j + 0.2 * j);
  return s;
}

TEST(Smoothing, YCoefficientsSumToOne) {
  ModelParams params;
  params.smooth_beta = 0.37;
  double sum = 0.0;
  for (int d = -2; d <= 2; ++d) sum += smoothing_y_coeff(params, d);
  EXPECT_NEAR(sum, 1.0, 1e-15) << "constants must be preserved";
  EXPECT_DOUBLE_EQ(smoothing_y_coeff(params, 3), 0.0);
  EXPECT_DOUBLE_EQ(smoothing_y_coeff(params, -1),
                   smoothing_y_coeff(params, 1));
}

TEST(Smoothing, ConstantFieldIsFixedPoint) {
  Fixture f;
  auto s = smooth_test_state(16, 20, 3);
  s.fill(7.25);
  auto out = smooth_test_state(16, 20, 3);
  apply_smoothing(f.ctx, s, out, s.interior());
  for (int k = 0; k < 3; ++k)
    for (int j = 0; j < 20; ++j)
      for (int i = 0; i < 16; ++i) {
        EXPECT_NEAR(out.u()(i, j, k), 7.25, 1e-13);
        EXPECT_NEAR(out.phi()(i, j, k), 7.25, 1e-13);
      }
}

TEST(Smoothing, DampsGridScaleNoise) {
  Fixture f;
  auto s = smooth_test_state(16, 20, 3);
  // Checkerboard: the 4th difference's worst case.
  for (int j = -2; j < 22; ++j)
    for (int i = -3; i < 19; ++i)
      s.phi()(i, j, 0) = ((i + j) % 2 == 0) ? 1.0 : -1.0;
  auto out = smooth_test_state(16, 20, 3);
  apply_smoothing(f.ctx, s, out, s.interior());
  double amp = 0.0;
  for (int j = 2; j < 18; ++j)
    for (int i = 0; i < 16; ++i)
      amp = std::max(amp, std::abs(out.phi()(i, j, 0)));
  EXPECT_LT(amp, 1.0) << "grid-scale noise must be damped";
}

TEST(Smoothing, ZeroBetaIsIdentity) {
  Fixture f;
  f.params.smooth_beta = 0.0;
  f.ctx.params = f.params;
  auto s = smooth_test_state(16, 20, 3);
  auto out = smooth_test_state(16, 20, 3);
  out.fill(0.0);
  apply_smoothing(f.ctx, s, out, s.interior());
  EXPECT_DOUBLE_EQ(state::State::max_abs_diff(s, out, s.interior()), 0.0);
}

TEST(Smoothing, SplitEqualsFullWithoutNeighbors) {
  // With no split sides, S1 is the complete smoothing and S2 is a no-op.
  // S1 here is apply_smoothing_former, kept only for the perfbench replay.
  Fixture f;
  auto s = smooth_test_state(16, 20, 3);
  auto full = smooth_test_state(16, 20, 3);
  apply_smoothing(f.ctx, s, full, s.interior());

  auto split = smooth_test_state(16, 20, 3);
  split.assign(s, split.extended(3, 2, 1));
  apply_smoothing_former(f.ctx, split, split.interior(), false, false);
  EXPECT_LT(state::State::max_abs_diff(split, full, s.interior()), 1e-13);
}

/// Two ranks splitting the global test field across one y boundary, each
/// holding xi (depth-1 halos) and its pre-smoothing copy pre (depth-3
/// halos) as the CA core does.  `smooth` loads xi from the global field,
/// copies it into pre, runs `s1` on each rank, emulates the fused
/// exchange and runs S2.
struct SplitPair {
  struct Rank {
    mesh::DomainDecomp d;
    state::State xi, pre;
  };
  static constexpr int nx = 16, nz = 3, ny_half = 10, ny = 2 * ny_half;

  SplitPair() {
    params.smooth_beta = 0.5;
    const mesh::DomainDecomp whole(mesh, {1, 1, 1}, {0, 0, 0});
    apply_smoothing(ctx(whole), global, global_out, global.interior());
    for (int half = 0; half < 2; ++half)
      ranks.push_back(
          {mesh::DomainDecomp(mesh, {1, 2, 1}, {0, half, 0}),
           state::State(nx, ny_half, nz, core::halos_for_depth(1)),
           state::State(nx, ny_half, nz, core::halos_for_depth(3))});
  }
  SplitPair(const SplitPair&) = delete;
  SplitPair& operator=(const SplitPair&) = delete;

  OpContext ctx(const mesh::DomainDecomp& d) const {
    return OpContext{&mesh, &levels, &strat, &d, params};
  }
  /// Our halo row j is the neighbor's owned row j - shift(half).
  static int shift(int half) { return half == 0 ? ny_half : -ny_half; }
  /// [j0, j1) of a rank's halo rows on the split side, `depth` deep.
  static std::pair<int, int> seam_rows(int half, int depth) {
    return half == 0 ? std::pair{ny_half, ny_half + depth}
                     : std::pair{-depth, 0};
  }

  /// `poison_seam` fills xi's split-side halo rows with NaN before the
  /// copy, as they stand unexchanged when the core's S1 runs.
  void smooth(bool poison_seam,
              const std::function<void(int half, Rank&)>& s1) {
    for (int half = 0; half < 2; ++half) {
      Rank& r = ranks[half];
      const auto h = r.xi.u().halo();
      for (int k = -h.z; k < nz + h.z; ++k)
        for (int j = -h.y; j < ny_half + h.y; ++j)
          for (int i = -h.x; i < nx + h.x; ++i) {
            const int gj = r.d.gj(j);
            r.xi.u()(i, j, k) = global.u()(i, gj, k);
            r.xi.v()(i, j, k) = global.v()(i, gj, k);
            r.xi.phi()(i, j, k) = global.phi()(i, gj, k);
          }
      for (int j = -r.xi.psa().hy(); j < ny_half + r.xi.psa().hy(); ++j)
        for (int i = -r.xi.psa().hx(); i < nx + r.xi.psa().hx(); ++i)
          r.xi.psa()(i, j) = global.psa()(i, r.d.gj(j));
      if (poison_seam) {
        state::State nan(nx, ny_half, nz, core::halos_for_depth(1));
        nan.fill(std::numeric_limits<double>::quiet_NaN());
        const auto [j0, j1] = seam_rows(half, r.xi.psa().hy());
        r.xi.assign(nan, {-h.x, nx + h.x, j0, j1, -h.z, nz + h.z});
      }
      r.pre.assign(r.xi, r.pre.extended(2, 2, 0));
      s1(half, r);
    }

    // The fused exchange: post-S1 rows into xi's halo and pre-smoothing
    // rows into pre's halo.  The test field is not x-periodic, so pre's
    // rows travel with their x halos instead of the core's periodic refill.
    for (int half = 0; half < 2; ++half) {
      Rank& r = ranks[half];
      const Rank& n = ranks[1 - half];
      const auto [x0, x1] = seam_rows(half, 2);
      for (int j = x0; j < x1; ++j)
        for (int i = 0; i < nx; ++i) {
          for (int k = 0; k < nz; ++k) {
            r.xi.u()(i, j, k) = n.xi.u()(i, j - shift(half), k);
            r.xi.v()(i, j, k) = n.xi.v()(i, j - shift(half), k);
            r.xi.phi()(i, j, k) = n.xi.phi()(i, j - shift(half), k);
          }
          r.xi.psa()(i, j) = n.xi.psa()(i, j - shift(half));
        }
      const auto [p0, p1] = seam_rows(half, 4);
      for (int j = p0; j < p1; ++j)
        for (int i = -2; i < nx + 2; ++i) {
          for (int k = 0; k < nz; ++k)
            r.pre.phi()(i, j, k) = n.pre.phi()(i, j - shift(half), k);
          r.pre.psa()(i, j) = n.pre.psa()(i, j - shift(half));
        }
    }

    for (int half = 0; half < 2; ++half)
      apply_smoothing_later(ctx(ranks[half].d), ranks[half].pre,
                            ranks[half].xi, ranks[half].xi.interior(),
                            half == 1, half == 0);
  }

  mesh::LatLonMesh mesh{nx, ny, nz};
  mesh::SigmaLevels levels = mesh::SigmaLevels::uniform(nz);
  state::Stratification strat{levels};
  ModelParams params;
  const state::State global = smooth_test_state(nx, ny, nz);
  state::State global_out = smooth_test_state(nx, ny, nz);
  std::vector<Rank> ranks;
};

TEST(Smoothing, SplitAcrossBoundaryEqualsGlobalSmoothing) {
  // Two ranks sharing a y boundary: each applies S1, exchanges the post-S1
  // rows and the pre-smoothing rows, applies S2 — the result must equal
  // the global single-domain smoothing (the identity S = S2 ∘ S1).  S1
  // here is apply_smoothing_former, which only the perfbench replay still
  // calls; the core's S1 is covered by S1FromCopyIgnoresUnexchangedHaloRows.
  SplitPair p;
  constexpr int nx = SplitPair::nx, nz = SplitPair::nz,
                ny_half = SplitPair::ny_half;
  p.smooth(false, [&](int half, SplitPair::Rank& r) {
    apply_smoothing_former(p.ctx(r.d), r.xi, r.xi.interior(),
                           /*split_north=*/half == 1,
                           /*split_south=*/half == 0);
  });
  const state::State& global_out = p.global_out;

  for (int half = 0; half < 2; ++half) {
    const mesh::DomainDecomp& d = p.ranks[half].d;
    const state::State& local = p.ranks[half].xi;
    // Owned rows must equal the global smoothing.
    double m = 0.0;
    for (int k = 0; k < nz; ++k)
      for (int j = 0; j < ny_half; ++j)
        for (int i = 0; i < nx; ++i) {
          m = std::max(m, std::abs(local.phi()(i, j, k) -
                                   global_out.phi()(i, d.gj(j), k)));
          m = std::max(m, std::abs(local.u()(i, j, k) -
                                   global_out.u()(i, d.gj(j), k)));
        }
    for (int j = 0; j < ny_half; ++j)
      for (int i = 0; i < nx; ++i)
        m = std::max(m, std::abs(local.psa()(i, j) -
                                 global_out.psa()(i, d.gj(j))));
    EXPECT_DOUBLE_EQ(m, 0.0)
        << "S2 ∘ S1 must equal S bitwise (half " << half << ")";
    // The received halo rows must also be fully smoothed after S2.
    double mh = 0.0;
    for (int k = 0; k < nz; ++k)
      for (int dd = 1; dd <= 2; ++dd)
        for (int i = 0; i < nx; ++i) {
          const int j = (half == 0) ? ny_half - 1 + dd : -dd;
          mh = std::max(mh, std::abs(local.phi()(i, j, k) -
                                     global_out.phi()(i, d.gj(j), k)));
        }
    EXPECT_DOUBLE_EQ(mh, 0.0) << "halo rows must be completed by S2 bitwise";
  }
}

TEST(Smoothing, S1FromCopyIgnoresUnexchangedHaloRows) {
  // The CA core's fused path: each rank copies xi into pre and runs S from
  // pre into xi while its neighbor-side halo rows are still unexchanged
  // (here NaN); the exchange then brings the neighbor's post-S1 rows into
  // xi's halo and its pre-smoothing rows into pre's halo (depth 4), and S2
  // redoes the seam rows.  Owned and received halo rows must equal the
  // global smoothing bitwise.
  SplitPair p;
  constexpr int nx = SplitPair::nx, nz = SplitPair::nz,
                ny_half = SplitPair::ny_half;
  p.smooth(true, [&](int half, SplitPair::Rank& r) {
    apply_smoothing(p.ctx(r.d), r.pre, r.xi, r.xi.interior());
    const int edge = half == 0 ? ny_half - 1 : 0;
    ASSERT_TRUE(std::isnan(r.xi.phi()(0, edge, 0)))
        << "S1 must have read the poisoned rows";
  });

  for (int half = 0; half < 2; ++half) {
    const SplitPair::Rank& r = p.ranks[half];
    int mismatches = 0;
    auto same = [&](double a, double b) { mismatches += !(a == b); };
    for (int j = half == 1 ? -2 : 0; j < ny_half + (half == 0 ? 2 : 0); ++j)
      for (int i = 0; i < nx; ++i) {
        const int gj = r.d.gj(j);
        for (int k = 0; k < nz; ++k) {
          same(r.xi.u()(i, j, k), p.global_out.u()(i, gj, k));
          same(r.xi.v()(i, j, k), p.global_out.v()(i, gj, k));
          same(r.xi.phi()(i, j, k), p.global_out.phi()(i, gj, k));
        }
        same(r.xi.psa()(i, j), p.global_out.psa()(i, gj));
      }
    EXPECT_EQ(mismatches, 0) << "half " << half;
  }
}

TEST(Smoothing, FormerLeavesUVComplete) {
  // P1 is x-only: S1 must fully smooth U and V even on split rows.  S1
  // here is apply_smoothing_former, kept only for the perfbench replay.
  Fixture f;
  auto s = smooth_test_state(16, 20, 3);
  auto full = smooth_test_state(16, 20, 3);
  apply_smoothing(f.ctx, s, full, s.interior());
  auto split = smooth_test_state(16, 20, 3);
  split.assign(s, split.extended(3, 2, 1));
  apply_smoothing_former(f.ctx, split, split.interior(), true, true);
  double m = 0.0;
  for (int k = 0; k < 3; ++k)
    for (int j = 0; j < 20; ++j)
      for (int i = 0; i < 16; ++i) {
        m = std::max(m, std::abs(split.u()(i, j, k) - full.u()(i, j, k)));
        m = std::max(m, std::abs(split.v()(i, j, k) - full.v()(i, j, k)));
      }
  EXPECT_LT(m, 1e-13);
}

}  // namespace
}  // namespace ca::ops
