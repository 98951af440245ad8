// Sub-range window arithmetic (ops/subrange.hpp) and the property the
// overlap path rests on: for every split stencil kernel, evaluating the
// interior box plus the boundary boxes composes bitwise to the one-shot
// full-window evaluation, for randomized shrink extents including the
// degenerate empty-interior and full-interior cases.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "core/serial_core.hpp"
#include "mesh/halo.hpp"
#include "ops/adaptation.hpp"
#include "ops/advection.hpp"
#include "ops/smoothing.hpp"
#include "ops/subrange.hpp"
#include "ops/tendency.hpp"

namespace ca::core {
namespace {

using mesh::Box;

long long volume_sum(const std::vector<Box>& boxes) {
  long long v = 0;
  for (const Box& b : boxes) v += b.volume();
  return v;
}

TEST(Subrange, SubtractBoxPartitionsRandomizedWindows) {
  std::mt19937 rng(2024);
  auto pick = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  for (int trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE(::testing::Message() << "trial " << trial);
    // Windows with arbitrary (possibly negative) origins, like the CA
    // core's extended windows; inner boxes anywhere, including outside.
    Box w;
    w.i0 = pick(-4, 4);
    w.i1 = w.i0 + pick(1, 8);
    w.j0 = pick(-4, 4);
    w.j1 = w.j0 + pick(1, 8);
    w.k0 = pick(-2, 2);
    w.k1 = w.k0 + pick(1, 6);
    Box inner;
    inner.i0 = pick(-6, 10);
    inner.i1 = inner.i0 + pick(0, 8);
    inner.j0 = pick(-6, 10);
    inner.j1 = inner.j0 + pick(0, 8);
    inner.k0 = pick(-4, 6);
    inner.k1 = inner.k0 + pick(0, 6);

    const Box clipped = mesh::intersect(inner, w);
    // volume() multiplies raw extents, which is meaningless for an empty
    // (possibly negative-extent) intersection box.
    const long long clipped_vol = clipped.empty() ? 0 : clipped.volume();
    const std::vector<Box> tiles = ops::subtract_box(w, inner);

    for (const Box& t : tiles) {
      EXPECT_FALSE(t.empty());
      EXPECT_EQ(mesh::intersect(t, w), t) << "tile escapes the window";
      // intersects() is only meaningful between nonempty boxes (an
      // inverted-extent empty box can satisfy the strict inequalities).
      if (!clipped.empty())
        EXPECT_FALSE(mesh::intersects(t, clipped))
            << "tile overlaps the inner box";
    }
    for (std::size_t a = 0; a < tiles.size(); ++a)
      for (std::size_t b = a + 1; b < tiles.size(); ++b)
        EXPECT_FALSE(mesh::intersects(tiles[a], tiles[b]))
            << "tiles " << a << " and " << b << " overlap";
    EXPECT_EQ(volume_sum(tiles) + clipped_vol, w.volume())
        << "tiles + inner must cover the window exactly";
  }
}

TEST(Subrange, SubtractBoxDegenerateCases) {
  const Box w{0, 8, 0, 6, 0, 4};
  // Empty inner: the whole window comes back as one box.
  const std::vector<Box> all = ops::subtract_box(w, Box{0, 0, 0, 0, 0, 0});
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0], w);
  // Inner == window: nothing remains.
  EXPECT_TRUE(ops::subtract_box(w, w).empty());
  // An over-shrunk (inverted-extent) inner is "no interior" too.
  const std::vector<Box> inverted =
      ops::subtract_box(w, Box{4, 4, 1, 5, 1, 3});
  ASSERT_EQ(inverted.size(), 1u);
  EXPECT_EQ(inverted[0], w);
}

// --- kernel composition: interior + boundary == full window, bitwise ----

DycoreConfig test_config() {
  DycoreConfig c;
  c.nx = 24;
  c.ny = 16;
  c.nz = 8;
  c.M = 2;
  c.dt_adapt = 30.0;
  c.dt_advect = 120.0;
  c.z_allreduce = comm::AllreduceAlgorithm::kLinearOrdered;
  return c;
}

/// A serial state with interesting (non-symmetric) content and every
/// physical halo filled, plus the core that owns its geometry.
struct Fixture {
  Fixture() : core(test_config()), xi(core.make_state()) {
    state::InitialOptions opt;
    opt.kind = state::InitialCondition::kPlanetaryWave;
    core.initialize(xi, opt);
    // One step so psa/phi have evolved off the analytic profile.
    core.step(xi);
    core.fill_boundaries(xi);
  }
  SerialCore core;
  state::State xi;
};

/// Tiles for the window shrunk by (sx, sy, sz) on both sides of each axis:
/// the interior (when nonempty) plus the deterministic boundary boxes.
std::vector<Box> tiles_for(const Box& window, int sx, int sy, int sz) {
  const Box inner{window.i0 + sx, window.i1 - sx, window.j0 + sy,
                  window.j1 - sy, window.k0 + sz, window.k1 - sz};
  std::vector<Box> tiles;
  if (!inner.empty()) tiles.push_back(inner);
  for (const Box& b : ops::subtract_box(window, inner)) tiles.push_back(b);
  return tiles;
}

TEST(SubrangeCompose, LocalDiagAndAdaptationMatchFullWindow) {
  Fixture fx;
  const ops::OpContext& ctx = fx.core.op_context();
  const Box window = fx.xi.interior();
  const auto h = halos_for_depth(1);

  ops::DiagWorkspace full_ws(window.i1, window.j1, window.k1, h);
  ops::compute_local_diag(ctx, fx.xi, window, full_ws);
  ops::compute_vert_diag_serial(ctx, fx.xi, window, full_ws);
  state::State full_tend = fx.core.make_state();
  ops::apply_adaptation(ctx, fx.xi, full_ws.local, full_ws.vert, full_tend,
                        window);

  std::mt19937 rng(7);
  auto pick = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  for (int trial = 0; trial < 6; ++trial) {
    // Trial 0: empty interior (over-shrunk); trial 1: full interior
    // (shrink 0); the rest randomized.
    const int sx = trial == 0 ? 99 : trial == 1 ? 0 : pick(0, 8);
    const int sy = trial == 0 ? 99 : trial == 1 ? 0 : pick(0, 6);
    const int sz = trial == 0 ? 99 : trial == 1 ? 0 : pick(0, 3);
    SCOPED_TRACE(::testing::Message()
                 << "shrink (" << sx << "," << sy << "," << sz << ")");

    ops::DiagWorkspace ws(window.i1, window.j1, window.k1, h);
    state::State tend = fx.core.make_state();
    const auto tiles = tiles_for(window, sx, sy, sz);
    for (const Box& b : tiles) ops::compute_local_diag(ctx, fx.xi, b, ws);
    ops::compute_vert_diag_serial(ctx, fx.xi, window, ws);
    for (const Box& b : tiles)
      ops::apply_adaptation(ctx, fx.xi, ws.local, ws.vert, tend, b);

    const double diff =
        state::State::max_abs_diff(full_tend, tend, window);
    EXPECT_EQ(diff, 0.0) << "tiled adaptation diverged from full window";
  }
}

TEST(SubrangeCompose, AdvectionMatchesFullWindow) {
  Fixture fx;
  const ops::OpContext& ctx = fx.core.op_context();
  const Box window = fx.xi.interior();
  const auto h = halos_for_depth(1);

  ops::DiagWorkspace full_ws(window.i1, window.j1, window.k1, h);
  ops::compute_local_diag(ctx, fx.xi, window, full_ws);
  ops::compute_vert_diag_serial(ctx, fx.xi, window, full_ws);
  state::State full_tend = fx.core.make_state();
  ops::apply_advection(ctx, fx.xi, full_ws.local, full_ws.vert, full_tend,
                       window);

  std::mt19937 rng(11);
  auto pick = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  for (int trial = 0; trial < 6; ++trial) {
    const int sx = trial == 0 ? 99 : pick(0, 8);
    const int sy = trial == 0 ? 99 : pick(0, 6);
    const int sz = trial == 0 ? 99 : pick(0, 3);
    SCOPED_TRACE(::testing::Message()
                 << "shrink (" << sx << "," << sy << "," << sz << ")");

    // Local diagnostics over the tiles, then C (it reads them), then the
    // tiled advection -- the adaptation case's order.
    ops::DiagWorkspace ws(window.i1, window.j1, window.k1, h);
    state::State tend = fx.core.make_state();
    const auto tiles = tiles_for(window, sx, sy, sz);
    for (const Box& b : tiles) ops::compute_local_diag(ctx, fx.xi, b, ws);
    ops::compute_vert_diag_serial(ctx, fx.xi, window, ws);
    for (const Box& b : tiles)
      ops::apply_advection(ctx, fx.xi, ws.local, ws.vert, tend, b);
    const double diff =
        state::State::max_abs_diff(full_tend, tend, window);
    EXPECT_EQ(diff, 0.0) << "tiled advection diverged from full window";
  }
}

TEST(SubrangeCompose, SmoothingMatchesFullWindow) {
  Fixture fx;
  const ops::OpContext& ctx = fx.core.op_context();
  const Box window = fx.xi.interior();

  state::State full_out = fx.core.make_state();
  ops::apply_smoothing(ctx, fx.xi, full_out, window);

  std::mt19937 rng(13);
  auto pick = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  for (int trial = 0; trial < 6; ++trial) {
    const int sx = trial == 0 ? 99 : pick(0, 8);
    const int sy = trial == 0 ? 99 : pick(0, 6);
    const int sz = trial == 0 ? 99 : pick(0, 3);
    SCOPED_TRACE(::testing::Message()
                 << "shrink (" << sx << "," << sy << "," << sz << ")");
    state::State out = fx.core.make_state();
    for (const Box& b : tiles_for(window, sx, sy, sz))
      ops::apply_smoothing(ctx, fx.xi, out, b);
    const double diff = state::State::max_abs_diff(full_out, out, window);
    EXPECT_EQ(diff, 0.0) << "tiled smoothing diverged from full window";
  }
}

}  // namespace
}  // namespace ca::core
