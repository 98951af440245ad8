// Passive tracer transport: quadratic conservation, zero-flow fixed
// point, and transport by a zonal flow.
#include <gtest/gtest.h>

#include <cmath>

#include "core/exchange.hpp"
#include "core/serial_core.hpp"
#include "ops/tracer.hpp"

namespace ca::ops {
namespace {

struct Fixture {
  Fixture()
      : core([] {
          core::DycoreConfig c;
          c.nx = 32;
          c.ny = 16;
          c.nz = 8;
          return c;
        }()),
        xi(core.make_state()),
        ws(32, 16, 8, core::halos_for_depth(1)),
        q(32, 16, 8, core::halos_for_depth(1).h3) {
    state::InitialOptions opt;
    opt.kind = state::InitialCondition::kZonalJet;
    core.initialize(xi, opt);
    core.fill_boundaries(xi);
    ops::compute_local_diag(core.op_context(), xi, xi.interior(), ws);
    core::compute_c(core.op_context(), nullptr, nullptr, xi, xi.interior(), ws,
                    comm::AllreduceAlgorithm::kAuto);
  }
  core::SerialCore core;
  state::State xi;
  DiagWorkspace ws;
  util::Array3D<double> q;
};

TEST(Tracer, ConstantTracerHasZeroTendencyInNondivergentColumns) {
  // With q == const, the skew form gives dq/dt = -q * div-like residual;
  // for the rest state (all velocities zero) the tendency is exactly 0.
  Fixture f;
  f.xi.fill(0.0);
  f.core.fill_boundaries(f.xi);
  ops::compute_local_diag(f.core.op_context(), f.xi, f.xi.interior(), f.ws);
  core::compute_c(f.core.op_context(), nullptr, nullptr, f.xi, f.xi.interior(),
                  f.ws, comm::AllreduceAlgorithm::kAuto);
  f.q.fill(4.0);
  TracerAdvection adv(f.core.op_context(), f.xi, f.ws.local, f.ws.vert);
  util::Array3D<double> dq(32, 16, 8, f.q.halo());
  adv.apply(f.q, dq, mesh::Box{0, 32, 0, 16, 0, 8});
  for (int k = 0; k < 8; ++k)
    for (int j = 0; j < 16; ++j)
      for (int i = 0; i < 32; ++i)
        EXPECT_DOUBLE_EQ(dq(i, j, k), 0.0);
}

TEST(Tracer, QuadraticInvariantIsConserved) {
  // <q, dq/dt> with the metric weights telescopes to zero (periodic x,
  // zero pole and sigma boundary fluxes) — same proof as the dynamical
  // core's advection.
  Fixture f;
  const auto& ctx = f.core.op_context();
  for (int k = -1; k < 9; ++k)
    for (int j = -2; j < 18; ++j)
      for (int i = -3; i < 35; ++i)
        if (f.q.in_bounds(i, j, k))
          f.q(i, j, k) = std::sin(0.5 * i) * std::cos(0.4 * j) + 0.1 * k;
  fill_tracer_boundaries(ctx, f.q);
  TracerAdvection adv(ctx, f.xi, f.ws.local, f.ws.vert);
  util::Array3D<double> dq(32, 16, 8, f.q.halo());
  adv.apply(f.q, dq, mesh::Box{0, 32, 0, 16, 0, 8});
  double inner = 0.0, scale = 0.0;
  for (int k = 0; k < 8; ++k)
    for (int j = 0; j < 16; ++j) {
      const double w = ctx.sin_t(j) * ctx.dsig(k);
      for (int i = 0; i < 32; ++i) {
        inner += w * f.q(i, j, k) * dq(i, j, k);
        scale += w * std::abs(f.q(i, j, k) * dq(i, j, k));
      }
    }
  ASSERT_GT(scale, 0.0);
  EXPECT_LT(std::abs(inner), 1e-10 * scale);
}

TEST(Tracer, ZonalFlowTransportsTracerEastward) {
  // A westerly jet must move a localized blob toward larger lambda.
  Fixture f;
  const auto& ctx = f.core.op_context();
  const int j0 = 4, k0 = 2;  // inside the jet
  for (int i = 0; i < 32; ++i)
    f.q(i, j0, k0) = std::exp(-0.5 * std::pow((i - 8) / 2.0, 2));
  fill_tracer_boundaries(ctx, f.q);

  auto centroid = [&] {
    // Circular centroid via phase of the first Fourier mode.
    double cs = 0.0, sn = 0.0;
    for (int i = 0; i < 32; ++i) {
      cs += f.q(i, j0, k0) * std::cos(2.0 * util::kPi * i / 32.0);
      sn += f.q(i, j0, k0) * std::sin(2.0 * util::kPi * i / 32.0);
    }
    return std::atan2(sn, cs);
  };
  const double c0 = centroid();
  advance_tracer(ctx, f.xi, f.ws.local, f.ws.vert, f.q, 200.0, 30);
  const double c1 = centroid();
  double shift = c1 - c0;
  while (shift < -util::kPi) shift += 2.0 * util::kPi;
  while (shift > util::kPi) shift -= 2.0 * util::kPi;
  EXPECT_GT(shift, 0.01) << "westerlies must advect the blob eastward";
  // Total tracer along the circle is conserved by the flux form up to
  // the skew correction (small for smooth q).
  double total = 0.0;
  for (int i = 0; i < 32; ++i) total += f.q(i, j0, k0);
  EXPECT_NEAR(total, std::exp(0.0) * 0.0 + [] {
                double t = 0.0;
                for (int i = 0; i < 32; ++i)
                  t += std::exp(-0.5 * std::pow((i - 8) / 2.0, 2));
                return t;
              }(),
              0.2);
}

TEST(Tracer, StableUnderLongAdvection) {
  Fixture f;
  const auto& ctx = f.core.op_context();
  for (int k = 0; k < 8; ++k)
    for (int j = 0; j < 16; ++j)
      for (int i = 0; i < 32; ++i)
        f.q(i, j, k) = 1.0 + 0.5 * std::sin(0.39 * i + 0.7 * j - k);
  advance_tracer(ctx, f.xi, f.ws.local, f.ws.vert, f.q, 100.0, 100);
  double mx = 0.0;
  for (int k = 0; k < 8; ++k)
    for (int j = 0; j < 16; ++j)
      for (int i = 0; i < 32; ++i) {
        ASSERT_TRUE(std::isfinite(f.q(i, j, k)));
        mx = std::max(mx, std::abs(f.q(i, j, k)));
      }
  EXPECT_LT(mx, 10.0);
}

TEST(Tracer, UpwindIsMonotone) {
  // A step-function tracer advected by the jet must never develop values
  // outside [min0, max0] under the monotone scheme.
  Fixture f;
  const auto& ctx = f.core.op_context();
  f.q.fill(0.0);
  for (int k = 0; k < 8; ++k)
    for (int j = 0; j < 16; ++j)
      for (int i = 8; i < 16; ++i) f.q(i, j, k) = 1.0;
  advance_tracer(ctx, f.xi, f.ws.local, f.ws.vert, f.q, 150.0, 60,
                 TracerScheme::kUpwindMonotone);
  double mn = 1e30, mx = -1e30;
  for (int k = 0; k < 8; ++k)
    for (int j = 0; j < 16; ++j)
      for (int i = 0; i < 32; ++i) {
        mn = std::min(mn, f.q(i, j, k));
        mx = std::max(mx, f.q(i, j, k));
      }
  EXPECT_GE(mn, -1e-12) << "monotone scheme must not undershoot";
  EXPECT_LE(mx, 1.0 + 1e-12) << "monotone scheme must not overshoot";
}

TEST(Tracer, CenteredSchemeOvershootsWhereUpwindDoesNot) {
  // The same step function under the skew-symmetric scheme develops
  // over/undershoots (dispersive ripples) — the contrast that motivates
  // the monotone option.
  Fixture f;
  const auto& ctx = f.core.op_context();
  f.q.fill(0.0);
  for (int k = 0; k < 8; ++k)
    for (int j = 0; j < 16; ++j)
      for (int i = 8; i < 16; ++i) f.q(i, j, k) = 1.0;
  advance_tracer(ctx, f.xi, f.ws.local, f.ws.vert, f.q, 150.0, 60,
                 TracerScheme::kSkewSymmetric);
  double mn = 1e30, mx = -1e30;
  for (int k = 0; k < 8; ++k)
    for (int j = 0; j < 16; ++j)
      for (int i = 0; i < 32; ++i) {
        mn = std::min(mn, f.q(i, j, k));
        mx = std::max(mx, f.q(i, j, k));
      }
  EXPECT_TRUE(mn < -1e-6 || mx > 1.0 + 1e-6)
      << "a centered scheme on a step must ripple (min " << mn << ", max "
      << mx << ")";
}

TEST(Tracer, UpwindConservesTotalTracer) {
  Fixture f;
  const auto& ctx = f.core.op_context();
  for (int k = 0; k < 8; ++k)
    for (int j = 0; j < 16; ++j)
      for (int i = 0; i < 32; ++i)
        f.q(i, j, k) = 1.0 + 0.4 * std::sin(0.6 * i + 0.3 * j);
  // Area-dsigma-weighted total (the conserved quantity of the flux form).
  auto total = [&] {
    double t = 0.0;
    for (int k = 0; k < 8; ++k)
      for (int j = 0; j < 16; ++j) {
        const double w = ctx.sin_t(j) * ctx.dsig(k);
        for (int i = 0; i < 32; ++i) t += w * f.q(i, j, k);
      }
    return t;
  };
  const double t0 = total();
  advance_tracer(ctx, f.xi, f.ws.local, f.ws.vert, f.q, 150.0, 40,
                 TracerScheme::kUpwindMonotone);
  EXPECT_NEAR(total() / t0, 1.0, 1e-3)
      << "upwind flux form must conserve the tracer total (pole fluxes "
         "are zero; sigma-dot of this state is weak)";
}

}  // namespace
}  // namespace ca::ops
