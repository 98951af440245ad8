// Order-of-accuracy and stability validations with known solutions:
//   - solid-body zonal advection of a tracer has the exact solution
//     q(lambda, t) = q0(lambda - omega t): measure the convergence order
//     of the 2nd- and 4th-order x-advection;
//   - the Fourier polar filter's purpose: without it, time steps sized for
//     the mid-latitude CFL blow up at the poles.
#include <gtest/gtest.h>

#include <cmath>

#include "core/diagnostics.hpp"
#include "core/exchange.hpp"
#include "core/serial_core.hpp"
#include "ops/tracer.hpp"
#include "util/math.hpp"

namespace ca {
namespace {

/// L2 error of advecting a smooth zonal profile once around a latitude
/// circle with a uniform zonal flow, at resolution nx.
double rotation_error(int nx, int x_order) {
  core::DycoreConfig c;
  c.nx = nx;
  c.ny = 8;
  c.nz = 4;
  c.params.x_order = x_order;
  core::SerialCore core(c);
  const auto& ctx = core.op_context();

  // Uniform physical u at every point; psa = 0 so P is uniform.
  auto xi = core.make_state();
  xi.fill(0.0);
  const double u0 = 20.0;
  const double p_ref = core.strat().p_factor_ref();
  for (int k = 0; k < c.nz; ++k)
    for (int j = 0; j < c.ny; ++j)
      for (int i = 0; i < nx; ++i) xi.u()(i, j, k) = p_ref * u0;
  core.fill_boundaries(xi);
  ops::DiagWorkspace ws(nx, c.ny, c.nz, core::halos_for_depth(1));
  ops::compute_local_diag(ctx, xi, xi.interior(), ws);
  core::compute_c(ctx, nullptr, nullptr, xi, xi.interior(), ws,
                  comm::AllreduceAlgorithm::kAuto);

  // Tracer: a smooth single-harmonic profile on a mid-latitude row.
  const int j0 = 4, k0 = 2;
  util::Array3D<double> q(nx, c.ny, c.nz, core::halos_for_depth(1).h3);
  for (int i = 0; i < nx; ++i)
    q(i, j0, k0) = std::sin(2.0 * util::kPi * i / nx);

  // Advect for a fixed physical time with dt scaled so the temporal error
  // is negligible relative to the spatial one.
  const double a_sin = ctx.mesh->radius() * ctx.sin_t(j0);
  const double total_time = 0.05 * 2.0 * util::kPi * a_sin / u0;
  const int steps = 100 * (nx / 16) * (nx / 16);
  ops::advance_tracer(ctx, xi, ws.local, ws.vert, q, total_time / steps,
                      steps);

  // Exact solution: the profile shifted by u0 * t / (a sin(theta)).
  const double shift = u0 * total_time / a_sin;  // radians
  double err2 = 0.0;
  for (int i = 0; i < nx; ++i) {
    const double exact =
        std::sin(2.0 * util::kPi * i / nx - 2.0 * util::kPi * shift /
                                                (2.0 * util::kPi / 1.0));
    // lambda_i = (i+0.5) dl; the initial profile used index phase, so the
    // exact shifted profile in index space is sin(2 pi i/nx - shift_idx)
    // with shift_idx = shift / dl * (2 pi / nx)... express directly:
    (void)exact;
    const double exact_idx =
        std::sin(2.0 * util::kPi * i / nx - shift);
    err2 += std::pow(q(i, j0, k0) - exact_idx, 2);
  }
  return std::sqrt(err2 / nx);
}

TEST(Convergence, SecondOrderAdvectionConvergesAtOrderTwo) {
  const double e1 = rotation_error(16, 2);
  const double e2 = rotation_error(32, 2);
  const double order = std::log2(e1 / e2);
  EXPECT_GT(order, 1.6) << "e(16) = " << e1 << ", e(32) = " << e2;
  EXPECT_LT(order, 2.6);
}

TEST(Convergence, FourthOrderAdvectionConvergesFaster) {
  const double e1 = rotation_error(16, 4);
  const double e2 = rotation_error(32, 4);
  const double order = std::log2(e1 / e2);
  EXPECT_GT(order, 2.8) << "e(16) = " << e1 << ", e(32) = " << e2;
}

TEST(Convergence, FourthOrderBeatsSecondOrderAtEqualResolution) {
  EXPECT_LT(rotation_error(32, 4), 0.5 * rotation_error(32, 2));
}

TEST(FilterStability, PolarFilterEnablesMidLatitudeTimeStep) {
  // A time step sized for the EQUATORIAL CFL violates the polar-row CFL
  // by ~1/sin(theta_0).  The Fourier filter removes exactly the zonal
  // modes that would go unstable; without it the run must blow up, with
  // it the run must stay bounded.
  auto run_maxu = [&](double filter_band) {
    core::DycoreConfig c;
    c.nx = 48;
    c.ny = 24;
    c.nz = 4;
    c.M = 2;
    c.params.filter_band = filter_band;
    // Aggressive steps: stable mid-latitude, unstable at the poles
    // without filtering (polar gravity-wave CFL > 1).
    c.dt_adapt = 900.0;
    c.dt_advect = 1800.0;
    c.params.smooth_beta = 0.05;
    core::SerialCore core(c);
    auto xi = core.make_state();
    state::InitialOptions opt;
    opt.kind = state::InitialCondition::kPlanetaryWave;
    opt.jet_speed = 40.0;
    core.initialize(xi, opt);
    for (int s = 0; s < 25; ++s) {
      core.step(xi);
      const auto d = core::local_diagnostics(core.op_context(), xi);
      if (!std::isfinite(d.max_abs_u) || d.max_abs_u > 1e4)
        return 1e30;  // blew up
    }
    return core::local_diagnostics(core.op_context(), xi).max_abs_u;
  };

  const double with_filter = run_maxu(/*filter_band=*/1.3);
  EXPECT_LT(with_filter, 1e3) << "filtered run must stay bounded";
  const double without_filter = run_maxu(0.0);
  EXPECT_GT(without_filter, 100.0 * with_filter)
      << "the unfiltered run should blow up at this dt (got "
      << without_filter << " vs " << with_filter << ")";
}

}  // namespace
}  // namespace ca
