#include "core/diagnostics.hpp"

#include <cmath>

#include "fft/fft.hpp"
#include "state/transforms.hpp"
#include "util/math.hpp"

namespace ca::core {

GlobalDiag local_diagnostics(const ops::OpContext& ctx,
                             const state::State& xi) {
  GlobalDiag d;
  const auto& decomp = *ctx.decomp;
  const double b = util::kGravityWaveSpeed;
  // NaN-sticky max so a blown-up field reports NaN instead of silently
  // keeping the running maximum (std::max drops NaN in second position).
  auto maxabs = [](double cur, double v) {
    return std::isnan(v) ? v : std::max(cur, std::abs(v));
  };
  for (int k = 0; k < decomp.lnz(); ++k) {
    const double dsig = ctx.dsig(k);
    for (int j = 0; j < decomp.lny(); ++j) {
      const double area = ctx.mesh->cell_area(ctx.gj(j));
      for (int i = 0; i < decomp.lnx(); ++i) {
        const double u = xi.u()(i, j, k);
        const double v = xi.v()(i, j, k);
        const double phi = xi.phi()(i, j, k);
        d.quad_energy += (u * u + v * v + phi * phi) * area * dsig;
        d.max_abs_u = maxabs(d.max_abs_u, u);
        d.max_abs_v = maxabs(d.max_abs_v, v);
        d.max_abs_phi = maxabs(d.max_abs_phi, phi);
      }
    }
  }
  for (int j = 0; j < decomp.lny(); ++j) {
    const double area = ctx.mesh->cell_area(ctx.gj(j));
    for (int i = 0; i < decomp.lnx(); ++i) {
      const double psa = xi.psa()(i, j);
      const double scaled = psa / util::kPressureRef;
      // Surface terms are z-integrals of a 2-D quantity: count them once
      // (on the rank owning the model top) so the z-line reduction does
      // not multiply them.
      if (decomp.at_model_top()) {
        d.surface_energy += b * b * scaled * scaled * area;
        d.mass_anomaly += psa * area;
      }
      d.max_abs_psa = maxabs(d.max_abs_psa, psa);
    }
  }
  return d;
}

GlobalDiag reduce_diagnostics(comm::Context& comm_ctx,
                              const comm::Communicator& comm,
                              const GlobalDiag& mine) {
  std::vector<double> sums{mine.quad_energy, mine.surface_energy,
                           mine.mass_anomaly};
  std::vector<double> sums_out(3);
  comm::allreduce<double>(comm_ctx, comm, sums, sums_out,
                          comm::ReduceOp::kSum);
  std::vector<double> maxs{mine.max_abs_u, mine.max_abs_v, mine.max_abs_phi,
                           mine.max_abs_psa};
  std::vector<double> maxs_out(4);
  comm::allreduce<double>(comm_ctx, comm, maxs, maxs_out,
                          comm::ReduceOp::kMax);
  GlobalDiag out;
  out.quad_energy = sums_out[0];
  out.surface_energy = sums_out[1];
  out.mass_anomaly = sums_out[2];
  out.max_abs_u = maxs_out[0];
  out.max_abs_v = maxs_out[1];
  out.max_abs_phi = maxs_out[2];
  out.max_abs_psa = maxs_out[3];
  return out;
}

std::vector<double> zonal_mean_u(const ops::OpContext& ctx,
                                 const state::State& xi, int k) {
  const auto& decomp = *ctx.decomp;
  std::vector<double> out(static_cast<std::size_t>(decomp.lny()), 0.0);
  for (int j = 0; j < decomp.lny(); ++j) {
    double sum = 0.0;
    for (int i = 0; i < decomp.lnx(); ++i) {
      const double pu = state::p_factor_u(xi.psa(), *ctx.strat, i, j);
      sum += xi.u()(i, j, k) / pu;
    }
    out[static_cast<std::size_t>(j)] = sum / decomp.lnx();
  }
  return out;
}

std::vector<double> zonal_mean_t(const ops::OpContext& ctx,
                                 const state::State& xi, int k) {
  const auto& decomp = *ctx.decomp;
  std::vector<double> out(static_cast<std::size_t>(decomp.lny()), 0.0);
  const double t_ref = ctx.strat->t_ref(ctx.gk(k));
  for (int j = 0; j < decomp.lny(); ++j) {
    double sum = 0.0;
    for (int i = 0; i < decomp.lnx(); ++i) {
      const double pc = state::p_factor_s(xi.psa(), *ctx.strat, i, j);
      sum += t_ref + util::kGravityWaveSpeed * xi.phi()(i, j, k) /
                         (pc * util::kRd);
    }
    out[static_cast<std::size_t>(j)] = sum / decomp.lnx();
  }
  return out;
}

std::vector<double> zonal_spectrum(const ops::OpContext& ctx,
                                   const util::Array3D<double>& f, int j,
                                   int k) {
  const int nx = ctx.mesh->nx();
  std::vector<fft::cplx> line(static_cast<std::size_t>(nx));
  for (int i = 0; i < nx; ++i)
    line[static_cast<std::size_t>(i)] = fft::cplx{f(i, j, k), 0.0};
  fft::Plan plan(static_cast<std::size_t>(nx));
  plan.forward(line);
  std::vector<double> power(static_cast<std::size_t>(nx / 2) + 1, 0.0);
  for (int m = 0; m <= nx / 2; ++m) {
    double p = std::norm(line[static_cast<std::size_t>(m)]);
    if (m > 0 && m < nx - m)
      p += std::norm(line[static_cast<std::size_t>(nx - m)]);
    power[static_cast<std::size_t>(m)] = p / (static_cast<double>(nx) *
                                              static_cast<double>(nx));
  }
  return power;
}

}  // namespace ca::core
