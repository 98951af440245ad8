#include "swe/shallow_water.hpp"

#include <cmath>
#include <stdexcept>

#include "core/exchange.hpp"
#include "fft/fft.hpp"
#include "util/math.hpp"

namespace ca::swe {
namespace {

constexpr int kHalo = 2;

/// Wrap/reflect boundary fills for one 2-D field.
void fill_boundaries_2d(const mesh::DomainDecomp& d,
                        util::Array2D<double>& f, bool antisymmetric) {
  const int nx = f.nx(), ny = f.ny();
  // Periodic x (the y decomposition keeps full circles).
  mesh::fill_x_periodic(f, f.hx());
  if (d.at_north_pole()) {
    for (int dd = 1; dd <= f.hy(); ++dd)
      for (int i = -f.hx(); i < nx + f.hx(); ++i)
        f(i, -dd) = antisymmetric ? (dd == 1 ? 0.0 : -f(i, dd - 2))
                                  : f(i, dd - 1);
  }
  if (d.at_south_pole()) {
    if (antisymmetric)
      for (int i = -f.hx(); i < nx + f.hx(); ++i) f(i, ny - 1) = 0.0;
    for (int dd = 1; dd <= f.hy(); ++dd)
      for (int i = -f.hx(); i < nx + f.hx(); ++i)
        f(i, ny - 1 + dd) =
            antisymmetric ? -f(i, ny - 1 - dd) : f(i, ny - dd);
  }
}

}  // namespace

ShallowWaterCore::ShallowWaterCore(const SweConfig& config)
    : config_(config),
      mesh_(config.nx, config.ny, /*nz=*/1),
      decomp_(mesh_, {1, 1, 1}, {0, 0, 0}),
      tend_(make_state()),
      eta_(make_state()),
      mid_(make_state()) {}

ShallowWaterCore::ShallowWaterCore(const SweConfig& config,
                                   comm::Context& ctx, int py)
    : config_(config),
      mesh_(config.nx, config.ny, /*nz=*/1),
      decomp_(mesh_,
              {1, py, 1},
              [&] {
                if (ctx.world_size() != py)
                  throw std::invalid_argument(
                      "ShallowWaterCore: world size must equal py");
                return std::array<int, 3>{0, ctx.world_rank(), 0};
              }()),
      comm_ctx_(&ctx),
      topo_(comm::make_cart(ctx, ctx.world(), {1, py, 1},
                            {true, false, false})),
      tend_(make_state()),
      eta_(make_state()),
      mid_(make_state()) {}

SweState ShallowWaterCore::make_state() const {
  return SweState(decomp_.lnx(), decomp_.lny(), kHalo, kHalo);
}

void ShallowWaterCore::initialize(SweState& s, SweInitial kind) const {
  const double g = util::kGravity;
  const double H = config_.mean_depth;
  const double a = mesh_.radius();
  const double u0 = 25.0;
  for (int j = -kHalo; j < decomp_.lny() + kHalo; ++j) {
    const int gj = decomp_.gj(j);
    if (gj < -kHalo || gj >= mesh_.ny() + kHalo) continue;
    const double theta =
        std::min(std::max(mesh_.theta(gj), 0.0), util::kPi);
    for (int i = 0; i < decomp_.lnx(); ++i) {
      const double lambda = mesh_.lambda(i);
      switch (kind) {
        case SweInitial::kRest:
          s.h(i, j) = H;
          s.u(i, j) = 0.0;
          s.v(i, j) = 0.0;
          break;
        case SweInitial::kGeostrophicJet: {
          // u = u0 sin^2(theta); the balanced height satisfies
          // g dh/d(theta) = +(2 Omega cos(theta) u + u^2 cot(theta)/a) a
          // (colatitude convention); integrate analytically for the
          // 2*Omega term and approximate the metric term (small).
          const double st = std::sin(theta);
          s.u(i, j) = u0 * st * st;
          // Steady v-momentum: g dh/dtheta = -2 Omega cos(theta) u a
          // (v positive southward); integral of cos sin^2 = sin^3/3.
          const double omega_a = 2.0 * util::kOmega * a * u0;
          s.h(i, j) = H - (omega_a / g) * (st * st * st / 3.0);
          s.v(i, j) = 0.0;
          break;
        }
        case SweInitial::kRossbyHaurwitz: {
          // Williamson et al. (1992) test 6, wavenumber R = 4, in
          // colatitude convention (phi = pi/2 - theta, cos(phi) =
          // sin(theta)).
          const int R = 4;
          const double w = 7.848e-6, K = 7.848e-6;
          const double A2 = util::kOmega;
          const double cphi = std::sin(theta);   // cos(latitude)
          const double sphi = std::cos(theta);   // sin(latitude)
          const double cR = std::pow(cphi, R);
          s.u(i, j) = a * w * cphi +
                      a * K * cR / std::max(cphi, 1e-12) *
                          (R * sphi * sphi - cphi * cphi) *
                          std::cos(R * lambda);
          // v = -a K R cos^{R-1} sin(phi) sin(R lambda); our v is positive
          // TOWARD THE SOUTH POLE (increasing theta), i.e. -d(phi)/dt.
          s.v(i, j) = a * K * R * std::pow(cphi, R - 1) * sphi *
                      std::sin(R * lambda);
          // Height: full Williamson A/B/C coefficients (a^2 folded in).
          const double gA =
              a * a * (0.5 * w * (2.0 * A2 + w) * cphi * cphi +
                       0.25 * K * K * std::pow(cphi, 2 * R) *
                           ((R + 1.0) * cphi * cphi +
                            (2.0 * R * R - R - 2.0) -
                            2.0 * R * R / std::max(cphi * cphi, 1e-12)));
          const double gB = 2.0 * (A2 + w) * K / ((R + 1.0) * (R + 2.0)) *
                            a * a * cR *
                            ((R * R + 2.0 * R + 2.0) -
                             std::pow(R + 1.0, 2) * cphi * cphi);
          const double gC = 0.25 * K * K * a * a * std::pow(cphi, 2 * R) *
                            ((R + 1.0) * cphi * cphi - (R + 2.0));
          s.h(i, j) = H + (gA + gB * std::cos(R * lambda) +
                           gC * std::cos(2.0 * R * lambda)) /
                              util::kGravity;
          break;
        }
        case SweInitial::kGravityWave: {
          const double dl = std::cos(lambda) * std::sin(theta);
          const double bump =
              200.0 * std::exp(-20.0 * (1.0 - dl) - 4.0 *
                               std::pow(std::cos(theta), 2));
          s.h(i, j) = H + bump;
          s.u(i, j) = 0.0;
          s.v(i, j) = 0.0;
          break;
        }
      }
    }
  }
}

void ShallowWaterCore::refresh_halos(SweState& s) {
  if (comm_ctx_ != nullptr && decomp_.dims()[1] > 1) {
    core::HaloExchanger ex(*comm_ctx_, topo_);
    std::vector<core::ExchangeItem> items{
        {nullptr, &s.h, 0, kHalo, 0},
        {nullptr, &s.u, 0, kHalo, 0},
        {nullptr, &s.v, 0, kHalo, 0}};
    ex.exchange(items);
  }
  fill_boundaries_2d(decomp_, s.h, false);
  fill_boundaries_2d(decomp_, s.u, false);
  fill_boundaries_2d(decomp_, s.v, true);
}

void ShallowWaterCore::tendency(SweState& s, SweState& tend) {
  refresh_halos(s);
  const double g = util::kGravity;
  const double a = mesh_.radius();
  const double dl = mesh_.dlambda();
  const double dt = mesh_.dtheta();
  const int lnx = decomp_.lnx(), lny = decomp_.lny();

  for (int j = 0; j < lny; ++j) {
    const int gj = decomp_.gj(j);
    const double st = mesh_.sin_theta(gj);
    const double svn = mesh_.sin_theta_v(gj - 1);
    const double svs = mesh_.sin_theta_v(gj);
    const double f_u = 2.0 * util::kOmega * mesh_.cos_theta(gj);
    for (int i = 0; i < lnx; ++i) {
      // --- continuity: dh/dt = -div(h v) (C-grid flux form) ---
      const double flux_w = s.u(i, j) * 0.5 * (s.h(i - 1, j) + s.h(i, j));
      const double flux_e =
          s.u(i + 1, j) * 0.5 * (s.h(i, j) + s.h(i + 1, j));
      const double flux_n = s.v(i, j - 1) * svn * 0.5 *
                            (s.h(i, j - 1) + s.h(i, j));
      const double flux_s =
          s.v(i, j) * svs * 0.5 * (s.h(i, j) + s.h(i, j + 1));
      tend.h(i, j) =
          -((flux_e - flux_w) / dl + (flux_s - flux_n) / dt) / (a * st);

      // --- u momentum at (i-1/2, j) ---
      const double dhdx = (s.h(i, j) - s.h(i - 1, j)) / (a * st * dl);
      const double v_at_u = 0.25 * (s.v(i - 1, j - 1) + s.v(i, j - 1) +
                                    s.v(i - 1, j) + s.v(i, j));
      const double dudx =
          (s.u(i + 1, j) - s.u(i - 1, j)) / (2.0 * a * st * dl);
      const double dudy = (s.u(i, j + 1) - s.u(i, j - 1)) / (2.0 * a * dt);
      const double u_adv = s.u(i, j) * dudx + v_at_u * dudy;
      // du/dt = -f v (v positive southward).
      tend.u(i, j) = -f_u * v_at_u - g * dhdx - u_adv;

      // --- v momentum at (i, j+1/2) ---
      const double sv = mesh_.sin_theta_v(gj);
      if (sv < 1e-12) {
        tend.v(i, j) = 0.0;  // pole edge: flux pinned to zero
      } else {
        const double dhdy = (s.h(i, j + 1) - s.h(i, j)) / (a * dt);
        const double u_at_v = 0.25 * (s.u(i, j) + s.u(i + 1, j) +
                                      s.u(i, j + 1) + s.u(i + 1, j + 1));
        const double f_v =
            util::kOmega * (mesh_.cos_theta(gj) + mesh_.cos_theta(gj + 1));
        const double dvdx =
            (s.v(i + 1, j) - s.v(i - 1, j)) / (2.0 * a * sv * dl);
        const double dvdy = (s.v(i, j + 1) - s.v(i, j - 1)) / (2.0 * a * dt);
        const double v_adv = u_at_v * dvdx + s.v(i, j) * dvdy;
        // dv/dt = +f u in the southward-v convention.
        tend.v(i, j) = f_v * u_at_v - g * dhdy - v_adv;
      }
    }
  }
  apply_polar_filter(tend);
}

void ShallowWaterCore::apply_polar_filter(SweState& tend) {
  const int nx = mesh_.nx();
  const double aspect = static_cast<double>(nx) / (2.0 * mesh_.ny());
  fft::Plan plan(static_cast<std::size_t>(nx));
  std::vector<fft::cplx> line(static_cast<std::size_t>(nx));
  std::vector<fft::cplx> scratch(plan.scratch_size());
  auto filter_row = [&](util::Array2D<double>& f, int j, double st) {
    for (int i = 0; i < nx; ++i)
      line[static_cast<std::size_t>(i)] = fft::cplx{f(i, j), 0.0};
    plan.forward(line, scratch);
    for (int m = 1; m < nx; ++m) {
      const int m_eff = std::min(m, nx - m);
      const double smn = std::sin(util::kPi * m_eff / nx);
      const double damp = std::min(1.0, st * aspect / smn);
      line[static_cast<std::size_t>(m)] *= damp;
    }
    plan.inverse(line, scratch);
    for (int i = 0; i < nx; ++i)
      f(i, j) = line[static_cast<std::size_t>(i)].real();
  };
  for (int j = 0; j < decomp_.lny(); ++j) {
    const int gj = decomp_.gj(j);
    const double theta = mesh_.theta(gj);
    if (theta > config_.filter_band &&
        theta < util::kPi - config_.filter_band)
      continue;
    const double st = mesh_.sin_theta(gj);
    filter_row(tend.h, j, st);
    filter_row(tend.u, j, st);
    filter_row(tend.v, j, st);
  }
}

void ShallowWaterCore::lincomb(SweState& out, const SweState& a, double c,
                               const SweState& b) const {
  for (int j = 0; j < decomp_.lny(); ++j)
    for (int i = 0; i < decomp_.lnx(); ++i) {
      out.h(i, j) = a.h(i, j) + c * b.h(i, j);
      out.u(i, j) = a.u(i, j) + c * b.u(i, j);
      out.v(i, j) = a.v(i, j) + c * b.v(i, j);
    }
}

void ShallowWaterCore::step(SweState& s) {
  const double dt = config_.dt;
  tendency(s, tend_);
  lincomb(eta_, s, dt, tend_);
  tendency(eta_, tend_);
  lincomb(eta_, s, dt, tend_);
  for (int j = 0; j < decomp_.lny(); ++j)
    for (int i = 0; i < decomp_.lnx(); ++i) {
      mid_.h(i, j) = 0.5 * (s.h(i, j) + eta_.h(i, j));
      mid_.u(i, j) = 0.5 * (s.u(i, j) + eta_.u(i, j));
      mid_.v(i, j) = 0.5 * (s.v(i, j) + eta_.v(i, j));
    }
  tendency(mid_, tend_);
  lincomb(s, s, dt, tend_);
}

double ShallowWaterCore::local_mass(const SweState& s) const {
  double mass = 0.0;
  for (int j = 0; j < decomp_.lny(); ++j) {
    const double area = mesh_.cell_area(decomp_.gj(j));
    for (int i = 0; i < decomp_.lnx(); ++i) mass += s.h(i, j) * area;
  }
  return mass;
}

double ShallowWaterCore::local_energy(const SweState& s) const {
  double e = 0.0;
  for (int j = 0; j < decomp_.lny(); ++j) {
    const double area = mesh_.cell_area(decomp_.gj(j));
    for (int i = 0; i < decomp_.lnx(); ++i) {
      const double ke = 0.5 * s.h(i, j) *
                        (s.u(i, j) * s.u(i, j) + s.v(i, j) * s.v(i, j));
      const double pe = 0.5 * util::kGravity * s.h(i, j) * s.h(i, j);
      e += (ke + pe) * area;
    }
  }
  return e;
}

double ShallowWaterCore::zonal_phase(const SweState& s, int j, int m) const {
  double cs = 0.0, sn = 0.0;
  const int nx = mesh_.nx();
  for (int i = 0; i < nx; ++i) {
    const double ang = 2.0 * util::kPi * m * i / nx;
    cs += s.h(i, j) * std::cos(ang);
    sn += s.h(i, j) * std::sin(ang);
  }
  return std::atan2(sn, cs);
}

double ShallowWaterCore::max_abs_velocity(const SweState& s) const {
  double m = 0.0;
  for (int j = 0; j < decomp_.lny(); ++j)
    for (int i = 0; i < decomp_.lnx(); ++i)
      m = std::max({m, std::abs(s.u(i, j)), std::abs(s.v(i, j))});
  return m;
}

}  // namespace ca::swe
