#include "state/initial.hpp"

#include <cmath>
#include <cstdint>

#include "state/transforms.hpp"
#include "util/math.hpp"

namespace ca::state {
namespace {

/// Deterministic double in [-1, 1] from global coordinates (splitmix64).
double hash_noise(unsigned seed, int gi, int gj, int gk) {
  std::uint64_t x = static_cast<std::uint64_t>(seed) * 0x9E3779B97F4A7C15ull;
  x ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(gi)) *
       0xBF58476D1CE4E5B9ull;
  x ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(gj)) *
       0x94D049BB133111EBull;
  x ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(gk)) *
       0xD6E8FEB86659FD93ull;
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return 2.0 * (static_cast<double>(x >> 11) * 0x1.0p-53) - 1.0;
}

/// Zonal jet profile: peak at mid-latitudes of both hemispheres, vanishing
/// at the poles, concentrated in the upper troposphere.
double jet_u(double theta, double sigma, double u0) {
  const double lat_shape = std::pow(std::sin(2.0 * theta), 2);
  const double vert_shape =
      std::exp(-std::pow((sigma - 0.25) / 0.35, 2));
  return u0 * lat_shape * vert_shape;
}

}  // namespace

void initialize(State& xi, const mesh::LatLonMesh& mesh,
                const mesh::SigmaLevels& levels, const Stratification& strat,
                const mesh::DomainDecomp& decomp,
                const InitialOptions& options) {
  xi.fill(0.0);
  if (options.kind == InitialCondition::kRestIsothermal) return;

  const double p_ref = strat.p_factor_ref();
  const int lnx = decomp.lnx(), lny = decomp.lny(), lnz = decomp.lnz();

  if (options.kind == InitialCondition::kRandomPerturbation) {
    for (int j = 0; j < lny; ++j)
      for (int i = 0; i < lnx; ++i)
        xi.psa()(i, j) = options.random_amplitude * util::kPressureRef *
                         1e-3 *
                         hash_noise(options.seed, decomp.gi(i),
                                    decomp.gj(j), -1);
    for (int k = 0; k < lnz; ++k)
      for (int j = 0; j < lny; ++j)
        for (int i = 0; i < lnx; ++i)
          xi.phi()(i, j, k) =
              options.random_amplitude * util::kGravityWaveSpeed *
              hash_noise(options.seed, decomp.gi(i), decomp.gj(j),
                         decomp.gk(k));
    return;
  }

  // Jet (and optional wave): p_s = p~_s everywhere, so P is uniform and
  // the transform reduces to multiplication by p_ref.
  const bool wave = options.kind == InitialCondition::kPlanetaryWave;
  constexpr int kWavenumber = 4;
  for (int k = 0; k < lnz; ++k) {
    const double sigma = levels.full(decomp.gk(k));
    for (int j = 0; j < lny; ++j) {
      const int gj = decomp.gj(j);
      const double theta_u = mesh.theta(gj);
      const double theta_vv = mesh.theta_v(gj);
      for (int i = 0; i < lnx; ++i) {
        const int gi = decomp.gi(i);
        double u_phys = jet_u(theta_u, sigma, options.jet_speed);
        double v_phys = 0.0;
        double t_anom =
            -2.0 * std::cos(2.0 * theta_u);  // warm equator, cold poles
        if (wave) {
          const double lam_u = mesh.lambda_u(gi);
          const double lam_c = mesh.lambda(gi);
          const double s3 = std::pow(std::sin(theta_u), 3);
          u_phys += options.wave_amplitude * options.jet_speed * s3 *
                    std::cos(kWavenumber * lam_u);
          v_phys = -options.wave_amplitude * options.jet_speed *
                   std::pow(std::sin(theta_vv), 3) *
                   std::sin(kWavenumber * lam_c);
          t_anom += 0.5 * std::sin(theta_u) * std::cos(kWavenumber * lam_c);
        }
        xi.u()(i, j, k) = p_ref * u_phys;
        xi.v()(i, j, k) = p_ref * v_phys;
        xi.phi()(i, j, k) =
            p_ref * util::kRd * t_anom / util::kGravityWaveSpeed;
      }
    }
  }
}

util::Array2D<double> make_terrain(
    const mesh::LatLonMesh& mesh, const mesh::DomainDecomp& decomp, int hx,
    int hy, const std::function<double(double, double)>& phi_s) {
  util::Array2D<double> out(decomp.lnx(), decomp.lny(), hx, hy);
  for (int j = -hy; j < decomp.lny() + hy; ++j) {
    // Reflect across the poles like the scalar boundary fill so halo rows
    // carry the values the owner-side reflection would produce.
    int gj = decomp.gj(j);
    if (gj < 0) gj = -gj - 1;
    if (gj >= mesh.ny()) gj = 2 * mesh.ny() - 1 - gj;
    const double theta = mesh.theta(gj);
    for (int i = -hx; i < decomp.lnx() + hx; ++i) {
      const int gi =
          ((decomp.gi(i) % mesh.nx()) + mesh.nx()) % mesh.nx();
      out(i, j) = phi_s(mesh.lambda(gi), theta);
    }
  }
  return out;
}

std::function<double(double, double)> gaussian_mountain(double height_m,
                                                        double lambda0,
                                                        double theta0,
                                                        double width) {
  return [=](double lambda, double theta) {
    // Great-circle-ish angular distance via the chord on the unit sphere.
    const double x0 = std::sin(theta0) * std::cos(lambda0);
    const double y0 = std::sin(theta0) * std::sin(lambda0);
    const double z0 = std::cos(theta0);
    const double x = std::sin(theta) * std::cos(lambda);
    const double y = std::sin(theta) * std::sin(lambda);
    const double z = std::cos(theta);
    const double dot =
        std::min(1.0, std::max(-1.0, x * x0 + y * y0 + z * z0));
    const double dist = std::acos(dot);
    return util::kGravity * height_m *
           std::exp(-(dist * dist) / (width * width));
  };
}

void apply_terrain_surface_pressure(State& xi, const Stratification& strat,
                                    const util::Array2D<double>& phi_s,
                                    const mesh::DomainDecomp& decomp) {
  const double rt = util::kRd * Stratification::t_standard(strat.ps_ref());
  for (int j = 0; j < decomp.lny(); ++j)
    for (int i = 0; i < decomp.lnx(); ++i)
      xi.psa()(i, j) =
          strat.ps_ref() * (std::exp(-phi_s(i, j) / rt) - 1.0);
}

}  // namespace ca::state
