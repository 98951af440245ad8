#include "core/health.hpp"

#include <cmath>
#include <cstdio>


namespace ca::core {
namespace {

/// Growth scales below this magnitude are treated as "no baseline":
/// relative growth against a near-zero integral is meaningless (the mass
/// anomaly legitimately crosses zero), and skipping keeps a zero-energy
/// test state from tripping the sentinel on its first spin-up.
constexpr double kGrowthFloor = 1.0e-12;

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

std::string HealthSentinel::check_static(const HealthOptions& opts,
                                         const GlobalDiag& d) {
  // Non-finite first: the energy sums are NaN/Inf the moment ANY owned
  // interior cell is (sums propagate where a max could mask), and the
  // maxima are NaN-sticky by construction.
  if (!std::isfinite(d.quad_energy) || !std::isfinite(d.surface_energy) ||
      !std::isfinite(d.mass_anomaly))
    return "non-finite energy/mass integral (quad_energy " +
           fmt(d.quad_energy) + ", surface_energy " + fmt(d.surface_energy) +
           ", mass_anomaly " + fmt(d.mass_anomaly) + ")";
  if (!std::isfinite(d.max_abs_u) || !std::isfinite(d.max_abs_v) ||
      !std::isfinite(d.max_abs_phi) || !std::isfinite(d.max_abs_psa))
    return "non-finite prognostic field (max |U| " + fmt(d.max_abs_u) +
           ", |V| " + fmt(d.max_abs_v) + ", |Phi| " + fmt(d.max_abs_phi) +
           ", |psa| " + fmt(d.max_abs_psa) + ")";
  if (d.max_abs_u > opts.max_wind || d.max_abs_v > opts.max_wind)
    return "wind bound exceeded: max |U| " + fmt(d.max_abs_u) + ", |V| " +
           fmt(d.max_abs_v) + " > " + fmt(opts.max_wind);
  if (d.max_abs_phi > opts.max_phi)
    return "geopotential bound exceeded: max |Phi| " + fmt(d.max_abs_phi) +
           " > " + fmt(opts.max_phi);
  if (d.max_abs_psa > opts.max_psa)
    return "surface-pressure bound exceeded: max |psa| " +
           fmt(d.max_abs_psa) + " > " + fmt(opts.max_psa);
  return {};
}

std::string HealthSentinel::check(const GlobalDiag& d) {
  std::string verdict = check_static(opts_, d);
  // Growth detection compares against the running max over healthy
  // checks, never the previous check alone: the mass anomaly is a signed
  // integral that starts near zero by cancellation, so its step-to-step
  // ratio during spin-up is arbitrary.  The warmup lets the trajectory
  // reach its natural magnitude before the caps mean anything.
  if (verdict.empty() && healthy_checks_ >= opts_.growth_warmup) {
    const double energy = std::abs(d.total_energy());
    const double mass = std::abs(d.mass_anomaly);
    if (energy_scale_ > kGrowthFloor &&
        energy > opts_.max_energy_growth * energy_scale_)
      verdict = "energy runaway: |total energy| " + fmt(energy) +
                " exceeds " + fmt(opts_.max_energy_growth) +
                "x the healthy running scale (" + fmt(energy_scale_) + ")";
    else if (mass_scale_ > kGrowthFloor &&
             mass > opts_.max_mass_growth * mass_scale_)
      verdict = "mass runaway: |mass anomaly| " + fmt(mass) + " exceeds " +
                fmt(opts_.max_mass_growth) +
                "x the healthy running scale (" + fmt(mass_scale_) + ")";
  }
  if (verdict.empty()) {
    // Only a healthy snapshot feeds the scales: a poisoned one must not
    // normalize further growth while the error unwinds.
    ++healthy_checks_;
    energy_scale_ = std::max(energy_scale_, std::abs(d.total_energy()));
    mass_scale_ = std::max(mass_scale_, std::abs(d.mass_anomaly));
  }
  return verdict;
}

}  // namespace ca::core
