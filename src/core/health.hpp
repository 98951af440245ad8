// Numerical-health sentinel: cheap blowup detection over the prognostic
// state, run by the campaign loop at a configurable step cadence.  The
// verdict derives ONLY from the allreduced GlobalDiag — every rank of a
// distributed run computes the identical reduced values, so every rank
// reaches the identical verdict without a second agreement round, and a
// tripped check throws NumericalError on all ranks together at the same
// step boundary (no rank is left hanging in a collective).
//
// Three detector families, cheapest first:
//   - non-finite: any NaN/Inf in the diagnostics integrals or the
//     NaN-sticky field maxima (a NaN anywhere in an owned interior
//     poisons the energy sums, so this catches single-cell corruption);
//   - physical bounds: the field maxima against loose configurable caps
//     (transformed wind, geopotential/temperature proxy, surface
//     pressure anomaly) — a runaway field trips these long before the
//     floats saturate;
//   - growth: the |energy|/|mass| integrals against the RUNNING MAXIMUM
//     of the healthy checks seen so far; a value beyond the cap times
//     that scale flags a blowup that is still finite and in bounds.  The
//     scale is a running max (not the previous check) because the mass
//     anomaly is a signed integral that starts near zero by cancellation
//     — step-to-step ratios during spin-up are meaningless — and a short
//     warmup of healthy checks establishes the trajectory's natural
//     magnitude before the detector engages.
#pragma once

#include <stdexcept>
#include <string>

#include "core/diagnostics.hpp"

namespace ca::core {

/// The model state went numerically bad (NaN/Inf, out-of-bounds field,
/// runaway integral).  Deliberately NOT a comm::CommError: the comm layer
/// is healthy, the trajectory is poisoned — the service rolls the job
/// back to its last healthy checkpoint under a separate retry budget
/// instead of treating it as an infrastructure fault.
struct NumericalError : std::runtime_error {
  NumericalError(int step, const std::string& reason)
      : std::runtime_error("numerical health check failed at step " +
                           std::to_string(step) + ": " + reason),
        step(step),
        reason(reason) {}

  int step;
  std::string reason;
};

/// Sentinel knobs (a WorkerPool applies the CA_AGCM_HEALTH_* env
/// overrides to its copy).  The default-constructed options are OFF
/// (cadence 0) so plain campaigns keep their exact message counts; the
/// ensemble service turns the sentinel ON by default (cadence 1, see
/// PoolOptions).  The bounds are deliberately loose — an order of
/// magnitude past anything a sane integration produces — so a healthy
/// run never trips them.
struct HealthOptions {
  /// Check every N steps (absolute step numbering, like the diagnostics
  /// and checkpoint cadences, so a resumed run checks at the same steps
  /// as an uninterrupted one).  0 disables the sentinel entirely.
  int cadence = 0;
  /// Cap on the transformed wind maxima |U|, |V| [m/s-equivalent].
  double max_wind = 1.0e4;
  /// Cap on |Phi| (the transformed geopotential deviation; the
  /// temperature proxy — see core::zonal_mean_t).
  double max_phi = 1.0e6;
  /// Cap on the surface pressure anomaly |p'_sa| [Pa].
  double max_psa = 1.0e6;
  /// Max factor |total energy| may exceed the running maximum over all
  /// previous healthy checks (a conserved quantity in a healthy run).
  double max_energy_growth = 100.0;
  /// Same for the |mass anomaly| integral.
  double max_mass_growth = 100.0;
  /// Healthy checks that must pass before the growth detectors engage:
  /// integrals spin up from (near) zero on a cold start, so the first
  /// few checks only establish the trajectory's natural scale.  The
  /// non-finite and bounds detectors are active from the first check
  /// regardless.
  int growth_warmup = 2;

  bool enabled() const { return cadence > 0; }
};

/// Stateful checker: holds the running-max integral scales for the growth
/// detector.  One instance per campaign (per attempt) — a fresh attempt
/// re-baselines, so a restore never diffs against a stale trajectory.
class HealthSentinel {
 public:
  explicit HealthSentinel(const HealthOptions& opts) : opts_(opts) {}

  /// Verdict on an (allreduced) diagnostics snapshot: empty = healthy,
  /// otherwise the first violation.  Pure function of (opts, history, d),
  /// so ranks feeding it the same reduced GlobalDiag agree byte-for-byte.
  std::string check(const GlobalDiag& d);

  /// Bounds/finiteness-only verdict (no growth baseline, none recorded):
  /// what a restore verification needs — a single state, no trajectory.
  static std::string check_static(const HealthOptions& opts,
                                  const GlobalDiag& d);

 private:
  HealthOptions opts_;
  int healthy_checks_ = 0;
  double energy_scale_ = 0.0;  // running max |total energy| over healthy checks
  double mass_scale_ = 0.0;    // running max |mass anomaly| over healthy checks
};

}  // namespace ca::core
