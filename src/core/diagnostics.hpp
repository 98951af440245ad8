// Global model diagnostics: the quadratic invariant the IAP transform is
// designed to conserve (sum of kinetic + available potential + available
// surface potential energy in transformed variables), mass, extrema, and
// zonal means for the Held-Suarez climatology.
#pragma once

#include <vector>

#include "comm/collectives.hpp"
#include "ops/context.hpp"
#include "state/state.hpp"

namespace ca::core {

struct GlobalDiag {
  /// Volume integral of (U^2 + V^2 + Phi^2) (kinetic + available potential
  /// energy density in transformed variables).
  double quad_energy = 0.0;
  /// Area integral of b^2 (p'_sa / p_0)^2 (available surface potential).
  double surface_energy = 0.0;
  /// Area integral of p'_sa (mass anomaly).
  double mass_anomaly = 0.0;
  double max_abs_u = 0.0;
  double max_abs_v = 0.0;
  double max_abs_phi = 0.0;
  double max_abs_psa = 0.0;

  double total_energy() const { return quad_energy + surface_energy; }
};

/// Diagnostics of this rank's block (no communication).
GlobalDiag local_diagnostics(const ops::OpContext& ctx,
                             const state::State& xi);

/// Combines per-rank diagnostics over a communicator (sum the integrals,
/// max the extrema).
GlobalDiag reduce_diagnostics(comm::Context& comm_ctx,
                              const comm::Communicator& comm,
                              const GlobalDiag& mine);

/// Zonal (x) mean of the physical u at each owned row, at level k.
std::vector<double> zonal_mean_u(const ops::OpContext& ctx,
                                 const state::State& xi, int k);

/// Zonal mean temperature [K] at each owned row, at level k.
std::vector<double> zonal_mean_t(const ops::OpContext& ctx,
                                 const state::State& xi, int k);

/// Zonal power spectrum |F_m|^2 of a field's latitude circle (local row
/// j, level k), for wavenumbers m = 0..nx/2.  Requires the rank to own
/// full circles (Y-Z decomposition).  Used to verify the polar filter's
/// damping and to diagnose grid-scale noise.
std::vector<double> zonal_spectrum(const ops::OpContext& ctx,
                                   const util::Array3D<double>& f, int j,
                                   int k);

}  // namespace ca::core
