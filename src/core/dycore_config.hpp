// Run configuration shared by the serial, original, and
// communication-avoiding dynamical-core drivers.
#pragma once

#include "comm/collectives.hpp"
#include "ops/context.hpp"

namespace ca::core {

enum class DecompScheme {
  kXY,   ///< dims {px, py, 1}: F distributed along x, C local
  kYZ,   ///< dims {1, py, pz}: F local, C collective along z
  k3D,   ///< dims {px, py, pz}: both F and C distributed (the scheme the
         ///< paper notes is "always less efficient" than 2-D in practice)
};

struct DycoreConfig {
  int nx = 36;
  int ny = 18;
  int nz = 8;
  /// Number of nonlinear iterations of the adaptation process per step.
  int M = 3;
  /// Adaptation sub-step dt1 [s] (dt1 << dt2).
  double dt_adapt = 60.0;
  /// Advection step dt2 [s].
  double dt_advect = 360.0;
  /// Vertically stretched sigma levels instead of uniform.
  bool stretched_levels = false;
  ops::ModelParams params;
  /// Allreduce algorithm for the z-line collectives (kLinearOrdered gives
  /// bitwise-deterministic sums for equivalence tests).
  comm::AllreduceAlgorithm z_allreduce = comm::AllreduceAlgorithm::kAuto;
};

/// The config's sigma levels (vertically stretched or uniform).
inline mesh::SigmaLevels make_levels(const DycoreConfig& c) {
  return c.stretched_levels ? mesh::SigmaLevels::stretched(c.nz)
                            : mesh::SigmaLevels::uniform(c.nz);
}

/// Algorithm switches of the communication-avoiding core (see
/// core/ca_core.hpp).  Lives here, beside DycoreConfig, so the service's
/// JobSpec can carry per-job CA options without pulling in the whole
/// core.
struct CAOptions {
  /// Reuse the previous C products in the first update of each iteration
  /// (off = fresh C everywhere: 3 collectives per iteration, for the
  /// ablation benchmarks).
  bool approximate_iteration = true;
  /// Split the exchange around the inner computation (off = blocking
  /// exchange before any computation).
  bool overlap = true;
  /// Fuse the split smoothing into the adaptation exchange (off = a
  /// separate exchange for the smoothing, like the original algorithm).
  bool fuse_smoothing = true;
  /// Evaluate the fresh C collectives on the BLOCK face only (the paper's
  /// scheme: collective volume exactly 2/3 of the original; the extended
  /// windows' halo rows keep the exchanged stale C products, an error of
  /// the same class as the approximate iteration).  Off = collectives on
  /// the full extended faces: larger volume, but the algorithm becomes
  /// bitwise invariant to the y split (used by the equivalence tests and
  /// by jobs that must stay bitwise across a degraded-pool reshard; a
  /// pz change still regroups the z-collective sums — round-off class).
  bool fresh_c_on_block_face = true;
};

/// Halo layout for a core whose exchange covers D stencil updates (D = 1
/// for the serial and original cores' per-update exchange; the
/// communication-avoiding core reads its layout off its step plans,
/// core::ca_layout).
inline state::StateHalo halos_for_depth(int depth) {
  state::StateHalo h;
  // y needs one extra layer beyond the exchange-covered updates: the
  // divergence on the face ring reads V one row past the deepest window.
  h.h3 = util::Halo3{3, std::max(depth + 1, 2), std::max(depth, 1)};
  h.hx2 = 3;
  h.hy2 = depth + 2;
  return h;
}

}  // namespace ca::core
