// Single-rank (or p_z = 1) diagnostic evaluation: computes LocalDiag and
// VertDiag for a window with no cross-rank bases.  Used by the serial
// reference core, the X-Y decomposition executor (where C is z-local), and
// the operator unit tests.  The distributed Y-Z path lives in
// core/exchange (it inserts the two z-line collectives between
// column_partials and column_finish).
#pragma once

#include <vector>

#include "mesh/halo.hpp"
#include "ops/context.hpp"
#include "state/state.hpp"

namespace ca::ops {

/// Scratch space for one diagnostic evaluation.
struct DiagWorkspace {
  DiagWorkspace() = default;
  DiagWorkspace(int lnx, int lny, int lnz, const state::StateHalo& halo)
      : local(lnx, lny, lnz, halo),
        vert(lnx, lny, lnz, halo),
        own_div(lnx, lny, halo.hx2, halo.hy2),
        own_phi(lnx, lny, halo.hx2, halo.hy2),
        base_div(lnx, lny, halo.hx2, halo.hy2),
        base_phi(lnx, lny, halo.hx2, halo.hy2),
        total_div(lnx, lny, halo.hx2, halo.hy2),
        total_phi(lnx, lny, halo.hx2, halo.hy2) {}

  LocalDiag local;
  /// C's products; the communication-avoiding core carries them across
  /// steps (the stale products of paper eq. 13) and checkpoints them.
  VertDiag vert;
  // C's column anchors: every C rewrites them on its face ring before it
  // reads them, so they hold nothing across steps.
  util::Array2D<double> own_div, own_phi;      ///< per-rank column sums
  util::Array2D<double> base_div, base_phi;    ///< exscan prefixes
  util::Array2D<double> total_div, total_phi;  ///< allreduce totals
  /// Packed [div | phi] face vectors of the z-line collectives, kept
  /// across calls so the distributed C allocates nothing once warm.
  std::vector<double> column_own, column_total, column_prefix;
};

/// Total extra cells (beyond the update window) on which the surface
/// factors pes/pfac are evaluated: the face ring (x +-2, y +-1) plus one
/// more staggering/stencil cell.
inline constexpr int kSurfaceRing = 3;

/// Computes local.pes/pfac/div for the update window `window` (divergence
/// on window expanded by 1 in x and y so column sums and sdot
/// interpolation have their ring).  Inputs must be valid on window +
/// kSurfaceRing + 1.
void compute_local_diag(const OpContext& ctx, const state::State& xi,
                        const mesh::Box& window, DiagWorkspace& ws);

/// Completes VertDiag assuming p_z == 1 (no cross-rank bases): the column
/// sums over owned z ARE the global sums.
void compute_vert_diag_serial(const OpContext& ctx, const state::State& xi,
                              const mesh::Box& window, DiagWorkspace& ws);

/// The face of `window` expanded by 2 cells in x and 1 in y (where the
/// divergence and column quantities are computed; phi' is read up to i-2
/// by the 4th-order pressure gradient).
mesh::Box face_ring(const mesh::Box& window);

}  // namespace ca::ops
