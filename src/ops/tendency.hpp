// Single-rank (or p_z = 1) diagnostic evaluation: computes LocalDiag and
// VertDiag for a window with no cross-rank bases.  Used by the serial
// reference core, the X-Y decomposition executor (where C is z-local), and
// the operator unit tests.  The distributed Y-Z path lives in
// core/exchange (it inserts the two z-line collectives between
// column_partials and column_finish).
#pragma once

#include <array>
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
  VertDiag vert;
  util::Array2D<double> own_div, own_phi;      ///< per-rank column sums
  util::Array2D<double> base_div, base_phi;    ///< exscan prefixes
  util::Array2D<double> total_div, total_phi;  ///< allreduce totals
  /// Packed [div | phi] face vectors of the z-line collectives, kept
  /// across calls so the distributed C allocates nothing once warm.
  std::vector<double> column_own, column_total, column_prefix;

  /// The cross-step carry of the communication-avoiding core: the stale C
  /// products (VertDiag) reused by the approximate nonlinear iteration
  /// (paper eq. 13) plus the column anchors of the last fresh evaluation.
  /// LocalDiag is deliberately absent — it is recomputed fresh at every
  /// operator application.  The enumeration order is the on-disk carry
  /// order of checkpoint v3; keep it stable (append-only).  Each field
  /// is serialized with per-field geometry metadata (global extents,
  /// halo depths, block origin — util::kReshardableCarryMagic), which is
  /// what lets a degraded-pool reshard redistribute the carry.  The
  /// own/base/total anchors are z-decomposition-dependent values, but
  /// they are recomputed by the collectives inside every fresh
  /// evaluation before any read, and stale evaluations read only vert —
  /// so geometric redistribution is safe for all of them.
  std::array<const util::Array3D<double>*, 3> carry_fields_3d() const {
    return {&vert.sdot, &vert.w, &vert.phi_geo};
  }
  std::array<util::Array3D<double>*, 3> carry_fields_3d() {
    return {&vert.sdot, &vert.w, &vert.phi_geo};
  }
  std::array<const util::Array2D<double>*, 7> carry_fields_2d() const {
    return {&vert.divsum, &own_div,   &own_phi,  &base_div,
            &base_phi,    &total_div, &total_phi};
  }
  std::array<util::Array2D<double>*, 7> carry_fields_2d() {
    return {&vert.divsum, &own_div,   &own_phi,  &base_div,
            &base_phi,    &total_div, &total_phi};
  }
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
