// Halo geometry and packing: sub-box extraction/insertion on Array3D plus
// the physical boundary fills (periodic x wrap, pole reflection in y,
// zero-gradient in z).  The exchange engines in src/core compose these
// into the neighbor communication patterns of the original and
// communication-avoiding algorithms.
#pragma once

#include <span>

#include "util/array3d.hpp"

namespace ca::mesh {

/// Half-open logical index box [i0,i1) x [j0,j1) x [k0,k1); indices may be
/// negative / beyond the owned extent (halo cells).
struct Box {
  int i0 = 0, i1 = 0, j0 = 0, j1 = 0, k0 = 0, k1 = 0;

  long long volume() const {
    return static_cast<long long>(i1 - i0) * (j1 - j0) * (k1 - k0);
  }
  bool empty() const { return i1 <= i0 || j1 <= j0 || k1 <= k0; }

  friend bool operator==(const Box&, const Box&) = default;
};

/// Whether two boxes share at least one cell.
inline bool intersects(const Box& a, const Box& b) {
  return a.i0 < b.i1 && b.i0 < a.i1 && a.j0 < b.j1 && b.j0 < a.j1 &&
         a.k0 < b.k1 && b.k0 < a.k1;
}

/// Cellwise intersection (an empty box when the inputs are disjoint).
inline Box intersect(const Box& a, const Box& b) {
  Box r;
  r.i0 = a.i0 > b.i0 ? a.i0 : b.i0;
  r.i1 = a.i1 < b.i1 ? a.i1 : b.i1;
  r.j0 = a.j0 > b.j0 ? a.j0 : b.j0;
  r.j1 = a.j1 < b.j1 ? a.j1 : b.j1;
  r.k0 = a.k0 > b.k0 ? a.k0 : b.k0;
  r.k1 = a.k1 < b.k1 ? a.k1 : b.k1;
  return r;
}

/// Box of interior data to SEND toward the neighbor at offset
/// (dx, dy, dz) in {-1,0,1}^3 \ {0}, for halo widths (wx, wy, wz).  The
/// box along an axis with offset 0 spans the full owned extent; with
/// offset -1 it is the first w layers; with +1 the last w layers.
Box send_box(int lnx, int lny, int lnz, int dx, int dy, int dz, int wx,
             int wy, int wz);

/// Box of halo cells to RECEIVE from the neighbor at offset (dx, dy, dz).
Box recv_box(int lnx, int lny, int lnz, int dx, int dy, int dz, int wx,
             int wy, int wz);

/// Copies box contents (x-fastest order) into a caller-owned buffer of
/// exactly box.volume() doubles.
void pack_box(const util::Array3D<double>& a, const Box& box,
              std::span<double> out);

/// Writes buffer contents into the box (must match pack order/volume).
void unpack_box(util::Array3D<double>& a, const Box& box,
                std::span<const double> in);

/// Field parity across the pole-reflection boundary.
enum class PoleParity {
  kSymmetric,      ///< scalars, U: f(-1-d) = f(d)
  kAntisymmetric,  ///< V (C-grid edge values): v(-1) = 0, v(-1-d) = -v(d-1)
};

/// Fills the y halo rows beyond the north (j < 0) pole by reflection.
/// Covers the full allocated x and z extents (including halos) so corner
/// cells are consistent.
void fill_pole_north(util::Array3D<double>& a, int wy, PoleParity parity);
/// Same beyond the south pole (j >= ny).
void fill_pole_south(util::Array3D<double>& a, int wy, PoleParity parity);

/// Fills x halos by periodic wrap from the owned extent (valid only when
/// the rank owns the whole x direction, i.e. px = 1).
void fill_x_periodic(util::Array3D<double>& a, int wx);
/// Same for a 2-D field (every halo row).
void fill_x_periodic(util::Array2D<double>& a, int wx);

/// Zero-gradient fill of z halos above the model top (k < 0) and/or below
/// the surface (k >= nz).
void fill_z_top(util::Array3D<double>& a, int wz);
void fill_z_bottom(util::Array3D<double>& a, int wz);

}  // namespace ca::mesh
