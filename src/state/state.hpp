// The prognostic state xi = (U, V, Phi, p'_sa) of the transformed dynamic
// evolution equations (paper eq. 1-2) on one rank's block, with halo
// storage sized for the algorithm variant (1-wide for the original
// per-update exchange; for the communication-avoiding core, as wide as its
// step plan's exchanges: 3M + 1 rows in y, 3 layers in z).
//
// Linear combinations are region-scoped: the CA algorithm evaluates
// updates on shrinking extended regions (block + remaining halo), so every
// arithmetic helper takes an explicit Box.
#pragma once

#include "mesh/halo.hpp"
#include "util/array3d.hpp"

namespace ca::state {

struct StateHalo {
  util::Halo3 h3;  ///< halo of the 3-D fields (U, V, Phi)
  int hx2 = 0;     ///< x halo of the 2-D field p'_sa
  int hy2 = 0;     ///< y halo of the 2-D field p'_sa
};

class State {
 public:
  State() = default;
  State(int lnx, int lny, int lnz, const StateHalo& halo);

  util::Array3D<double>& u() { return u_; }
  util::Array3D<double>& v() { return v_; }
  util::Array3D<double>& phi() { return phi_; }
  util::Array2D<double>& psa() { return psa_; }
  const util::Array3D<double>& u() const { return u_; }
  const util::Array3D<double>& v() const { return v_; }
  const util::Array3D<double>& phi() const { return phi_; }
  const util::Array2D<double>& psa() const { return psa_; }

  int lnx() const { return u_.nx(); }
  int lny() const { return u_.ny(); }
  int lnz() const { return u_.nz(); }

  void fill(double value);

  /// this = x over `region` (3-D box; the 2-D field uses its (i, j) face).
  void assign(const State& x, const mesh::Box& region);
  /// this = x + c*y over region.
  void add_scaled(const State& x, double c, const State& y,
                  const mesh::Box& region);
  /// this = 0.5*(x + y) over region.
  void average(const State& x, const State& y, const mesh::Box& region);

  /// Owned-interior box (no halos).
  mesh::Box interior() const {
    return mesh::Box{0, lnx(), 0, lny(), 0, lnz()};
  }
  /// Interior extended by (ex, ey, ez) halo layers on each side.
  mesh::Box extended(int ex, int ey, int ez) const {
    return mesh::Box{-ex, lnx() + ex, -ey, lny() + ey, -ez, lnz() + ez};
  }

  /// Max |difference| over the region across all four components; NaN
  /// when any difference is NaN, so a NaN cell never compares equal.
  static double max_abs_diff(const State& a, const State& b,
                             const mesh::Box& region);

 private:
  util::Array3D<double> u_, v_, phi_;
  util::Array2D<double> psa_;
};

}  // namespace ca::state
