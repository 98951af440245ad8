#include "state/state.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ca::state {

State::State(int lnx, int lny, int lnz, const StateHalo& halo)
    : u_(lnx, lny, lnz, halo.h3),
      v_(lnx, lny, lnz, halo.h3),
      phi_(lnx, lny, lnz, halo.h3),
      psa_(lnx, lny, halo.hx2, halo.hy2) {}

void State::fill(double value) {
  u_.fill(value);
  v_.fill(value);
  phi_.fill(value);
  psa_.fill(value);
}

namespace {

/// Clips the box to the allocated extents of a 3-D array.
mesh::Box clip3(const util::Array3D<double>& a, const mesh::Box& b) {
  return mesh::Box{std::max(b.i0, -a.halo().x),
                   std::min(b.i1, a.nx() + a.halo().x),
                   std::max(b.j0, -a.halo().y),
                   std::min(b.j1, a.ny() + a.halo().y),
                   std::max(b.k0, -a.halo().z),
                   std::min(b.k1, a.nz() + a.halo().z)};
}

struct Face {
  int i0, i1, j0, j1;
};

Face clip2(const util::Array2D<double>& a, const mesh::Box& b) {
  return Face{std::max(b.i0, -a.hx()), std::min(b.i1, a.nx() + a.hx()),
              std::max(b.j0, -a.hy()), std::min(b.j1, a.ny() + a.hy())};
}

}  // namespace

void State::assign(const State& x, const mesh::Box& region) {
  const mesh::Box b = clip3(u_, region);
  for (int k = b.k0; k < b.k1; ++k)
    for (int j = b.j0; j < b.j1; ++j)
      for (int i = b.i0; i < b.i1; ++i) {
        u_(i, j, k) = x.u_(i, j, k);
        v_(i, j, k) = x.v_(i, j, k);
        phi_(i, j, k) = x.phi_(i, j, k);
      }
  const Face f = clip2(psa_, region);
  for (int j = f.j0; j < f.j1; ++j)
    for (int i = f.i0; i < f.i1; ++i) psa_(i, j) = x.psa_(i, j);
}

void State::add_scaled(const State& x, double c, const State& y,
                       const mesh::Box& region) {
  const mesh::Box b = clip3(u_, region);
  for (int k = b.k0; k < b.k1; ++k)
    for (int j = b.j0; j < b.j1; ++j)
      for (int i = b.i0; i < b.i1; ++i) {
        u_(i, j, k) = x.u_(i, j, k) + c * y.u_(i, j, k);
        v_(i, j, k) = x.v_(i, j, k) + c * y.v_(i, j, k);
        phi_(i, j, k) = x.phi_(i, j, k) + c * y.phi_(i, j, k);
      }
  const Face f = clip2(psa_, region);
  for (int j = f.j0; j < f.j1; ++j)
    for (int i = f.i0; i < f.i1; ++i)
      psa_(i, j) = x.psa_(i, j) + c * y.psa_(i, j);
}

void State::average(const State& x, const State& y, const mesh::Box& region) {
  const mesh::Box b = clip3(u_, region);
  for (int k = b.k0; k < b.k1; ++k)
    for (int j = b.j0; j < b.j1; ++j)
      for (int i = b.i0; i < b.i1; ++i) {
        u_(i, j, k) = 0.5 * (x.u_(i, j, k) + y.u_(i, j, k));
        v_(i, j, k) = 0.5 * (x.v_(i, j, k) + y.v_(i, j, k));
        phi_(i, j, k) = 0.5 * (x.phi_(i, j, k) + y.phi_(i, j, k));
      }
  const Face f = clip2(psa_, region);
  for (int j = f.j0; j < f.j1; ++j)
    for (int i = f.i0; i < f.i1; ++i)
      psa_(i, j) = 0.5 * (x.psa_(i, j) + y.psa_(i, j));
}

double State::max_abs_diff(const State& a, const State& b,
                           const mesh::Box& region) {
  // NaN-sticky fold: std::max(mx, NaN) returns mx, which would read a
  // NaN state as "no difference".
  const auto fold = [](double mx, double x, double y) {
    const double d = std::abs(x - y);
    return std::isnan(mx) || d <= mx ? mx : d;
  };
  const mesh::Box r = clip3(a.u_, region);
  double mx = 0.0;
  for (int k = r.k0; k < r.k1; ++k)
    for (int j = r.j0; j < r.j1; ++j)
      for (int i = r.i0; i < r.i1; ++i) {
        mx = fold(mx, a.u_(i, j, k), b.u_(i, j, k));
        mx = fold(mx, a.v_(i, j, k), b.v_(i, j, k));
        mx = fold(mx, a.phi_(i, j, k), b.phi_(i, j, k));
      }
  const Face f = clip2(a.psa_, region);
  for (int j = f.j0; j < f.j1; ++j)
    for (int i = f.i0; i < f.i1; ++i)
      mx = fold(mx, a.psa_(i, j), b.psa_(i, j));
  return mx;
}

}  // namespace ca::state
