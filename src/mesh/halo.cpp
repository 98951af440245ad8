#include "mesh/halo.hpp"

#include <cassert>
#include <stdexcept>

namespace ca::mesh {
namespace {

struct AxisSpan {
  int lo, hi;  // half-open
};

AxisSpan send_span(int n, int d, int w) {
  if (d == 0) return {0, n};
  return d < 0 ? AxisSpan{0, w} : AxisSpan{n - w, n};
}

AxisSpan recv_span(int n, int d, int w) {
  if (d == 0) return {0, n};
  return d < 0 ? AxisSpan{-w, 0} : AxisSpan{n, n + w};
}

}  // namespace

Box send_box(int lnx, int lny, int lnz, int dx, int dy, int dz, int wx,
             int wy, int wz) {
  const auto x = send_span(lnx, dx, wx);
  const auto y = send_span(lny, dy, wy);
  const auto z = send_span(lnz, dz, wz);
  return Box{x.lo, x.hi, y.lo, y.hi, z.lo, z.hi};
}

Box recv_box(int lnx, int lny, int lnz, int dx, int dy, int dz, int wx,
             int wy, int wz) {
  const auto x = recv_span(lnx, dx, wx);
  const auto y = recv_span(lny, dy, wy);
  const auto z = recv_span(lnz, dz, wz);
  return Box{x.lo, x.hi, y.lo, y.hi, z.lo, z.hi};
}

void pack_box(const util::Array3D<double>& a, const Box& box,
              std::span<double> out) {
  if (out.size() != static_cast<std::size_t>(box.volume()))
    throw std::invalid_argument("pack_box: buffer/box size mismatch");
  std::size_t idx = 0;
  for (int k = box.k0; k < box.k1; ++k)
    for (int j = box.j0; j < box.j1; ++j)
      for (int i = box.i0; i < box.i1; ++i) out[idx++] = a(i, j, k);
}

void unpack_box(util::Array3D<double>& a, const Box& box,
                std::span<const double> in) {
  if (in.size() != static_cast<std::size_t>(box.volume()))
    throw std::invalid_argument("unpack_box: buffer/box size mismatch");
  std::size_t idx = 0;
  for (int k = box.k0; k < box.k1; ++k)
    for (int j = box.j0; j < box.j1; ++j)
      for (int i = box.i0; i < box.i1; ++i) a(i, j, k) = in[idx++];
}

void fill_pole_north(util::Array3D<double>& a, int wy, PoleParity parity) {
  assert(wy <= a.halo().y);
  const int hx = a.halo().x;
  const int hz = a.halo().z;
  for (int k = -hz; k < a.nz() + hz; ++k) {
    for (int d = 1; d <= wy; ++d) {
      for (int i = -hx; i < a.nx() + hx; ++i) {
        if (parity == PoleParity::kSymmetric) {
          a(i, -d, k) = a(i, d - 1, k);
        } else {
          // V rows are staggered: row j is the edge at theta_v(j); the
          // north pole edge is j = -1 (zero flux), deeper halo rows mirror
          // interior edges with a sign flip.
          a(i, -d, k) = (d == 1) ? 0.0 : -a(i, d - 2, k);
        }
      }
    }
  }
}

void fill_pole_south(util::Array3D<double>& a, int wy, PoleParity parity) {
  assert(wy <= a.halo().y);
  const int hx = a.halo().x;
  const int hz = a.halo().z;
  const int ny = a.ny();
  for (int k = -hz; k < a.nz() + hz; ++k) {
    if (parity == PoleParity::kAntisymmetric) {
      // The owned row ny-1 is itself the south pole edge: zero flux.
      for (int i = -hx; i < a.nx() + hx; ++i) a(i, ny - 1, k) = 0.0;
    }
    for (int d = 1; d <= wy; ++d) {
      for (int i = -hx; i < a.nx() + hx; ++i) {
        if (parity == PoleParity::kSymmetric) {
          a(i, ny - 1 + d, k) = a(i, ny - d, k);
        } else {
          a(i, ny - 1 + d, k) = -a(i, ny - 1 - d, k);
        }
      }
    }
  }
}

void fill_x_periodic(util::Array3D<double>& a, int wx) {
  assert(wx <= a.halo().x);
  const int nx = a.nx();
  const int hy = a.halo().y;
  const int hz = a.halo().z;
  for (int k = -hz; k < a.nz() + hz; ++k) {
    for (int j = -hy; j < a.ny() + hy; ++j) {
      for (int d = 1; d <= wx; ++d) {
        a(-d, j, k) = a(nx - d, j, k);
        a(nx - 1 + d, j, k) = a(d - 1, j, k);
      }
    }
  }
}

void fill_x_periodic(util::Array2D<double>& a, int wx) {
  assert(wx <= a.hx());
  const int nx = a.nx();
  for (int j = -a.hy(); j < a.ny() + a.hy(); ++j) {
    for (int d = 1; d <= wx; ++d) {
      a(-d, j) = a(nx - d, j);
      a(nx - 1 + d, j) = a(d - 1, j);
    }
  }
}

void fill_z_top(util::Array3D<double>& a, int wz) {
  assert(wz <= a.halo().z);
  const int hx = a.halo().x;
  const int hy = a.halo().y;
  for (int d = 1; d <= wz; ++d)
    for (int j = -hy; j < a.ny() + hy; ++j)
      for (int i = -hx; i < a.nx() + hx; ++i) a(i, j, -d) = a(i, j, 0);
}

void fill_z_bottom(util::Array3D<double>& a, int wz) {
  assert(wz <= a.halo().z);
  const int hx = a.halo().x;
  const int hy = a.halo().y;
  const int nz = a.nz();
  for (int d = 1; d <= wz; ++d)
    for (int j = -hy; j < a.ny() + hy; ++j)
      for (int i = -hx; i < a.nx() + hx; ++i)
        a(i, j, nz - 1 + d) = a(i, j, nz - 1);
}

}  // namespace ca::mesh
