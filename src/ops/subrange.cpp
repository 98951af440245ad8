#include "ops/subrange.hpp"

namespace ca::ops {

std::vector<mesh::Box> subtract_box(const mesh::Box& window,
                                    const mesh::Box& inner_in) {
  std::vector<mesh::Box> out;
  const mesh::Box inner = mesh::intersect(inner_in, window);
  if (inner.empty()) {
    out.push_back(window);
    return out;
  }
  // y strips span the full x and z extents, x strips the inner y range
  // (full z), z caps the inner x and y ranges — disjoint by construction.
  if (inner.j0 > window.j0)
    out.push_back({window.i0, window.i1, window.j0, inner.j0, window.k0,
                   window.k1});
  if (inner.j1 < window.j1)
    out.push_back({window.i0, window.i1, inner.j1, window.j1, window.k0,
                   window.k1});
  if (inner.i0 > window.i0)
    out.push_back({window.i0, inner.i0, inner.j0, inner.j1, window.k0,
                   window.k1});
  if (inner.i1 < window.i1)
    out.push_back({inner.i1, window.i1, inner.j0, inner.j1, window.k0,
                   window.k1});
  if (inner.k0 > window.k0)
    out.push_back({inner.i0, inner.i1, inner.j0, inner.j1, window.k0,
                   inner.k0});
  if (inner.k1 < window.k1)
    out.push_back({inner.i0, inner.i1, inner.j0, inner.j1, inner.k1,
                   window.k1});
  return out;
}

}  // namespace ca::ops
