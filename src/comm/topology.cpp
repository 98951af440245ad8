#include "comm/topology.hpp"

#include <stdexcept>

#include "util/math.hpp"

namespace ca::comm {

int CartTopology::rank_of(int cx, int cy, int cz) const {
  std::array<int, 3> c{cx, cy, cz};
  for (int a = 0; a < 3; ++a) {
    if (periodic[static_cast<std::size_t>(a)]) {
      c[static_cast<std::size_t>(a)] =
          util::pos_mod(c[static_cast<std::size_t>(a)],
                        dims[static_cast<std::size_t>(a)]);
    } else if (c[static_cast<std::size_t>(a)] < 0 ||
               c[static_cast<std::size_t>(a)] >=
                   dims[static_cast<std::size_t>(a)]) {
      return -1;
    }
  }
  return c[0] + c[1] * dims[0] + c[2] * dims[0] * dims[1];
}

CartTopology make_cart(Context& ctx, const Communicator& comm,
                       std::array<int, 3> dims,
                       std::array<bool, 3> periodic) {
  if (dims[0] * dims[1] * dims[2] != comm.size())
    throw std::invalid_argument("make_cart: dims do not match comm size");
  CartTopology topo;
  topo.comm = comm;
  topo.dims = dims;
  topo.periodic = periodic;
  const int me = comm.rank();
  topo.coords = {me % dims[0], (me / dims[0]) % dims[1],
                 me / (dims[0] * dims[1])};

  const int cx = topo.coords[0], cy = topo.coords[1], cz = topo.coords[2];
  // Line along x: fixed (cy, cz).  Key = coordinate along the line so the
  // sub-communicator rank equals the coordinate.
  topo.line_x = ctx.split(comm, cy + cz * dims[1], cx);
  topo.line_y = ctx.split(comm, cx + cz * dims[0], cy);
  topo.line_z = ctx.split(comm, cx + cy * dims[0], cz);
  return topo;
}

}  // namespace ca::comm
