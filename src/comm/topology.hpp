// 3-D Cartesian process topology over a communicator, with the axis line
// sub-communicators the dynamical core needs (x lines for Fourier
// filtering, z lines for the vertical summation operator C).
//
// Rank layout is x-fastest: rank = cx + cy*px + cz*px*py, matching the
// mesh storage order.
#pragma once

#include <array>

#include "comm/context.hpp"

namespace ca::comm {

struct CartTopology {
  Communicator comm;               ///< all ranks of the grid
  std::array<int, 3> dims{};       ///< {px, py, pz}
  std::array<bool, 3> periodic{};  ///< wraparound per axis
  std::array<int, 3> coords{};     ///< this rank's coordinates

  /// Line communicators: all ranks sharing the other two coordinates.
  Communicator line_x, line_y, line_z;

  /// Rank holding coordinates (cx, cy, cz); applies periodic wrap where
  /// enabled, returns -1 if the coordinate falls outside a non-periodic
  /// axis.
  int rank_of(int cx, int cy, int cz) const;

  /// Neighbor rank displaced by (dx, dy, dz) from this rank (or -1).
  int neighbor(int dx, int dy, int dz) const {
    return rank_of(coords[0] + dx, coords[1] + dy, coords[2] + dz);
  }
};

/// Collective over `comm` (which must have exactly px*py*pz ranks).
CartTopology make_cart(Context& ctx, const Communicator& comm,
                       std::array<int, 3> dims, std::array<bool, 3> periodic);

}  // namespace ca::comm
