// Cartesian topology and communicator splitting.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "comm/collectives.hpp"
#include "comm/runtime.hpp"
#include "comm/topology.hpp"

namespace ca::comm {
namespace {

TEST(Split, ByParity) {
  Runtime::run(6, [](Context& ctx) {
    const int me = ctx.world_rank();
    Communicator sub = ctx.split(ctx.world(), me % 2, me);
    ASSERT_TRUE(sub.valid());
    EXPECT_EQ(sub.size(), 3);
    EXPECT_EQ(sub.rank(), me / 2);
    // Traffic on sub must not leak to the other color's communicator.
    // A short output span is refused on every rank before any message.
    std::vector<int> in{me}, out(3);
    EXPECT_THROW(allgather<int>(ctx, ctx.world(), std::span<const int>(in),
                                std::span<int>(out.data(), 0)),
                 std::invalid_argument);
    std::vector<int> gathered(3);
    allgather<int>(ctx, sub, std::span<const int>(in),
                   std::span<int>(gathered));
    for (int r = 0; r < 3; ++r)
      EXPECT_EQ(gathered[static_cast<std::size_t>(r)], 2 * r + (me % 2));
  });
}

TEST(Split, NegativeColorOptsOut) {
  Runtime::run(4, [](Context& ctx) {
    const int me = ctx.world_rank();
    Communicator sub = ctx.split(ctx.world(), me == 0 ? -1 : 1, me);
    if (me == 0) {
      EXPECT_FALSE(sub.valid());
    } else {
      ASSERT_TRUE(sub.valid());
      EXPECT_EQ(sub.size(), 3);
    }
  });
}

TEST(Split, KeyControlsOrdering) {
  Runtime::run(4, [](Context& ctx) {
    const int me = ctx.world_rank();
    // Reverse the ordering via descending keys.
    Communicator sub = ctx.split(ctx.world(), 0, -me);
    ASSERT_TRUE(sub.valid());
    EXPECT_EQ(sub.rank(), 3 - me);
  });
}

TEST(Split, NestedSplits) {
  Runtime::run(8, [](Context& ctx) {
    const int me = ctx.world_rank();
    Communicator half = ctx.split(ctx.world(), me / 4, me);
    Communicator quarter = ctx.split(half, half.rank() / 2, half.rank());
    ASSERT_TRUE(quarter.valid());
    EXPECT_EQ(quarter.size(), 2);
    std::vector<int> in{me}, out(2);
    allgather<int>(ctx, quarter, std::span<const int>(in),
                   std::span<int>(out));
    EXPECT_EQ(out[static_cast<std::size_t>(quarter.rank())], me);
  });
}

TEST(Cart, CoordsRoundTrip) {
  Runtime::run(12, [](Context& ctx) {
    auto topo = make_cart(ctx, ctx.world(), {3, 2, 2},
                          {true, false, false});
    EXPECT_EQ(topo.rank_of(topo.coords[0], topo.coords[1], topo.coords[2]),
              ctx.world_rank());
    // x-fastest layout.
    EXPECT_EQ(topo.coords[0], ctx.world_rank() % 3);
    EXPECT_EQ(topo.coords[1], (ctx.world_rank() / 3) % 2);
    EXPECT_EQ(topo.coords[2], ctx.world_rank() / 6);
  });
}

TEST(Cart, PeriodicAndBoundedNeighbors) {
  Runtime::run(8, [](Context& ctx) {
    auto topo = make_cart(ctx, ctx.world(), {1, 4, 2},
                          {true, false, false});
    // y axis is bounded: rank at cy=0 has no -y neighbor.
    if (topo.coords[1] == 0) {
      EXPECT_EQ(topo.neighbor(0, -1, 0), -1);
    }
    if (topo.coords[1] == 3) {
      EXPECT_EQ(topo.neighbor(0, 1, 0), -1);
    }
    if (topo.coords[1] > 0) {
      EXPECT_EQ(topo.neighbor(0, -1, 0), ctx.world_rank() - 1);
    }
    // x axis periodic with px=1: neighbor is self.
    EXPECT_EQ(topo.neighbor(1, 0, 0), ctx.world_rank());
    EXPECT_EQ(topo.neighbor(-1, 0, 0), ctx.world_rank());
  });
}

TEST(Cart, LineCommunicators) {
  Runtime::run(12, [](Context& ctx) {
    auto topo = make_cart(ctx, ctx.world(), {2, 3, 2},
                          {true, false, false});
    ASSERT_TRUE(topo.line_x.valid());
    ASSERT_TRUE(topo.line_y.valid());
    ASSERT_TRUE(topo.line_z.valid());
    EXPECT_EQ(topo.line_x.size(), 2);
    EXPECT_EQ(topo.line_y.size(), 3);
    EXPECT_EQ(topo.line_z.size(), 2);
    // Rank within a line equals the coordinate along that axis.
    EXPECT_EQ(topo.line_x.rank(), topo.coords[0]);
    EXPECT_EQ(topo.line_y.rank(), topo.coords[1]);
    EXPECT_EQ(topo.line_z.rank(), topo.coords[2]);
    // Sum along the z line: every member shares (cx, cy).
    std::vector<int> in{topo.coords[2]}, out(1);
    allreduce<int>(ctx, topo.line_z, std::span<const int>(in),
                   std::span<int>(out), ReduceOp::kSum);
    EXPECT_EQ(out[0], 0 + 1);
  });
}

TEST(Cart, DimsMismatchThrows) {
  EXPECT_THROW(
      Runtime::run(4,
                   [](Context& ctx) {
                     make_cart(ctx, ctx.world(), {3, 2, 1},
                               {false, false, false});
                   }),
      std::invalid_argument);
}

}  // namespace
}  // namespace ca::comm
