// Collective algorithms: correctness across rank counts, vector lengths,
// reduction operators, and algorithm variants.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "comm/collectives.hpp"
#include "comm/runtime.hpp"

namespace ca::comm {
namespace {

struct CollectiveCase {
  int p;
  int n;
};

class AllreduceSweep : public ::testing::TestWithParam<CollectiveCase> {};

TEST_P(AllreduceSweep, RingMatchesSerialSum) {
  const auto [p, n] = GetParam();
  Runtime::run(p, [p = p, n = n](Context& ctx) {
    std::vector<double> in(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
      in[static_cast<std::size_t>(i)] =
          std::sin(0.1 * i + ctx.world_rank());
    std::vector<double> out(static_cast<std::size_t>(n));
    allreduce<double>(ctx, ctx.world(), in, out, ReduceOp::kSum,
                      AllreduceAlgorithm::kRing);
    for (int i = 0; i < n; ++i) {
      double expect = 0;
      for (int r = 0; r < p; ++r) expect += std::sin(0.1 * i + r);
      EXPECT_NEAR(out[static_cast<std::size_t>(i)], expect, 1e-12 * p);
    }
  });
}

TEST_P(AllreduceSweep, RecursiveDoublingMatchesSerialSum) {
  const auto [p, n] = GetParam();
  Runtime::run(p, [p = p, n = n](Context& ctx) {
    std::vector<double> in(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
      in[static_cast<std::size_t>(i)] = 0.5 * i - ctx.world_rank();
    std::vector<double> out(static_cast<std::size_t>(n));
    allreduce<double>(ctx, ctx.world(), in, out, ReduceOp::kSum,
                      AllreduceAlgorithm::kRecursiveDoubling);
    for (int i = 0; i < n; ++i) {
      double expect = 0;
      for (int r = 0; r < p; ++r) expect += 0.5 * i - r;
      EXPECT_NEAR(out[static_cast<std::size_t>(i)], expect, 1e-12 * p);
    }
  });
}

TEST_P(AllreduceSweep, AlgorithmsAgreeWithEachOther) {
  const auto [p, n] = GetParam();
  Runtime::run(p, [n = n](Context& ctx) {
    std::vector<double> in(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
      in[static_cast<std::size_t>(i)] = 1.0 / (1 + i + ctx.world_rank());
    std::vector<double> ring(static_cast<std::size_t>(n)),
        rd(static_cast<std::size_t>(n)), lin(static_cast<std::size_t>(n));
    allreduce<double>(ctx, ctx.world(), in, ring, ReduceOp::kSum,
                      AllreduceAlgorithm::kRing);
    allreduce<double>(ctx, ctx.world(), in, rd, ReduceOp::kSum,
                      AllreduceAlgorithm::kRecursiveDoubling);
    allreduce<double>(ctx, ctx.world(), in, lin, ReduceOp::kSum,
                      AllreduceAlgorithm::kLinearOrdered);
    for (int i = 0; i < n; ++i) {
      EXPECT_NEAR(ring[static_cast<std::size_t>(i)],
                  lin[static_cast<std::size_t>(i)], 1e-13);
      EXPECT_NEAR(rd[static_cast<std::size_t>(i)],
                  lin[static_cast<std::size_t>(i)], 1e-13);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    RankAndLengthSweep, AllreduceSweep,
    ::testing::Values(CollectiveCase{1, 8}, CollectiveCase{2, 1},
                      CollectiveCase{2, 64}, CollectiveCase{3, 7},
                      CollectiveCase{4, 16}, CollectiveCase{5, 33},
                      CollectiveCase{7, 5}, CollectiveCase{8, 128},
                      CollectiveCase{12, 12}, CollectiveCase{16, 100}),
    [](const ::testing::TestParamInfo<CollectiveCase>& info) {
      return "p" + std::to_string(info.param.p) + "_n" +
             std::to_string(info.param.n);
    });

TEST(Collectives, AllreduceMaxMin) {
  Runtime::run(6, [](Context& ctx) {
    const int me = ctx.world_rank();
    std::vector<double> in{static_cast<double>(me),
                           static_cast<double>(-me)};
    std::vector<double> mx(2), mn(2);
    allreduce<double>(ctx, ctx.world(), in, mx, ReduceOp::kMax);
    allreduce<double>(ctx, ctx.world(), in, mn, ReduceOp::kMin);
    EXPECT_DOUBLE_EQ(mx[0], 5.0);
    EXPECT_DOUBLE_EQ(mx[1], 0.0);
    EXPECT_DOUBLE_EQ(mn[0], 0.0);
    EXPECT_DOUBLE_EQ(mn[1], -5.0);
  });
}

TEST(Collectives, LinearOrderedIsBitwiseDeterministic) {
  // Summing values whose floating-point sum depends on association order:
  // the linear-ordered algorithm must equal the explicit rank-order fold.
  static constexpr int kP = 7;
  Runtime::run(kP, [](Context& ctx) {
    const int me = ctx.world_rank();
    std::vector<double> in{std::pow(10.0, me % 3 == 0 ? 16 : -16) *
                           (me + 1)};
    std::vector<double> out(1);
    allreduce<double>(ctx, ctx.world(), in, out, ReduceOp::kSum,
                      AllreduceAlgorithm::kLinearOrdered);
    double expect = 0;
    for (int r = 0; r < kP; ++r)
      expect += std::pow(10.0, r % 3 == 0 ? 16 : -16) * (r + 1);
    EXPECT_EQ(out[0], expect);  // bitwise
  });
}

TEST(Collectives, BcastFromEveryRoot) {
  static constexpr int kP = 5;
  for (int root = 0; root < kP; ++root) {
    Runtime::run(kP, [root](Context& ctx) {
      std::vector<int> data(4);
      if (ctx.world_rank() == root) data = {root, root + 1, root + 2, root + 3};
      bcast<int>(ctx, ctx.world(), root, data);
      EXPECT_EQ(data, (std::vector<int>{root, root + 1, root + 2, root + 3}));
    });
  }
}

TEST(Collectives, AllgatherOrdersByRank) {
  static constexpr int kP = 8;
  Runtime::run(kP, [](Context& ctx) {
    std::vector<int> in{10 * ctx.world_rank(), 10 * ctx.world_rank() + 1};
    std::vector<int> out(2 * kP);
    allgather<int>(ctx, ctx.world(), in, out);
    for (int r = 0; r < kP; ++r) {
      EXPECT_EQ(out[static_cast<std::size_t>(2 * r)], 10 * r);
      EXPECT_EQ(out[static_cast<std::size_t>(2 * r + 1)], 10 * r + 1);
    }
  });
}

TEST(Collectives, ExscanPrefix) {
  static constexpr int kP = 9;
  Runtime::run(kP, [](Context& ctx) {
    const int me = ctx.world_rank();
    std::vector<double> in{static_cast<double>(me + 1)};
    std::vector<double> out(1, -1);
    exscan<double>(ctx, ctx.world(), in, out, ReduceOp::kSum);
    EXPECT_DOUBLE_EQ(out[0], me * (me + 1) / 2.0);
  });
}

TEST(Collectives, BarrierSeparatesPhases) {
  static constexpr int kP = 8;
  Runtime::run(kP, [](Context& ctx) {
    // Use allreduce as a visible side effect around the barrier: if barrier
    // deadlocks or drops ranks the run would hang / throw.
    std::vector<int> one{1}, out(1);
    for (int round = 0; round < 5; ++round) {
      barrier(ctx, ctx.world());
      allreduce<int>(ctx, ctx.world(), one, out, ReduceOp::kSum);
      EXPECT_EQ(out[0], kP);
    }
  });
}

TEST(Collectives, StatsAttributeCollectiveTraffic) {
  Runtime::run(4, [](Context& ctx) {
    ctx.stats().set_phase(util::Phase::kCollective);
    std::vector<double> in(64, 1.0), out(64);
    allreduce<double>(ctx, ctx.world(), in, out, ReduceOp::kSum,
                      AllreduceAlgorithm::kRing);
    auto s = ctx.stats().phase_totals(util::Phase::kCollective);
    EXPECT_EQ(s.collective_calls, 1u);
    EXPECT_GT(s.collective_bytes, 0u);
    EXPECT_EQ(s.p2p_messages, 0u)
        << "collective-internal sends must not count as user p2p";
  });
}

TEST(Collectives, RingVolumeMatchesTheorem42) {
  // Theorem 4.2: a p-rank summation of n-element vectors moves
  // ~2*(p-1)*n/p words per rank with the ring algorithm.
  static constexpr int kP = 8;
  static constexpr int kN = 256;
  Runtime::run(kP, [](Context& ctx) {
    ctx.stats().set_phase(util::Phase::kCollective);
    std::vector<double> in(kN, 1.0), out(kN);
    allreduce<double>(ctx, ctx.world(), in, out, ReduceOp::kSum,
                      AllreduceAlgorithm::kRing);
    auto s = ctx.stats().phase_totals(util::Phase::kCollective);
    const double words_sent =
        static_cast<double>(s.collective_bytes) / sizeof(double);
    const double expected = 2.0 * (kP - 1) * kN / kP;
    EXPECT_NEAR(words_sent, expected, expected * 0.05)
        << "ring allreduce volume should attain the Theorem 4.2 bound";
  });
}

}  // namespace
}  // namespace ca::comm
