// Point-to-point semantics of the mini message-passing runtime.
#include <gtest/gtest.h>

#include <numeric>
#include <random>
#include <vector>

#include "comm/collectives.hpp"
#include "comm/context.hpp"
#include "comm/runtime.hpp"

namespace ca::comm {
namespace {

TEST(CommP2P, SingleRankRuns) {
  Runtime::run(1, [](Context& ctx) {
    EXPECT_EQ(ctx.world_rank(), 0);
    EXPECT_EQ(ctx.world_size(), 1);
    EXPECT_EQ(ctx.world().size(), 1);
  });
}

TEST(CommP2P, PingPong) {
  Runtime::run(2, [](Context& ctx) {
    const auto& w = ctx.world();
    std::vector<double> buf{1.5, -2.25, 3.0};
    if (ctx.world_rank() == 0) {
      ctx.send_values<double>(w, 1, 7, buf);
      std::vector<double> back(3);
      ctx.recv_values<double>(w, 1, 8, back);
      EXPECT_EQ(back, (std::vector<double>{3.0, -4.5, 6.0}));
    } else {
      std::vector<double> got(3);
      ctx.recv_values<double>(w, 0, 7, got);
      for (auto& v : got) v *= 2.0;
      ctx.send_values<double>(w, 0, 8, got);
    }
  });
}

TEST(CommP2P, TagMatchingOutOfOrder) {
  Runtime::run(2, [](Context& ctx) {
    const auto& w = ctx.world();
    if (ctx.world_rank() == 0) {
      std::vector<int> a{1}, b{2};
      ctx.send_values<int>(w, 1, /*tag=*/10, a);
      ctx.send_values<int>(w, 1, /*tag=*/20, b);
    } else {
      // Receive in reverse tag order: matching must pick by tag, not FIFO.
      std::vector<int> x(1), y(1);
      ctx.recv_values<int>(w, 0, 20, x);
      ctx.recv_values<int>(w, 0, 10, y);
      EXPECT_EQ(x[0], 2);
      EXPECT_EQ(y[0], 1);
    }
  });
}

TEST(CommP2P, FifoPerSourceAndTag) {
  Runtime::run(2, [](Context& ctx) {
    const auto& w = ctx.world();
    static constexpr int kN = 100;
    if (ctx.world_rank() == 0) {
      for (int i = 0; i < kN; ++i) {
        std::vector<int> v{i};
        ctx.send_values<int>(w, 1, 5, v);
      }
    } else {
      for (int i = 0; i < kN; ++i) {
        std::vector<int> v(1);
        ctx.recv_values<int>(w, 0, 5, v);
        EXPECT_EQ(v[0], i) << "non-overtaking order violated";
      }
    }
  });
}

TEST(CommP2P, AnySourceReceivesAll) {
  static constexpr int kP = 5;
  Runtime::run(kP, [](Context& ctx) {
    const auto& w = ctx.world();
    if (ctx.world_rank() == 0) {
      long long sum = 0;
      for (int i = 1; i < kP; ++i) {
        std::vector<long long> v(1);
        ctx.recv_values<long long>(w, kAnySource, 3, v);
        sum += v[0];
      }
      EXPECT_EQ(sum, 1 + 2 + 3 + 4);
    } else {
      std::vector<long long> v{ctx.world_rank()};
      ctx.send_values<long long>(w, 0, 3, v);
    }
  });
}

TEST(CommP2P, NonblockingExchange) {
  Runtime::run(4, [](Context& ctx) {
    const auto& w = ctx.world();
    const int me = ctx.world_rank();
    const int p = ctx.world_size();
    const int right = (me + 1) % p;
    const int left = (me - 1 + p) % p;
    std::vector<double> outbuf{static_cast<double>(me)};
    std::vector<double> frm_left(1), frm_right(1);
    std::vector<Request> reqs;
    reqs.push_back(ctx.irecv_values<double>(w, left, 1, frm_left));
    reqs.push_back(ctx.irecv_values<double>(w, right, 2, frm_right));
    ctx.isend_values<double>(w, right, 1, outbuf);
    ctx.isend_values<double>(w, left, 2, outbuf);
    for (Request& r : reqs) ctx.wait(r);
    EXPECT_DOUBLE_EQ(frm_left[0], left);
    EXPECT_DOUBLE_EQ(frm_right[0], right);
  });
}

TEST(CommP2P, SizeMismatchThrows) {
  EXPECT_THROW(
      Runtime::run(2,
                   [](Context& ctx) {
                     const auto& w = ctx.world();
                     if (ctx.world_rank() == 0) {
                       std::vector<int> v{1, 2, 3};
                       ctx.send_values<int>(w, 1, 0, v);
                     } else {
                       std::vector<int> v(2);  // wrong size
                       ctx.recv_values<int>(w, 0, 0, v);
                     }
                   }),
      std::runtime_error);
}

TEST(CommP2P, StatsCountMessagesAndBytes) {
  Runtime::run(2, [](Context& ctx) {
    const auto& w = ctx.world();
    ctx.stats().set_phase(util::Phase::kStencil);
    if (ctx.world_rank() == 0) {
      std::vector<double> v(10, 1.0);
      ctx.send_values<double>(w, 1, 0, v);
      ctx.send_values<double>(w, 1, 0, v);
      auto s = ctx.stats().phase_totals(util::Phase::kStencil);
      EXPECT_EQ(s.p2p_messages, 2u);
      EXPECT_EQ(s.p2p_bytes, 2u * 10u * sizeof(double));
    } else {
      std::vector<double> v(10);
      ctx.recv_values<double>(w, 0, 0, v);
      ctx.recv_values<double>(w, 0, 0, v);
      auto s = ctx.stats().phase_totals(util::Phase::kStencil);
      EXPECT_EQ(s.p2p_messages, 0u) << "receives are not counted as sends";
    }
  });
}

TEST(CommP2P, RankExceptionPropagates) {
  EXPECT_THROW(Runtime::run(3,
                            [](Context& ctx) {
                              if (ctx.world_rank() == 1)
                                throw std::logic_error("rank failure");
                            }),
               std::logic_error);
}

TEST(CommP2P, SendToInvalidRankThrows) {
  Runtime::run(1, [](Context& ctx) {
    std::vector<int> v{1};
    EXPECT_THROW(ctx.send_values<int>(ctx.world(), 5, 0, v),
                 std::out_of_range);
  });
}

TEST(CommP2P, ManyRanksAllToOne) {
  static constexpr int kP = 16;
  Runtime::run(kP, [](Context& ctx) {
    const auto& w = ctx.world();
    if (ctx.world_rank() == 0) {
      std::vector<int> seen(kP, 0);
      for (int i = 1; i < kP; ++i) {
        std::vector<int> v(1);
        ctx.recv_values<int>(w, kAnySource, 0, v);
        seen[static_cast<std::size_t>(v[0])]++;
      }
      for (int r = 1; r < kP; ++r) EXPECT_EQ(seen[static_cast<std::size_t>(r)], 1);
    } else {
      std::vector<int> v{ctx.world_rank()};
      ctx.send_values<int>(w, 0, 0, v);
    }
  });
}

TEST(CommP2P, RandomTrafficStorm) {
  // Every rank sends a random number of messages to random peers with
  // random tags/sizes, then receives exactly what it was sent; the eager
  // protocol must stay deadlock-free and deliver every byte intact.
  static constexpr int kP = 6;
  Runtime::run(kP, [](Context& ctx) {
    const int me = ctx.world_rank();
    std::mt19937 rng(1234u + static_cast<unsigned>(me));
    std::uniform_int_distribution<int> peer_dist(0, kP - 1);
    std::uniform_int_distribution<int> size_dist(1, 4096);

    // Deterministic plan shared by all ranks: regenerate every rank's
    // stream so receivers know what to expect.
    struct Msg {
      int src, dst, size;
    };
    std::vector<Msg> plan;
    for (int r = 0; r < kP; ++r) {
      std::mt19937 rr(1234u + static_cast<unsigned>(r));
      std::uniform_int_distribution<int> pd(0, kP - 1);
      std::uniform_int_distribution<int> sd(1, 4096);
      for (int m = 0; m < 40; ++m) {
        int dst = pd(rr);
        int size = sd(rr);
        if (dst == r) dst = (dst + 1) % kP;
        plan.push_back({r, dst, size});
      }
    }
    // Send my messages (payload = src-and-per-destination-sequence
    // pattern, so the receiver can reconstruct it from FIFO order).
    std::vector<int> seq_to(kP, 0);
    for (const auto& m : plan) {
      if (m.src != me) continue;
      const int seq = seq_to[static_cast<std::size_t>(m.dst)]++;
      std::vector<double> buf(static_cast<std::size_t>(m.size));
      for (int q = 0; q < m.size; ++q)
        buf[static_cast<std::size_t>(q)] = me * 1e6 + seq * 1e3 + q;
      ctx.send_values<double>(ctx.world(), m.dst, /*tag=*/me, buf);
    }
    // Receive in per-source order (FIFO per (src, tag) guarantees this).
    std::vector<int> seq_from(kP, 0);
    for (const auto& m : plan) {
      if (m.dst != me) continue;
      std::vector<double> buf(static_cast<std::size_t>(m.size));
      ctx.recv_values<double>(ctx.world(), m.src, /*tag=*/m.src, buf);
      const int s = seq_from[static_cast<std::size_t>(m.src)]++;
      for (int q = 0; q < m.size; ++q)
        ASSERT_DOUBLE_EQ(buf[static_cast<std::size_t>(q)],
                         m.src * 1e6 + s * 1e3 + q);
    }
  });
}

}  // namespace
}  // namespace ca::comm
