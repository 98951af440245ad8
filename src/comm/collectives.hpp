// Collective operations over a Communicator, implemented on top of the
// point-to-point layer with the classic algorithms of Thakur, Rabenseifner
// & Gropp (the paper's reference [19] for "optimal" collectives):
//   - barrier: dissemination
//   - bcast: binomial tree
//   - allreduce: ring (reduce-scatter + allgather) for long vectors,
//     recursive doubling for short ones, plus a linear-ordered variant that
//     reduces contributions in rank order (bitwise deterministic, used by
//     equivalence tests)
//   - allgather: ring
//   - exscan: linear chain prefix
//
// All calls are collective and must be entered by every member of the
// communicator in the same program order (SPMD discipline); the FIFO
// matching of the mailbox then keeps concurrent collectives separated.
#pragma once

#include <algorithm>
#include <cstring>
#include <span>
#include <stdexcept>
#include <vector>

#include "comm/context.hpp"

namespace ca::comm {

enum class ReduceOp { kSum, kMax, kMin };

enum class AllreduceAlgorithm {
  kAuto,
  kRing,
  kRecursiveDoubling,
  kLinearOrdered,
};

namespace detail {

constexpr int kTagBarrier = kInternalTagBase + 16;
constexpr int kTagBcast = kInternalTagBase + 17;
constexpr int kTagAllreduce = kInternalTagBase + 19;
constexpr int kTagAllgather = kInternalTagBase + 20;
constexpr int kTagExscan = kInternalTagBase + 22;

template <typename T>
void apply_op(std::span<T> acc, std::span<const T> in, ReduceOp op) {
  const std::size_t n = acc.size();
  switch (op) {
    case ReduceOp::kSum:
      for (std::size_t i = 0; i < n; ++i) acc[i] += in[i];
      break;
    case ReduceOp::kMax:
      for (std::size_t i = 0; i < n; ++i) acc[i] = std::max(acc[i], in[i]);
      break;
    case ReduceOp::kMin:
      for (std::size_t i = 0; i < n; ++i) acc[i] = std::min(acc[i], in[i]);
      break;
  }
}

/// RAII marker: traffic inside a collective is attributed separately, and
/// the collective's wall-clock time goes to the context's "collective"
/// phase via an obs span — one clock pair feeds both the rank's record and
/// the trace timeline (a nested collective, e.g. the bcast inside the
/// linear-ordered allreduce, pauses its parent's span instead of
/// double-charging).
class CollectiveScope {
 public:
  explicit CollectiveScope(Context& ctx)
      : ctx_(ctx), span_(ctx.tracer().phase_span(util::Phase::kCollective)) {
    ctx_.stats().record_collective_call();
    ctx_.stats().enter_collective();
  }
  ~CollectiveScope() { ctx_.stats().leave_collective(); }
  CollectiveScope(const CollectiveScope&) = delete;
  CollectiveScope& operator=(const CollectiveScope&) = delete;

 private:
  Context& ctx_;
  obs::Span span_;
};

}  // namespace detail

void barrier(Context& ctx, const Communicator& comm);

template <typename T>
void bcast(Context& ctx, const Communicator& comm, int root,
           std::span<T> data) {
  detail::CollectiveScope scope(ctx);
  const int p = comm.size();
  if (p == 1) return;
  // Binomial tree rooted at `root`: relative rank vr = (rank - root) mod p.
  const int me = comm.rank();
  const int vr = (me - root % p + p) % p;
  int mask = 1;
  while (mask < p) {
    if (vr < mask) {
      const int child = vr + mask;
      if (child < p)
        ctx.send_values<T>(comm, (child + root) % p, detail::kTagBcast,
                           std::span<const T>(data.data(), data.size()));
    } else if (vr < 2 * mask) {
      const int parent = vr - mask;
      ctx.recv_values<T>(comm, (parent + root) % p, detail::kTagBcast, data);
    }
    mask <<= 1;
  }
}

template <typename T>
void allreduce(Context& ctx, const Communicator& comm, std::span<const T> in,
               std::span<T> out, ReduceOp op,
               AllreduceAlgorithm alg = AllreduceAlgorithm::kAuto) {
  const int p = comm.size();
  const std::size_t n = in.size();
  if (p == 1) {
    std::copy(in.begin(), in.end(), out.begin());
    return;
  }
  if (alg == AllreduceAlgorithm::kAuto) {
    // Ring amortizes bandwidth for long vectors; recursive doubling has
    // fewer rounds for short ones (Thakur et al. crossover heuristic).
    alg = (n >= static_cast<std::size_t>(4 * p))
              ? AllreduceAlgorithm::kRing
              : AllreduceAlgorithm::kRecursiveDoubling;
  }

  detail::CollectiveScope scope(ctx);
  const int me = comm.rank();

  if (alg == AllreduceAlgorithm::kLinearOrdered) {
    // Gather to rank 0, reduce in rank order (bitwise deterministic),
    // broadcast the result.
    if (me == 0) {
      std::vector<T> acc(in.begin(), in.end());
      std::vector<T> tmp(n);
      for (int r = 1; r < p; ++r) {
        ctx.recv_values<T>(comm, r, detail::kTagAllreduce, std::span<T>(tmp));
        detail::apply_op<T>(acc, std::span<const T>(tmp), op);
      }
      std::copy(acc.begin(), acc.end(), out.begin());
    } else {
      ctx.send_values<T>(comm, 0, detail::kTagAllreduce, in);
    }
    bcast<T>(ctx, comm, 0, out);
    return;
  }

  if (alg == AllreduceAlgorithm::kRecursiveDoubling || n == 0) {
    std::vector<T> acc(in.begin(), in.end());
    std::vector<T> tmp(n);
    // Fold ranks beyond the largest power of two into the lower half.
    int pof2 = 1;
    while (pof2 * 2 <= p) pof2 *= 2;
    const int rem = p - pof2;
    int newrank;
    if (me < 2 * rem) {
      if (me % 2 == 1) {
        ctx.recv_values<T>(comm, me - 1, detail::kTagAllreduce,
                           std::span<T>(tmp));
        detail::apply_op<T>(std::span<T>(acc), std::span<const T>(tmp), op);
        newrank = me / 2;
      } else {
        ctx.send_values<T>(comm, me + 1, detail::kTagAllreduce,
                           std::span<const T>(acc));
        newrank = -1;
      }
    } else {
      newrank = me - rem;
    }
    if (newrank >= 0) {
      auto old_of_new = [&](int nr) {
        return nr < rem ? 2 * nr + 1 : nr + rem;
      };
      for (int mask = 1; mask < pof2; mask <<= 1) {
        const int partner = old_of_new(newrank ^ mask);
        ctx.send_values<T>(comm, partner, detail::kTagAllreduce,
                           std::span<const T>(acc));
        ctx.recv_values<T>(comm, partner, detail::kTagAllreduce,
                           std::span<T>(tmp));
        detail::apply_op<T>(std::span<T>(acc), std::span<const T>(tmp), op);
      }
    }
    // Unfold: odd low ranks return results to their even partners.
    if (me < 2 * rem) {
      if (me % 2 == 1) {
        ctx.send_values<T>(comm, me - 1, detail::kTagAllreduce,
                           std::span<const T>(acc));
      } else {
        ctx.recv_values<T>(comm, me + 1, detail::kTagAllreduce,
                           std::span<T>(acc));
      }
    }
    std::copy(acc.begin(), acc.end(), out.begin());
    return;
  }

  // Ring allreduce: reduce-scatter then allgather, p-1 steps each.
  std::vector<T> acc(in.begin(), in.end());
  std::vector<std::size_t> offset(static_cast<std::size_t>(p) + 1, 0);
  for (int s = 0; s < p; ++s)
    offset[static_cast<std::size_t>(s) + 1] =
        offset[static_cast<std::size_t>(s)] +
        n / static_cast<std::size_t>(p) +
        (static_cast<std::size_t>(s) < n % static_cast<std::size_t>(p) ? 1
                                                                       : 0);
  auto seg = [&](std::vector<T>& v, int s) {
    const int sm = (s % p + p) % p;
    return std::span<T>(v.data() + offset[static_cast<std::size_t>(sm)],
                        offset[static_cast<std::size_t>(sm) + 1] -
                            offset[static_cast<std::size_t>(sm)]);
  };
  const int right = (me + 1) % p;
  const int left = (me - 1 + p) % p;
  std::vector<T> tmp(n / static_cast<std::size_t>(p) + 1);
  for (int step = 0; step < p - 1; ++step) {
    auto send_seg = seg(acc, me - step);
    auto recv_seg = seg(acc, me - step - 1);
    ctx.send_values<T>(comm, right, detail::kTagAllreduce,
                       std::span<const T>(send_seg.data(), send_seg.size()));
    std::span<T> tview(tmp.data(), recv_seg.size());
    ctx.recv_values<T>(comm, left, detail::kTagAllreduce, tview);
    detail::apply_op<T>(recv_seg, std::span<const T>(tview.data(),
                                                     tview.size()),
                        op);
  }
  for (int step = 0; step < p - 1; ++step) {
    auto send_seg = seg(acc, me + 1 - step);
    auto recv_seg = seg(acc, me - step);
    ctx.send_values<T>(comm, right, detail::kTagAllreduce,
                       std::span<const T>(send_seg.data(), send_seg.size()));
    ctx.recv_values<T>(comm, left, detail::kTagAllreduce, recv_seg);
  }
  std::copy(acc.begin(), acc.end(), out.begin());
}

/// Each rank contributes in.size() elements; out receives p*in.size()
/// elements ordered by rank (ring algorithm).  Throws
/// std::invalid_argument, before any message, when out has another size.
template <typename T>
void allgather(Context& ctx, const Communicator& comm, std::span<const T> in,
               std::span<T> out) {
  const int p = comm.size();
  const int me = comm.rank();
  const std::size_t n = in.size();
  if (out.size() != n * static_cast<std::size_t>(p))
    throw std::invalid_argument("allgather: out must hold p * in.size()");
  detail::CollectiveScope scope(ctx);
  std::copy(in.begin(), in.end(),
            out.begin() + static_cast<std::ptrdiff_t>(n) * me);
  if (p == 1) return;
  const int right = (me + 1) % p;
  const int left = (me - 1 + p) % p;
  for (int step = 0; step < p - 1; ++step) {
    const int send_block = (me - step + p) % p;
    const int recv_block = (me - step - 1 + p) % p;
    ctx.send_values<T>(
        comm, right, detail::kTagAllgather,
        std::span<const T>(out.data() + n * static_cast<std::size_t>(
                                                send_block),
                           n));
    ctx.recv_values<T>(
        comm, left, detail::kTagAllgather,
        std::span<T>(out.data() + n * static_cast<std::size_t>(recv_block),
                     n));
  }
}

/// Exclusive prefix: rank r receives op-fold of ranks [0, r).  Rank 0's out
/// is zero-initialized.  Linear chain (deterministic association).
template <typename T>
void exscan(Context& ctx, const Communicator& comm, std::span<const T> in,
            std::span<T> out, ReduceOp op) {
  detail::CollectiveScope scope(ctx);
  const int p = comm.size();
  const int me = comm.rank();
  std::vector<T> acc(in.size(), T{});
  if (me > 0)
    ctx.recv_values<T>(comm, me - 1, detail::kTagExscan, std::span<T>(acc));
  std::copy(acc.begin(), acc.end(), out.begin());
  if (me < p - 1) {
    std::vector<T> next(acc);
    detail::apply_op<T>(std::span<T>(next), in, op);
    ctx.send_values<T>(comm, me + 1, detail::kTagExscan,
                       std::span<const T>(next));
  }
}

}  // namespace ca::comm
