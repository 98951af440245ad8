// Collective operations over a Communicator, implemented on top of the
// point-to-point layer with the classic algorithms of Thakur, Rabenseifner
// & Gropp (the paper's reference [19] for "optimal" collectives):
//   - barrier: dissemination
//   - bcast: binomial tree
//   - reduce: binomial tree
//   - allreduce: ring (reduce-scatter + allgather) for long vectors,
//     recursive doubling for short ones, plus a linear-ordered variant that
//     reduces contributions in rank order (bitwise deterministic, used by
//     equivalence tests)
//   - allgather: ring
//   - alltoall: pairwise exchange
//   - exscan: linear chain prefix
//
// All calls are collective and must be entered by every member of the
// communicator in the same program order (SPMD discipline); the FIFO
// matching of the mailbox then keeps concurrent collectives separated.
#pragma once

#include <algorithm>
#include <cstring>
#include <span>
#include <vector>

#include "comm/context.hpp"

namespace ca::comm {

enum class ReduceOp { kSum, kMax, kMin };

enum class AllreduceAlgorithm {
  kAuto,
  kRing,
  kRecursiveDoubling,
  kLinearOrdered,
  /// Rabenseifner: recursive-halving reduce-scatter + recursive-doubling
  /// allgather — log2(p) rounds AND the ring's bandwidth optimality.
  /// Power-of-two communicators only; others fall back to kRing.
  kRabenseifner,
};

namespace detail {

constexpr int kTagBarrier = kInternalTagBase + 16;
constexpr int kTagBcast = kInternalTagBase + 17;
constexpr int kTagReduce = kInternalTagBase + 18;
constexpr int kTagAllreduce = kInternalTagBase + 19;
constexpr int kTagAllgather = kInternalTagBase + 20;
constexpr int kTagAlltoall = kInternalTagBase + 21;
constexpr int kTagExscan = kInternalTagBase + 22;
constexpr int kTagGather = kInternalTagBase + 23;

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
void reduce(Context& ctx, const Communicator& comm, int root,
            std::span<const T> in, std::span<T> out, ReduceOp op) {
  detail::CollectiveScope scope(ctx);
  const int p = comm.size();
  const int me = comm.rank();
  std::vector<T> acc(in.begin(), in.end());
  if (p > 1) {
    // Binomial tree: children fold into parents by descending mask.
    const int vr = (me - root % p + p) % p;
    int mask = 1;
    while (mask < p) mask <<= 1;
    std::vector<T> tmp(in.size());
    for (mask >>= 1; mask >= 1; mask >>= 1) {
      if (vr < mask) {
        const int child = vr + mask;
        if (child < p) {
          ctx.recv_values<T>(comm, (child + root) % p, detail::kTagReduce,
                             std::span<T>(tmp));
          detail::apply_op<T>(acc, tmp, op);
        }
      } else if (vr < 2 * mask) {
        const int parent = vr - mask;
        ctx.send_values<T>(comm, (parent + root) % p, detail::kTagReduce,
                           std::span<const T>(acc));
        break;
      }
    }
  }
  if (me == root) std::copy(acc.begin(), acc.end(), out.begin());
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

  if (alg == AllreduceAlgorithm::kRabenseifner &&
      (p & (p - 1)) == 0 && n >= static_cast<std::size_t>(p)) {
    // Recursive-halving reduce-scatter: each round exchanges half of the
    // currently-owned segment with the partner and reduces the retained
    // half; then the mirrored recursive-doubling allgather reassembles.
    std::vector<T> acc(in.begin(), in.end());
    std::vector<T> tmp(n);
    // Segment ownership expressed on the contiguous block partition.
    std::vector<std::size_t> offset(static_cast<std::size_t>(p) + 1, 0);
    for (int ss = 0; ss < p; ++ss)
      offset[static_cast<std::size_t>(ss) + 1] =
          offset[static_cast<std::size_t>(ss)] +
          n / static_cast<std::size_t>(p) +
          (static_cast<std::size_t>(ss) <
                   n % static_cast<std::size_t>(p)
               ? 1
               : 0);
    int lo = 0, hi = p;  // block range this rank still owns
    for (int mask = p / 2; mask >= 1; mask /= 2) {
      const int partner = me ^ mask;
      int keep_lo, keep_hi, send_lo, send_hi;
      const int mid = lo + (hi - lo) / 2;
      if ((me & mask) == 0) {
        keep_lo = lo; keep_hi = mid; send_lo = mid; send_hi = hi;
      } else {
        keep_lo = mid; keep_hi = hi; send_lo = lo; send_hi = mid;
      }
      const std::size_t s0 = offset[static_cast<std::size_t>(send_lo)];
      const std::size_t s1 = offset[static_cast<std::size_t>(send_hi)];
      const std::size_t k0 = offset[static_cast<std::size_t>(keep_lo)];
      const std::size_t k1 = offset[static_cast<std::size_t>(keep_hi)];
      ctx.send_values<T>(comm, partner, detail::kTagAllreduce,
                         std::span<const T>(acc.data() + s0, s1 - s0));
      ctx.recv_values<T>(comm, partner, detail::kTagAllreduce,
                         std::span<T>(tmp.data() + k0, k1 - k0));
      detail::apply_op<T>(std::span<T>(acc.data() + k0, k1 - k0),
                          std::span<const T>(tmp.data() + k0, k1 - k0),
                          op);
      lo = keep_lo;
      hi = keep_hi;
    }
    // Allgather: mirror the halving in reverse.
    for (int mask = 1; mask < p; mask *= 2) {
      const int partner = me ^ mask;
      // The partner owns the sibling block range at this level.
      const int span = hi - lo;
      int plo, phi_;
      if ((me & mask) == 0) {
        plo = lo + span;
        phi_ = hi + span;
      } else {
        plo = lo - span;
        phi_ = hi - span;
      }
      const std::size_t m0 = offset[static_cast<std::size_t>(lo)];
      const std::size_t m1 = offset[static_cast<std::size_t>(hi)];
      const std::size_t q0 = offset[static_cast<std::size_t>(plo)];
      const std::size_t q1 = offset[static_cast<std::size_t>(phi_)];
      ctx.send_values<T>(comm, partner, detail::kTagAllreduce,
                         std::span<const T>(acc.data() + m0, m1 - m0));
      ctx.recv_values<T>(comm, partner, detail::kTagAllreduce,
                         std::span<T>(acc.data() + q0, q1 - q0));
      lo = std::min(lo, plo);
      hi = std::max(hi, phi_);
    }
    std::copy(acc.begin(), acc.end(), out.begin());
    return;
  }

  // Ring allreduce: reduce-scatter then allgather, p-1 steps each (also
  // the fallback for non-power-of-two Rabenseifner requests).
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
/// elements ordered by rank (ring algorithm).
template <typename T>
void allgather(Context& ctx, const Communicator& comm, std::span<const T> in,
               std::span<T> out) {
  detail::CollectiveScope scope(ctx);
  const int p = comm.size();
  const int me = comm.rank();
  const std::size_t n = in.size();
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

/// Pairwise-exchange all-to-all: block b of `in` goes to rank b; out block
/// b holds the data received from rank b.  Each block has `block` elements.
template <typename T>
void alltoall(Context& ctx, const Communicator& comm, std::span<const T> in,
              std::span<T> out, std::size_t block) {
  detail::CollectiveScope scope(ctx);
  const int p = comm.size();
  const int me = comm.rank();
  std::copy(in.begin() + static_cast<std::ptrdiff_t>(block) * me,
            in.begin() + static_cast<std::ptrdiff_t>(block) * (me + 1),
            out.begin() + static_cast<std::ptrdiff_t>(block) * me);
  for (int step = 1; step < p; ++step) {
    const int dst = (me + step) % p;
    const int src = (me - step + p) % p;
    ctx.send_values<T>(
        comm, dst, detail::kTagAlltoall,
        std::span<const T>(in.data() + block * static_cast<std::size_t>(dst),
                           block));
    ctx.recv_values<T>(
        comm, src, detail::kTagAlltoall,
        std::span<T>(out.data() + block * static_cast<std::size_t>(src),
                     block));
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

/// Inclusive prefix: rank r receives the op-fold of ranks [0, r].
/// Linear chain (deterministic association).
template <typename T>
void scan(Context& ctx, const Communicator& comm, std::span<const T> in,
          std::span<T> out, ReduceOp op) {
  detail::CollectiveScope scope(ctx);
  const int p = comm.size();
  const int me = comm.rank();
  std::vector<T> acc(in.begin(), in.end());
  if (me > 0) {
    std::vector<T> prev(in.size());
    ctx.recv_values<T>(comm, me - 1, detail::kTagExscan, std::span<T>(prev));
    for (std::size_t i = 0; i < acc.size(); ++i) {
      T tmp = prev[i];
      detail::apply_op<T>(std::span<T>(&tmp, 1),
                          std::span<const T>(&acc[i], 1), op);
      acc[i] = tmp;
    }
  }
  std::copy(acc.begin(), acc.end(), out.begin());
  if (me < p - 1)
    ctx.send_values<T>(comm, me + 1, detail::kTagExscan,
                       std::span<const T>(acc));
}

/// Combined send+receive with distinct peers (deadlock-free under the
/// eager protocol; mirrors MPI_Sendrecv).
template <typename T>
void sendrecv(Context& ctx, const Communicator& comm, int dst, int send_tag,
              std::span<const T> send_data, int src, int recv_tag,
              std::span<T> recv_data) {
  ctx.send_values<T>(comm, dst, send_tag, send_data);
  ctx.recv_values<T>(comm, src, recv_tag, recv_data);
}

/// Root gathers in-order blocks from every rank (linear).
template <typename T>
void gather(Context& ctx, const Communicator& comm, int root,
            std::span<const T> in, std::span<T> out) {
  detail::CollectiveScope scope(ctx);
  const int p = comm.size();
  const int me = comm.rank();
  const std::size_t n = in.size();
  if (me == root) {
    std::copy(in.begin(), in.end(),
              out.begin() + static_cast<std::ptrdiff_t>(n) * me);
    for (int r = 0; r < p; ++r) {
      if (r == root) continue;
      ctx.recv_values<T>(
          comm, r, detail::kTagGather,
          std::span<T>(out.data() + n * static_cast<std::size_t>(r), n));
    }
  } else {
    ctx.send_values<T>(comm, root, detail::kTagGather, in);
  }
}

}  // namespace ca::comm
