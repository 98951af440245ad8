// Communication engines of the distributed dynamical core:
//   - physical boundary fills (periodic x, pole reflection, zero-gradient z)
//   - the neighbor halo exchange (blocking, and split begin/finish for the
//     communication/computation overlap of Algorithm 2)
//   - the distributed C operator: column partials + the two z-line
//     collectives (allreduce + exscan) + column finish
#pragma once

#include <span>
#include <string>
#include <vector>

#include "comm/collectives.hpp"
#include "comm/topology.hpp"
#include "mesh/halo.hpp"
#include "ops/context.hpp"
#include "ops/tendency.hpp"
#include "state/state.hpp"

namespace ca::core {

/// Fills the halo sides that have no neighboring rank: x periodic wrap
/// when the rank owns full circles, pole reflection in y (U/Phi/psa
/// symmetric, V antisymmetric), zero-gradient in z.  Widths select how
/// deep to fill (clamped to the allocated halos).
void apply_physical_boundaries(const ops::OpContext& ctx, state::State& s,
                               int wx, int wy, int wz);

/// One field (3-D or 2-D) participating in a halo exchange, with
/// per-axis halo widths.
struct ExchangeItem {
  util::Array3D<double>* f3 = nullptr;
  util::Array2D<double>* f2 = nullptr;
  int wx = 0, wy = 0, wz = 0;
};

/// Neighbor halo exchange over the Cartesian topology: one message per
/// (neighbor, item) pair — the granularity the paper counts ("about 20
/// MPI_Isend and MPI_Recv operations ... due to the length of xi being
/// ten").
///
/// Pack and receive buffers come from persistent per-exchanger pools:
/// after a warm-up step every acquire reuses existing capacity, so the
/// steady-state step loop performs no heap allocation here (asserted via
/// CommStats::pool()).
class HaloExchanger {
 public:
  HaloExchanger(comm::Context& ctx, const comm::CartTopology& topo)
      : ctx_(&ctx), topo_(&topo) {}

  /// Posts receives and sends for all items; returns immediately.  If a
  /// previous begin() still has receives in flight they are drained first
  /// (re-posting onto the same (neighbor, tag) triples would break FIFO
  /// matching).
  void begin(const std::vector<ExchangeItem>& items,
             const std::string& phase);
  /// Waits for every pending receive and unpacks it into the halos.  A
  /// second finish() is a no-op.
  void finish();
  /// begin + finish.
  void exchange(const std::vector<ExchangeItem>& items,
                const std::string& phase);

  /// Messages sent by the last begin() (for schedule validation).
  std::size_t last_message_count() const { return last_message_count_; }

 private:
  /// One posted receive: the message from rank `nbr` that fills item
  /// `item`'s halo region `box` (k extent [0, 1) for 2-D fields).
  struct PendingRecv {
    comm::Request request;
    std::span<double> buffer;  // view into recv_pool_
    int item = 0;
    int nbr = -1;
    mesh::Box box{};
  };

  /// Grabs the next pool slot resized to n doubles, recording whether the
  /// acquire had to grow the slot's heap capacity.
  std::span<double> acquire(std::vector<std::vector<double>>& pool,
                            std::size_t& cursor, std::size_t n);

  /// Sends every participating item toward the neighbor at (dx, dy, dz)
  /// and posts the matching receives.
  void post(int nbr, int dx, int dy, int dz);
  /// Blocks on pr's message ("exchange_wait" phase) and unpacks it
  /// ("exchange" phase).
  void complete(PendingRecv& pr);

  comm::Context* ctx_;
  const comm::CartTopology* topo_;
  std::vector<ExchangeItem> items_;
  std::vector<PendingRecv> recvs_;
  std::vector<std::vector<double>> send_pool_, recv_pool_;
  std::size_t send_cursor_ = 0, recv_cursor_ = 0;
  std::size_t last_message_count_ = 0;
};

/// Computes the full diagnostics (LocalDiag + VertDiag) for an update
/// window, inserting the two z-line collectives when line_z has more than
/// one rank.  `stale_vert == true` refreshes only the local part and
/// leaves ws.vert untouched — the previous C products are reused (the
/// paper's C(psi^{i-2}) replacement, eq. 13), which is also how the
/// advection process obtains its sigma-dot without communication.
void compute_diagnostics(const ops::OpContext& ctx, comm::Context* comm_ctx,
                         const comm::Communicator* line_z,
                         const state::State& xi, const mesh::Box& window,
                         ops::DiagWorkspace& ws, bool stale_vert,
                         comm::AllreduceAlgorithm alg,
                         const std::string& phase);

/// Gathers every rank's owned interior into one full-domain state on rank
/// 0 of the topology's communicator (returned state is empty elsewhere).
/// Used by the equivalence tests and the examples' global diagnostics.
state::State gather_global(const ops::OpContext& ctx, comm::Context& cc,
                           const comm::CartTopology& topo,
                           const state::State& xi);

}  // namespace ca::core
