// Communication engines of the distributed dynamical core:
//   - physical boundary fills (periodic x, pole reflection, zero-gradient z)
//   - the neighbor halo exchange (blocking, and split begin/finish for the
//     communication/computation overlap of Algorithm 2)
//   - the distributed C operator: column partials + the two z-line
//     collectives (allreduce + exscan) + column finish
#pragma once

#include <array>
#include <span>
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

/// apply_physical_boundaries at every depth the state allocates (the
/// fill the cores run after each exchange and redundant update).
void fill_boundaries(const ops::OpContext& ctx, state::State& s);

/// One field (3-D or 2-D) participating in a halo exchange, with
/// per-axis halo widths.
struct ExchangeItem {
  util::Array3D<double>* f3 = nullptr;
  util::Array2D<double>* f2 = nullptr;
  int wx = 0, wy = 0, wz = 0;
};

/// The shape of an exchanged field: per-axis halo widths, and whether it
/// is 2-D (2-D fields never exchange along z).
struct HaloFootprint {
  int wx = 0, wy = 0, wz = 0;
  bool is2d = false;
};

/// Whether a field exchanges data with the neighbor at offset (dx, dy,
/// dz): every nonzero offset axis must carry a nonzero halo width, and
/// 2-D fields never exchange along z.  Identical on the send and receive
/// sides, so every posted receive has a matching send.
bool participates(const HaloFootprint& f, int dx, int dy, int dz);

/// Doubles a field of local extents `n` ({lnx, lny, lnz}; lnz is ignored
/// for 2-D fields) sends toward offset (dx, dy, dz).  Neighbor blocks
/// share local extents along zero-offset axes, so this is also the
/// neighbor's matching receive volume.
std::size_t send_volume(const HaloFootprint& f, std::array<int, 3> n,
                        int dx, int dy, int dz);

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

  /// Posts receives and sends for all items, charging the traffic to the
  /// stencil phase; returns immediately.  If a previous begin() still has
  /// receives in flight they are drained first (re-posting onto the same
  /// (neighbor, tag) triples would break FIFO matching).
  void begin(const std::vector<ExchangeItem>& items);
  /// Waits for every pending receive and unpacks it into the halos.  A
  /// second finish() is a no-op.
  void finish();
  /// begin + finish.
  void exchange(const std::vector<ExchangeItem>& items);

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

/// The operator C on `window`'s face ring into ws.vert: column partials,
/// the two z-line collectives (allreduce + exscan, charged to the
/// collective phase) when line_z has more than one rank, and the column
/// finish.  The collectives pack into ws's reused column buffers.
void compute_c(const ops::OpContext& ctx, comm::Context* comm_ctx,
               const comm::Communicator* line_z, const state::State& xi,
               const mesh::Box& window, ops::DiagWorkspace& ws,
               comm::AllreduceAlgorithm alg);

/// Gathers every rank's owned interior into one full-domain state on rank
/// 0 of the topology's communicator (returned state is empty elsewhere).
/// Used by the equivalence tests and the examples' global diagnostics.
state::State gather_global(const ops::OpContext& ctx, comm::Context& cc,
                           const comm::CartTopology& topo,
                           const state::State& xi);

}  // namespace ca::core
