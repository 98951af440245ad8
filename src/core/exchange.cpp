#include "core/exchange.hpp"

#include "core/dycore_config.hpp"

#include <stdexcept>
#include <string>

#include "comm/collectives.hpp"
#include "comm/error.hpp"
#include "ops/vertical.hpp"

namespace ca::core {
namespace {

constexpr int kTagExchangeBase = 1 << 20;

/// Direction index of offset (dx, dy, dz) in {-1,0,1}^3.
int dir_index(int dx, int dy, int dz) {
  return (dx + 1) + 3 * (dy + 1) + 9 * (dz + 1);
}

int item_tag(int item, int dx, int dy, int dz) {
  return kTagExchangeBase + item * 27 + dir_index(dx, dy, dz);
}

HaloFootprint footprint(const ExchangeItem& item) {
  return {item.wx, item.wy, item.wz, item.f2 != nullptr};
}

/// Local extents of the item's array (a 2-D field is one layer deep, and
/// only participates along offsets with dz == 0).
std::array<int, 3> extents(const ExchangeItem& item) {
  if (item.f3 != nullptr)
    return {item.f3->nx(), item.f3->ny(), item.f3->nz()};
  return {item.f2->nx(), item.f2->ny(), 1};
}

/// Packs `item`'s send region toward (dx, dy, dz) into dst (exactly
/// send_volume doubles, x-fastest).
void pack_item(const ExchangeItem& item, int dx, int dy, int dz,
               std::span<double> dst) {
  const auto n = extents(item);
  const mesh::Box sb = mesh::send_box(n[0], n[1], n[2], dx, dy, dz, item.wx,
                                      item.wy, item.wz);
  if (item.f3 != nullptr) {
    mesh::pack_box(*item.f3, sb, dst);
    return;
  }
  std::size_t idx = 0;
  for (int j = sb.j0; j < sb.j1; ++j)
    for (int i = sb.i0; i < sb.i1; ++i) dst[idx++] = (*item.f2)(i, j);
}

}  // namespace

bool participates(const HaloFootprint& f, int dx, int dy, int dz) {
  if ((dx != 0 && f.wx == 0) || (dy != 0 && f.wy == 0)) return false;
  if (dz != 0 && (f.wz == 0 || f.is2d)) return false;
  return true;
}

std::size_t send_volume(const HaloFootprint& f, std::array<int, 3> n,
                        int dx, int dy, int dz) {
  const mesh::Box b = mesh::send_box(n[0], n[1], f.is2d ? 1 : n[2], dx, dy,
                                     f.is2d ? 0 : dz, f.wx, f.wy, f.wz);
  return static_cast<std::size_t>(b.volume());
}

void fill_boundaries(const ops::OpContext& ctx, state::State& s) {
  const auto h = s.u().halo();
  apply_physical_boundaries(ctx, s, h.x, std::max(h.y, s.psa().hy()), h.z);
}

void apply_physical_boundaries(const ops::OpContext& ctx, state::State& s,
                               int wx, int wy, int wz) {
  const auto& d = *ctx.decomp;
  auto clamp3 = [](int w, int h) { return std::min(w, h); };
  if (d.owns_full_x() && wx > 0) {
    mesh::fill_x_periodic(s.u(), clamp3(wx, s.u().halo().x));
    mesh::fill_x_periodic(s.v(), clamp3(wx, s.v().halo().x));
    mesh::fill_x_periodic(s.phi(), clamp3(wx, s.phi().halo().x));
    mesh::fill_x_periodic(s.psa(),
                          std::min(wx + ops::kSurfaceRing, s.psa().hx()));
  }
  if (wy > 0) {
    if (d.at_north_pole()) {
      mesh::fill_pole_north(s.u(), clamp3(wy, s.u().halo().y),
                            mesh::PoleParity::kSymmetric);
      mesh::fill_pole_north(s.v(), clamp3(wy, s.v().halo().y),
                            mesh::PoleParity::kAntisymmetric);
      mesh::fill_pole_north(s.phi(), clamp3(wy, s.phi().halo().y),
                            mesh::PoleParity::kSymmetric);
      auto& psa = s.psa();
      const int hw = std::min(wy + ops::kSurfaceRing, psa.hy());
      for (int dd = 1; dd <= hw; ++dd)
        for (int i = -psa.hx(); i < psa.nx() + psa.hx(); ++i)
          psa(i, -dd) = psa(i, dd - 1);
    }
    if (d.at_south_pole()) {
      mesh::fill_pole_south(s.u(), clamp3(wy, s.u().halo().y),
                            mesh::PoleParity::kSymmetric);
      mesh::fill_pole_south(s.v(), clamp3(wy, s.v().halo().y),
                            mesh::PoleParity::kAntisymmetric);
      mesh::fill_pole_south(s.phi(), clamp3(wy, s.phi().halo().y),
                            mesh::PoleParity::kSymmetric);
      auto& psa = s.psa();
      const int hw = std::min(wy + ops::kSurfaceRing, psa.hy());
      const int ny = psa.ny();
      for (int dd = 1; dd <= hw; ++dd)
        for (int i = -psa.hx(); i < psa.nx() + psa.hx(); ++i)
          psa(i, ny - 1 + dd) = psa(i, ny - dd);
    }
  }
  if (wz > 0) {
    if (d.at_model_top()) {
      mesh::fill_z_top(s.u(), clamp3(wz, s.u().halo().z));
      mesh::fill_z_top(s.v(), clamp3(wz, s.v().halo().z));
      mesh::fill_z_top(s.phi(), clamp3(wz, s.phi().halo().z));
    }
    if (d.at_surface()) {
      mesh::fill_z_bottom(s.u(), clamp3(wz, s.u().halo().z));
      mesh::fill_z_bottom(s.v(), clamp3(wz, s.v().halo().z));
      mesh::fill_z_bottom(s.phi(), clamp3(wz, s.phi().halo().z));
    }
  }
}

std::span<double> HaloExchanger::acquire(
    std::vector<std::vector<double>>& pool, std::size_t& cursor,
    std::size_t n) {
  if (cursor == pool.size()) pool.emplace_back();
  std::vector<double>& buf = pool[cursor++];
  // resize() within capacity touches no heap; steady state means every
  // slot has already seen its largest message.
  const bool grew = n > buf.capacity();
  buf.resize(n);
  ctx_->stats().record_pool_acquire(grew);
  return {buf.data(), n};
}

void HaloExchanger::post(int nbr, int dx, int dy, int dz) {
  const auto& topo = *topo_;
  for (std::size_t it = 0; it < items_.size(); ++it) {
    const ExchangeItem& item = items_[it];
    if (!participates(footprint(item), dx, dy, dz)) continue;

    auto sbuf = acquire(send_pool_, send_cursor_,
                        send_volume(footprint(item), extents(item), dx, dy,
                                    dz));
    pack_item(item, dx, dy, dz, sbuf);
    ctx_->send_values<double>(topo.comm, nbr,
                              item_tag(static_cast<int>(it), dx, dy, dz),
                              sbuf);
    ++last_message_count_;

    PendingRecv pr;
    pr.item = static_cast<int>(it);
    pr.nbr = nbr;
    const auto n = extents(item);
    pr.box = mesh::recv_box(n[0], n[1], n[2], dx, dy, dz, item.wx, item.wy,
                            item.wz);
    pr.buffer = acquire(recv_pool_, recv_cursor_,
                        static_cast<std::size_t>(pr.box.volume()));
    pr.request = ctx_->irecv_values<double>(
        topo.comm, nbr, item_tag(static_cast<int>(it), -dx, -dy, -dz),
        pr.buffer);
    recvs_.push_back(std::move(pr));
  }
}

void HaloExchanger::begin(const std::vector<ExchangeItem>& items) {
  // Leftover in-flight receives (a begin() whose finish() never ran) must
  // drain before re-posting: the new round reuses the same (neighbor, tag)
  // triples and FIFO matching would pair old messages with new requests.
  if (!recvs_.empty()) finish();
  ctx_->stats().set_phase(util::Phase::kStencil);
  obs::Span span =
      ctx_->tracer().phase_span(util::Phase::kExchange, "exchange_post");
  items_ = items;
  send_cursor_ = 0;
  recv_cursor_ = 0;
  last_message_count_ = 0;
  const auto& topo = *topo_;
  const int self = topo.comm.rank();

  for (int dz = -1; dz <= 1; ++dz) {
    for (int dy = -1; dy <= 1; ++dy) {
      for (int dx = -1; dx <= 1; ++dx) {
        if (dx == 0 && dy == 0 && dz == 0) continue;
        const int nbr = topo.neighbor(dx, dy, dz);
        if (nbr < 0 || nbr == self) continue;
        post(nbr, dx, dy, dz);
      }
    }
  }
}

void HaloExchanger::complete(PendingRecv& pr) {
  // The wait is bounded by the runtime's receive timeout (see
  // comm::RunOptions): a lost neighbor message surfaces as a typed
  // TimeoutError annotated with the exchange item instead of an infinite
  // spin on the request.  Blocked time is charged to "exchange_wait" —
  // the quantity the overlap hides — while unpacking stays in "exchange".
  // Both windows are obs spans, so the trace timeline shows the same
  // seconds the record's phase totals report.
  {
    obs::Span wait_span =
        ctx_->tracer().phase_span(util::Phase::kExchangeWait);
    try {
      ctx_->wait(pr.request);
    } catch (const comm::TimeoutError& e) {
      throw comm::CommError(std::string("halo exchange item ") +
                            std::to_string(pr.item) + " from rank " +
                            std::to_string(pr.nbr) + " timed out: " +
                            e.what());
    }
  }
  obs::Span unpack_span =
      ctx_->tracer().phase_span(util::Phase::kExchange, "exchange_unpack");
  const ExchangeItem& item = items_[static_cast<std::size_t>(pr.item)];
  if (item.f3 != nullptr) {
    mesh::unpack_box(*item.f3, pr.box, pr.buffer);
  } else {
    auto& f = *item.f2;
    std::size_t idx = 0;
    for (int j = pr.box.j0; j < pr.box.j1; ++j)
      for (int i = pr.box.i0; i < pr.box.i1; ++i) f(i, j) = pr.buffer[idx++];
  }
}

void HaloExchanger::finish() {
  for (auto& pr : recvs_) complete(pr);
  recvs_.clear();
}

void HaloExchanger::exchange(const std::vector<ExchangeItem>& items) {
  begin(items);
  finish();
}

void compute_c(const ops::OpContext& ctx, comm::Context* comm_ctx,
               const comm::Communicator* line_z, const state::State& xi,
               const mesh::Box& window, ops::DiagWorkspace& ws,
               comm::AllreduceAlgorithm alg) {
  const bool distributed = line_z != nullptr && line_z->size() > 1;
  if (!distributed) {
    ops::compute_vert_diag_serial(ctx, xi, window, ws);
    return;
  }

  const mesh::Box ring = ops::face_ring(window);
  ops::column_partials(ctx, xi, ring, ws.local, ws.own_div, ws.own_phi);

  // Pack [own_div | own_phi] over the ring face and run the two z-line
  // collectives (the operator C's communication).
  const std::size_t face = static_cast<std::size_t>(ring.i1 - ring.i0) *
                           static_cast<std::size_t>(ring.j1 - ring.j0);
  auto& own = ws.column_own;
  auto& total = ws.column_total;
  auto& prefix = ws.column_prefix;
  own.resize(2 * face);
  total.resize(2 * face);
  prefix.resize(2 * face);
  std::size_t idx = 0;
  for (int j = ring.j0; j < ring.j1; ++j) {
    for (int i = ring.i0; i < ring.i1; ++i) {
      own[idx] = ws.own_div(i, j);
      own[idx + face] = ws.own_phi(i, j);
      ++idx;
    }
  }
  if (comm_ctx == nullptr)
    throw std::invalid_argument(
        "compute_c: distributed path needs a comm context");
  comm_ctx->stats().set_phase(util::Phase::kCollective);
  comm::allreduce<double>(*comm_ctx, *line_z, own, total,
                          comm::ReduceOp::kSum, alg);
  comm::exscan<double>(*comm_ctx, *line_z, own, prefix,
                       comm::ReduceOp::kSum);
  idx = 0;
  for (int j = ring.j0; j < ring.j1; ++j) {
    for (int i = ring.i0; i < ring.i1; ++i) {
      ws.total_div(i, j) = total[idx];
      ws.total_phi(i, j) = total[idx + face];
      ws.base_div(i, j) = prefix[idx];
      ws.base_phi(i, j) = prefix[idx + face];
      ++idx;
    }
  }
  ops::column_finish(ctx, xi, ring, ws.local, ws.base_div, ws.total_div,
                     ws.base_phi, ws.own_phi, ws.total_phi, ws.vert);
}

state::State gather_global(const ops::OpContext& ctx, comm::Context& cc,
                           const comm::CartTopology& topo,
                           const state::State& xi) {
  constexpr int kTagGatherState = (1 << 20) + (1 << 18);
  const auto& mesh = *ctx.mesh;
  const auto& d = *ctx.decomp;

  // Pack this rank's interior: U, V, Phi (x-fastest), then psa.
  std::vector<double> buf;
  buf.reserve(static_cast<std::size_t>(d.lnx()) * d.lny() *
                  (3 * d.lnz()) +
              static_cast<std::size_t>(d.lnx()) * d.lny());
  auto pack3 = [&](const util::Array3D<double>& f) {
    for (int k = 0; k < d.lnz(); ++k)
      for (int j = 0; j < d.lny(); ++j)
        for (int i = 0; i < d.lnx(); ++i) buf.push_back(f(i, j, k));
  };
  pack3(xi.u());
  pack3(xi.v());
  pack3(xi.phi());
  for (int j = 0; j < d.lny(); ++j)
    for (int i = 0; i < d.lnx(); ++i) buf.push_back(xi.psa()(i, j));

  if (topo.comm.rank() != 0) {
    cc.send_values<double>(topo.comm, 0, kTagGatherState, buf);
    return state::State{};
  }

  state::State global(mesh.nx(), mesh.ny(), mesh.nz(), halos_for_depth(1));
  for (int r = 0; r < topo.comm.size(); ++r) {
    std::array<int, 3> coords{r % topo.dims[0],
                              (r / topo.dims[0]) % topo.dims[1],
                              r / (topo.dims[0] * topo.dims[1])};
    mesh::DomainDecomp rd(mesh, topo.dims, coords);
    std::vector<double> rbuf;
    if (r == 0) {
      rbuf = std::move(buf);
    } else {
      rbuf.resize(static_cast<std::size_t>(rd.lnx()) * rd.lny() *
                      (3 * rd.lnz()) +
                  static_cast<std::size_t>(rd.lnx()) * rd.lny());
      cc.recv_values<double>(topo.comm, r, kTagGatherState, rbuf);
    }
    std::size_t idx = 0;
    auto unpack3 = [&](util::Array3D<double>& f) {
      for (int k = 0; k < rd.lnz(); ++k)
        for (int j = 0; j < rd.lny(); ++j)
          for (int i = 0; i < rd.lnx(); ++i)
            f(rd.gi(i), rd.gj(j), rd.gk(k)) = rbuf[idx++];
    };
    unpack3(global.u());
    unpack3(global.v());
    unpack3(global.phi());
    for (int j = 0; j < rd.lny(); ++j)
      for (int i = 0; i < rd.lnx(); ++i)
        global.psa()(rd.gi(i), rd.gj(j)) = rbuf[idx++];
  }
  return global;
}

}  // namespace ca::core
