#include "core/schedule_builders.hpp"

#include <algorithm>
#include <cmath>

#include "core/step_plan.hpp"
#include "mesh/decomp.hpp"
#include "perf/cost.hpp"

namespace ca::core {
namespace {

using perf::MachineModel;
using perf::Schedule;

double fft_flops(long long nx, long long lines) {
  return 5.0 * static_cast<double>(nx) *
         std::max(1.0, std::log2(static_cast<double>(nx))) *
         static_cast<double>(lines) * 2.0;  // forward + inverse
}

/// Registers one simulator group per line of ranks along z (or x) and
/// returns every rank's group.  Ranks are x-fastest, so each line's
/// lowest rank is the first of it the scan meets.
std::vector<int> line_groups(Schedule& s, const perf::ProcGrid& g,
                             bool z_lines) {
  const int length = z_lines ? g.pz : g.px;
  const int stride = z_lines ? g.px * g.py : 1;
  std::vector<int> group(static_cast<std::size_t>(g.total()), -1);
  for (int r = 0; r < g.total(); ++r) {
    if (group[static_cast<std::size_t>(r)] >= 0) continue;
    std::vector<int> members;
    for (int c = 0; c < length; ++c) members.push_back(r + c * stride);
    const int id = s.add_group(members);
    for (int m : members) group[static_cast<std::size_t>(m)] = id;
  }
  return group;
}

/// Lowers one rank's StepPlan into its simulator program: exchanges into
/// the messages HaloExchanger posts, updates into calibrated flops times
/// the window volume plus the C collectives and the Fourier filter, the
/// smoothing into flops times the block volume.
class Lowering {
 public:
  Lowering(Schedule& s, const ScheduleParams& p, const MachineModel& m)
      : s_(s),
        p_(p),
        m_(m),
        mesh_(static_cast<int>(p.mesh.nx), static_cast<int>(p.mesh.ny),
              static_cast<int>(p.mesh.nz)),
        zgroups_(line_groups(s, p.grid, /*z_lines=*/true)),
        xgroups_(line_groups(s, p.grid, /*z_lines=*/false)) {
    topo_.dims = {p.grid.px, p.grid.py, p.grid.pz};
    topo_.periodic = {true, false, false};
  }

  /// Lowers `steps` copies of the plan that make_plan builds for each
  /// rank's block.
  template <typename MakePlan>
  void lower_all(MakePlan make_plan) {
    for (int r = 0; r < s_.nranks(); ++r) {
      topo_.coords = {r % p_.grid.px, (r / p_.grid.px) % p_.grid.py,
                      r / (p_.grid.px * p_.grid.py)};
      const mesh::DomainDecomp d(mesh_, topo_.dims, topo_.coords);
      const StepPlan plan = make_plan(d);
      for (int step = 0; step < p_.steps; ++step) lower(r, d, plan);
    }
  }

 private:
  void lower(int rank, const mesh::DomainDecomp& d, const StepPlan& plan) {
    const std::array<int, 3> n{d.lnx(), d.lny(), d.lnz()};
    const double block =
        static_cast<double>(extended_window(d, 0, 0).volume());
    bool posted = false;
    for (const PlanEntry& e : plan) {
      switch (e.kind) {
        case PlanEntry::Kind::kExchangeBegin:
          // Same neighbor and item order as HaloExchanger::begin.
          for (int dz = -1; dz <= 1; ++dz)
            for (int dy = -1; dy <= 1; ++dy)
              for (int dx = -1; dx <= 1; ++dx) {
                const int nbr = topo_.neighbor(dx, dy, dz);
                if ((dx == 0 && dy == 0 && dz == 0) || nbr < 0 ||
                    nbr == rank)
                  continue;
                for (const PlanItem& it : e.items) {
                  const HaloFootprint f = footprint(it);
                  if (!participates(f, dx, dy, dz)) continue;
                  s_.add_isend(rank, nbr,
                               send_volume(f, n, dx, dy, dz) * sizeof(double),
                               util::Phase::kStencil);
                  s_.add_irecv(rank, nbr, util::Phase::kStencil);
                  posted = true;
                }
              }
          break;
        case PlanEntry::Kind::kExchangeFinish:
          if (posted) s_.add_waitall(rank, util::Phase::kStencil);
          posted = false;
          break;
        case PlanEntry::Kind::kUpdate: {
          long long vol = 0;
          for (const mesh::Box& w : e.windows) vol += w.volume();
          const double flops = e.op == Operator::kAdaptation
                                   ? p_.flops_adapt + p_.flops_column
                                   : p_.flops_advect;
          s_.add_compute(rank, flops * static_cast<double>(vol),
                         util::Phase::kCompute);
          if (e.fresh_c) emit_c_collectives(rank, d, e.c_window);
          // A split stage's filter is priced once, with its remainder.
          if (!e.inner) emit_filter(rank, d);
          break;
        }
        case PlanEntry::Kind::kSmooth:
          // The split smoothing is priced once, at S1.
          if (e.smoothing != Smoothing::kLater)
            s_.add_compute(rank, p_.flops_smooth * block,
                           util::Phase::kCompute);
          break;
      }
    }
  }

  /// The two z-line collectives of one fresh C over c_window's face ring.
  void emit_c_collectives(int rank, const mesh::DomainDecomp& d,
                          const mesh::Box& c_window) {
    if (p_.grid.pz <= 1) return;
    const mesh::Box ring = ops::face_ring(c_window);
    const std::size_t bytes = static_cast<std::size_t>(2) *
                              static_cast<std::size_t>(ring.i1 - ring.i0) *
                              static_cast<std::size_t>(ring.j1 - ring.j0) *
                              sizeof(double);
    const int group = zgroups_[static_cast<std::size_t>(rank)];
    s_.add_collective(rank, group,
                      perf::allreduce_time(m_, p_.grid.pz, bytes),
                      perf::ring_allreduce_bytes(p_.grid.pz, bytes),
                      util::Phase::kCollective);
    // Exclusive scan: a (pz-1)-stage chain; every rank but the last sends
    // its vector once.
    const double exscan_cost =
        (p_.grid.pz - 1) * (m_.alpha + m_.collective_round_overhead +
                            m_.beta * static_cast<double>(bytes));
    s_.add_collective(rank, group, exscan_cost,
                      d.coords()[2] == p_.grid.pz - 1 ? 0 : bytes,
                      util::Phase::kCollective);
  }

  /// The Fourier filter of one update over the rank's active rows
  /// (filter_fraction of all rows, split evenly at both poles).
  void emit_filter(int rank, const mesh::DomainDecomp& d) {
    const long long band =
        static_cast<long long>(p_.filter_fraction * p_.mesh.ny / 2.0);
    auto overlap = [&](long long lo, long long hi) {
      return std::max<long long>(
          0, std::min<long long>(hi, d.yr().end()) -
                 std::max<long long>(lo, d.yr().begin));
    };
    const long long rows =
        overlap(0, band) + overlap(p_.mesh.ny - band, p_.mesh.ny);
    // U, V and Phi on every level, plus p'_sa.
    const long long lines = rows * (3 * d.lnz() + 1);
    if (p_.grid.px > 1) {
      // X-Y: the distributed FFT is priced as the butterfly algorithm the
      // paper's W_XY formula assumes — log2(px) rounds each moving the
      // local slab of active lines.  (The functional reference
      // implementation uses a simpler allgather; see DESIGN.md.)
      const std::size_t local_bytes = static_cast<std::size_t>(lines) *
                                      static_cast<std::size_t>(d.lnx()) *
                                      sizeof(double);
      const double rounds =
          std::ceil(std::log2(static_cast<double>(p_.grid.px)));
      const double cost =
          rounds * (m_.alpha + m_.collective_round_overhead +
                    m_.beta * static_cast<double>(local_bytes));
      const int group = xgroups_[static_cast<std::size_t>(rank)];
      s_.add_collective(rank, group, cost,
                        static_cast<std::size_t>(rounds) * local_bytes,
                        util::Phase::kCollective);
    }
    s_.add_compute(rank, fft_flops(p_.mesh.nx, lines), util::Phase::kCompute);
  }

  Schedule& s_;
  const ScheduleParams& p_;
  const MachineModel& m_;
  mesh::LatLonMesh mesh_;
  comm::CartTopology topo_;  // geometry only: dims, periodicity, coords
  std::vector<int> zgroups_, xgroups_;
};

}  // namespace

perf::Schedule build_original_schedule(const ScheduleParams& p,
                                       const MachineModel& m) {
  Schedule s(p.grid.total());
  Lowering(s, p, m).lower_all([&](const mesh::DomainDecomp& d) {
    return make_original_plan(d, p.M);
  });
  return s;
}

perf::Schedule build_ca_schedule(const ScheduleParams& p,
                                 const MachineModel& m) {
  Schedule s(p.grid.total());
  // The steady-state step: the previous step's smoothing is pending and
  // its C products are there to reuse.
  Lowering(s, p, m).lower_all([&](const mesh::DomainDecomp& d) {
    return make_ca_plan(d, p.M, p.ca, /*smoothing_pending=*/true,
                        /*stale_c=*/true);
  });
  return s;
}

}  // namespace ca::core
