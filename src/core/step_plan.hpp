// The time step as data.  The paper writes one step as the operator
// string S (F L)^3 (F C A)^{3M}; a StepPlan spells that string out for one
// rank: which halos travel and when, which windows each RK stage updates
// and whether its C is fresh, and where the smoothing runs.  One pure
// builder per algorithm produces it from the rank's block and the
// algorithm switches.  The cores execute their plan through run_plan, and
// the schedule builders (core/schedule_builders.hpp) lower the same plan
// into the event simulator's per-rank program, so the simulated step is
// the functional step by construction.
#pragma once

#include <cstdint>
#include <vector>

#include "core/dycore_config.hpp"
#include "core/exchange.hpp"
#include "mesh/decomp.hpp"
#include "mesh/halo.hpp"
#include "ops/filter.hpp"
#include "ops/tendency.hpp"
#include "state/state.hpp"

namespace ca::core {

/// Fields a plan exchanges.
enum class FieldId : std::uint8_t {
  kU, kV, kPhi, kPsa,           ///< components of the exchanged state
  kDivsum, kSdot, kW, kPhiGeo,  ///< the last C's products (ws.vert)
  kPrePhi, kPrePsa,             ///< pre-smoothing rows (fused smoothing)
};

/// One exchanged field with its per-axis halo widths.
struct PlanItem {
  FieldId field = FieldId::kU;
  int wx = 0, wy = 0, wz = 0;
};

/// The item's halo widths and dimensionality (psa, divsum and the pre
/// psa rows are 2-D).
HaloFootprint footprint(const PlanItem& item);

/// The states of the RK scheme: stage 1 reads xi and writes eta, stage 2
/// reads eta and writes eta, stage 3 reads mid = (xi + eta) / 2 and
/// writes xi.
enum class Slot : std::uint8_t { kXi, kEta, kMid };

enum class Operator : std::uint8_t {
  kAdaptation,  ///< F (C + A), C fresh or stale
  kAdvection,   ///< F L, reading the last C's sigma-dot
};

enum class Smoothing : std::uint8_t {
  kFormer,  ///< S1: S from the pre-smoothing copy S2 reads again
  kLater,   ///< S2: redoes the seam rows from the neighbors' pre rows
  kFull,    ///< S: the whole smoothing, after a +-2 halo exchange
};

struct PlanEntry {
  enum class Kind : std::uint8_t {
    kExchangeBegin,
    kExchangeFinish,
    kUpdate,
    kSmooth
  };
  Kind kind = Kind::kUpdate;

  // kExchangeBegin: the state whose U/V/Phi/psa travel, and the items.
  Slot state = Slot::kXi;
  std::vector<PlanItem> items;

  // kUpdate: out = xi + dt * F op(in) on each window in turn; a stage-2
  // update also forms mid = (xi + eta) / 2 on its windows.
  Operator op = Operator::kAdaptation;
  int stage = 1;
  std::vector<mesh::Box> windows;
  /// Fresh C runs the z-line collectives over face_ring(c_window); stale C
  /// reuses the last C's products (eq. 13).
  bool fresh_c = false;
  mesh::Box c_window{};
  /// The overlapped inner part of a split stage: runs while an exchange is
  /// in flight; the update after the finish completes the stage.
  bool inner = false;

  // kSmooth.
  Smoothing smoothing = Smoothing::kFull;

  /// Refresh the physical boundaries of what the entry wrote: the
  /// exchanged state (finish), xi (smoothing), the stage's output and, at
  /// stage 2, mid (update; the advection also carries p'_sa along).
  bool fill = false;
};

using StepPlan = std::vector<PlanEntry>;

/// The CA core's update window: the block grown by ey/ez toward sides
/// with a neighboring rank (physical boundaries are filled instead).
mesh::Box extended_window(const mesh::DomainDecomp& d, int ey, int ez);

/// Algorithm 2 on one rank.  `smoothing_pending`: the previous step's
/// smoothing is deferred into this one (every step but the first);
/// `stale_c`: an earlier step left C products to reuse.
StepPlan make_ca_plan(const mesh::DomainDecomp& d, int M,
                      const CAOptions& options, bool smoothing_pending,
                      bool stale_c);

/// The CA core's deferred smoothing of its last step (Algorithm 2 line 30).
StepPlan make_ca_finalize_plan();

/// The CA block's halo layout, read off the first-step, steady-step and
/// finalize plans: each array gets the widest halo those plans' exchanges
/// write into it, and nothing deeper.
struct CALayout {
  state::StateHalo state;  ///< xi, eta, mid, tend and the diagnostic workspace
  state::StateHalo pre;    ///< the pre-smoothing copy of the fused smoothing

  /// The smallest block a split y / z dimension admits: one neighbor's
  /// block must hold the deepest 3-D halo rows the exchanges carry.
  int min_lny() const { return state.h3.y; }
  int min_lnz() const { return state.h3.z; }
};

CALayout ca_layout(const mesh::DomainDecomp& d, int M,
                   const CAOptions& options);

/// Algorithm 1 on one rank: a full-halo exchange before each of the 3M + 3
/// updates and before the smoothing.
StepPlan make_original_plan(const mesh::DomainDecomp& d, int M);

/// Every halo the original core uses (its per-update exchange).
std::vector<PlanItem> original_halo_items(const mesh::DomainDecomp& d);

/// Binds plan items to the arrays they name; `ws` and `pre` may be null
/// when no item names a C product or a pre-smoothing row.
std::vector<ExchangeItem> exchange_items(const std::vector<PlanItem>& items,
                                         state::State& s,
                                         ops::DiagWorkspace* ws,
                                         state::State* pre);

/// What run_plan drives on one rank.
struct PlanTarget {
  const DycoreConfig& config;
  const ops::OpContext& op;
  comm::Context& comm;
  const comm::CartTopology& topo;
  HaloExchanger& exchanger;
  const ops::FourierFilter& filter;
  ops::DiagWorkspace& ws;
  state::State &xi, &eta, &mid, &tend;
  state::State* pre;  ///< pre-smoothing copy (fused smoothing only)
};

/// Executes the plan's entries in order, each operator application under
/// its phase span (util::Phase) on the rank's tracer.
void run_plan(const StepPlan& plan, PlanTarget& t);

}  // namespace ca::core
