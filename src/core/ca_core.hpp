// The communication-avoiding algorithm (Algorithm 2) under the Y-Z
// decomposition:
//   - F~ is communication-free (p_x = 1, Theorem 4.1's eta_x = 0 choice);
//   - ONE deep halo exchange covers all 3M adaptation stencil updates
//     (redundant computation on shrinking extended windows) and carries
//     the fused smoothing data: post-S1 rows for the stencils plus the
//     pre-smoothing boundary rows the neighbor's later smoothing S2 needs;
//   - the exchange is split into begin/compute-inner/finish/compute-outer
//     to overlap communication with computation;
//   - the approximate nonlinear iteration (eq. 13) reuses the previous C
//     products in the first update of every iteration, cutting the z-line
//     collectives from 3 to 2 per iteration;
//   - ONE more exchange covers the 3 advection updates.
// Total: 2 neighbor communications per step instead of 3M + 4.
#pragma once

#include "comm/topology.hpp"
#include "core/dycore_config.hpp"
#include "core/exchange.hpp"
#include "core/step_plan.hpp"
#include "mesh/decomp.hpp"
#include "mesh/latlon.hpp"
#include "mesh/sigma.hpp"
#include "ops/filter.hpp"
#include "ops/tendency.hpp"
#include "state/initial.hpp"
#include "state/state.hpp"
#include "state/stratification.hpp"
#include "util/checkpoint.hpp"

namespace ca::core {

// CAOptions lives in core/dycore_config.hpp (so the service's JobSpec
// can carry it without this header's comm/ops dependencies).

class CACore {
 public:
  /// Collective over ctx.world(); dims must be {1, py, pz}.
  CACore(const DycoreConfig& config, comm::Context& ctx,
         std::array<int, 3> dims, const CAOptions& options = {});

  void step(state::State& xi);
  void run(state::State& xi, int n);

  state::State make_state() const;
  void initialize(state::State& xi, const state::InitialOptions& options);

  const DycoreConfig& config() const { return config_; }
  const state::Stratification& strat() const { return strat_; }
  const mesh::DomainDecomp& decomp() const { return decomp_; }
  const ops::OpContext& op_context() const { return opctx_; }
  /// Installs a terrain field (see state::make_terrain); the caller keeps
  /// it alive for the core's lifetime.  Null restores a flat surface.
  void set_terrain(const util::Array2D<double>* phi_surface) {
    opctx_.phi_surface = phi_surface;
  }
  const comm::CartTopology& topology() const { return topo_; }
  const CAOptions& options() const { return options_; }
  /// Halo-exchange engine and polar filter (read-only; tests read their
  /// message counts and workspace reuse counters).
  const HaloExchanger& exchanger() const { return exchanger_; }
  const ops::FourierFilter& filter() const { return filter_; }

  /// Diagnostic workspace (read-only; exposed for tests).
  const ops::DiagWorkspace& workspace() const { return ws_; }

  /// Applies the deferred smoothing of the last step (Algorithm 2 line
  /// 30); run() calls this automatically after its steps.
  void finalize(state::State& xi);

  /// Restart halo refresh (same hook the runner probes on OriginalCore).
  /// The CA step's own deep exchanges re-send every neighbor halo row it
  /// reads, so a restart only needs the physical/periodic boundary fill.
  void refresh_halos(state::State& s);

  // --- checkpoint v3 core-carry (see util/checkpoint.hpp) -------------
  // Algorithm 2's whole point is cross-step state: the final smoothing of
  // a step is deferred into the next one (line 30), and the approximate
  // nonlinear iteration (eq. 13) reuses the previous step's C products.
  // That state lives outside the prognostic fields, so a bitwise resume
  // carries what a resumed step reads before it writes it:
  //   - step_count_ (gates the deferred smoothing of the resumed step)
  //     and have_stale_c_ (gates the stale-C fast path),
  //   - the stale C products ws_.vert (sdot, w, phi_geo, divsum; full
  //     arrays, halos included: the resumed step's overlapped inner
  //     update reads them before any exchange refreshes them).
  // Not carried: the column anchors of the z-line collectives (every
  // fresh C rewrites them on its face ring before reading them) and the
  // pre-smoothing copy pre_ (every fused step's former smoothing S1
  // rewrites it, and the adaptation exchange fills its halo rows, before
  // the later smoothing S2 reads it; the deferred smoothing finalize()
  // applies is a full smoothing that never reads it).
  // run_campaign detects these hooks with `requires` (like finalize /
  // refresh_halos) and saves/restores the blob with each checkpoint.
  //
  // The carry is written in the self-describing *reshardable* layout of
  // util::kReshardableCarryMagic: every field travels with its global
  // extents, halo depths, and block origin, so a degraded-pool
  // util::reshard_checkpoints can redistribute it across a new Y-Z
  // decomposition without knowing this core (bitwise for same-pz
  // reshards with fresh_c_on_block_face off; a pz change regroups the
  // z-collective partial sums).  The declared minimum block extents
  // (CALayout::min_lny / min_lnz) make an unrepresentable reshard fail
  // loudly in util::.

  /// Serializes the cross-step carry state into `w`.
  void save_carry(util::CarryWriter& w) const;
  /// Restores state saved by save_carry on an identically configured
  /// core.  Throws std::runtime_error on a magic/version/shape mismatch.
  void restore_carry(util::CarryReader& r);

 private:
  /// Runs `plan` (make_ca_plan / make_ca_finalize_plan) on xi.
  void execute(const StepPlan& plan, state::State& xi);

  DycoreConfig config_;
  CAOptions options_;
  comm::Context* comm_ctx_;
  mesh::LatLonMesh mesh_;
  mesh::SigmaLevels levels_;
  state::Stratification strat_;
  comm::CartTopology topo_;
  mesh::DomainDecomp decomp_;
  CALayout layout_;  ///< every array's halo, read off the step plans
  ops::OpContext opctx_;
  ops::FourierFilter filter_;
  ops::DiagWorkspace ws_;
  HaloExchanger exchanger_;
  state::State tend_, eta_, mid_, pre_;
  bool have_stale_c_ = false;
  int step_count_ = 0;
};

}  // namespace ca::core
