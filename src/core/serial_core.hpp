// Single-rank reference integrator: Algorithm 1 exactly as printed —
// M nonlinear adaptation iterations of 3 internal updates with dt1, one
// advection iteration of 3 updates with dt2, then the smoothing S~.
// Every distributed variant is validated against this core.
#pragma once

#include <memory>

#include "comm/context.hpp"
#include "core/dycore_config.hpp"
#include "mesh/decomp.hpp"
#include "mesh/latlon.hpp"
#include "mesh/sigma.hpp"
#include "ops/filter.hpp"
#include "ops/tendency.hpp"
#include "state/initial.hpp"
#include "state/state.hpp"
#include "state/stratification.hpp"

namespace ca::core {

class SerialCore {
 public:
  /// `comm_ctx` is optional: a core run inside a one-rank comm::Runtime
  /// world passes its Context so each step reaches the fault-injection
  /// step boundary (Context::notify_step) and the rank's tracer, exactly
  /// as the distributed cores do.
  explicit SerialCore(const DycoreConfig& config,
                      comm::Context* comm_ctx = nullptr);

  /// Advances xi by one full time step.
  void step(state::State& xi);

  /// Runs `n` steps.
  void run(state::State& xi, int n);

  /// A correctly sized/haloed state for this core.
  state::State make_state() const;

  /// Initializes a state from an analytic initial condition.
  void initialize(state::State& xi, const state::InitialOptions& options);

  const DycoreConfig& config() const { return config_; }
  const mesh::LatLonMesh& mesh() const { return mesh_; }
  const mesh::SigmaLevels& levels() const { return levels_; }
  const state::Stratification& strat() const { return strat_; }
  const mesh::DomainDecomp& decomp() const { return decomp_; }
  const ops::OpContext& op_context() const { return opctx_; }
  /// Installs a terrain field (see state::make_terrain); the caller keeps
  /// it alive for the core's lifetime.  Null restores a flat surface.
  void set_terrain(const util::Array2D<double>* phi_surface) {
    opctx_.phi_surface = phi_surface;
  }
  const ops::FourierFilter& filter() const { return filter_; }

  /// Fills every physical boundary halo of a state (periodic x, poles, z).
  void fill_boundaries(state::State& s) const;
  /// Restart hook shared with the distributed cores: with one block the
  /// halos are all physical boundaries, so this is fill_boundaries.
  void refresh_halos(state::State& s) { fill_boundaries(s); }

  /// tend = F~(C + A-hat)(xi), the filtered adaptation tendency
  /// (boundaries of xi are filled here).  Exposed for tests.
  void adaptation_tendency(state::State& xi, state::State& tend);
  /// tend = F~(L~)(xi), the filtered advection tendency.
  void advection_tendency(state::State& xi, state::State& tend);

 private:
  /// The filtered tendency of A (with a fresh C) or L (reading the last
  /// C's sigma-dot), each operator under its phase span.
  void tendency(state::State& xi, state::State& tend, bool adaptation);
  /// The comm context's tracer; without one, an unarmed tracer whose
  /// spans time nothing.
  obs::Tracer& tracer() {
    return comm_ctx_ != nullptr ? comm_ctx_->tracer() : idle_tracer_;
  }

  DycoreConfig config_;
  comm::Context* comm_ctx_ = nullptr;
  mesh::LatLonMesh mesh_;
  mesh::SigmaLevels levels_;
  state::Stratification strat_;
  mesh::DomainDecomp decomp_;
  ops::OpContext opctx_;
  ops::FourierFilter filter_;
  ops::DiagWorkspace ws_;
  // Scratch states of the 3-update integrator.
  state::State tend_, eta_, mid_;
  obs::Tracer idle_tracer_;
};

}  // namespace ca::core
