// Campaign driver: the operational loop long runs need — time stepping
// with optional Held-Suarez forcing, periodic global diagnostics, and
// periodic checkpointing — factored out of the examples into a reusable,
// core-agnostic template (works with SerialCore, OriginalCore, CACore).
//
// A campaign can resume a checkpointed run (start_step / start time
// forwarding) and can yield cooperatively at checkpoint boundaries, which
// is what the ensemble service's preemption rides on: a preempted job
// stops at its last checkpoint and a later campaign continues from it
// with identical step numbering and checkpoint cadence.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "comm/collectives.hpp"
#include "comm/context.hpp"
#include "core/diagnostics.hpp"
#include "core/health.hpp"
#include "mesh/latlon.hpp"
#include "physics/held_suarez.hpp"
#include "util/checkpoint.hpp"

namespace ca::core {

struct CampaignOptions {
  /// Target absolute step count: the campaign runs steps
  /// start_step + 1 .. steps (inclusive).
  int steps = 0;
  /// Resume offset: the number of steps an earlier campaign already
  /// executed (a restarted run passes the checkpoint header's `step`).
  /// Step numbering, diagnostics cadence, and checkpoint cadence all use
  /// the absolute step, so a resumed run is indistinguishable from an
  /// uninterrupted one.
  int start_step = 0;
  /// Model time at start_step [s]; negative derives it as
  /// start_step * dt_advect (a restarted run passes the header's
  /// `time_seconds` so forwarded time survives dt changes).
  double start_time_seconds = -1.0;
  /// Emit diagnostics every N steps (0 = never); delivered through
  /// on_diagnostics on every rank (rank 0 carries the global values when
  /// a comm context is present).
  int diag_every = 0;
  std::function<void(int step, const GlobalDiag&)> on_diagnostics;
  /// Write a checkpoint every N steps (0 = never) under this prefix.
  int checkpoint_every = 0;
  std::string checkpoint_prefix = "campaign";
  /// Optional physics applied after each dynamical step.
  const physics::HeldSuarezForcing* forcing = nullptr;
  double forcing_dt = 0.0;  ///< defaults to the core's dt_advect
  /// Cooperative preemption: polled right after every checkpoint write;
  /// returning true ends the campaign at that checkpoint so a later
  /// campaign can resume from it.  Distributed runs agree on the decision
  /// with a world allreduce (any rank's yield preempts all), so ranks
  /// never part ways mid-exchange.  Ignored when checkpoint_every == 0:
  /// without a checkpoint there is nothing to resume from.
  std::function<bool()> should_yield;
  /// Called right after each step (and its forcing) with the
  /// attempt-local 0-based step index (the counter Context::notify_step
  /// keeps) and MUTABLE state: the hook the service's runner uses to
  /// inject corrupt_state faults (an in-memory poke of a prognostic
  /// field) without the core layer knowing about fault plans.
  /// Runs before the health check of the same step, so an injected
  /// corruption is detectable within one sentinel cadence.
  std::function<void(int step_index, state::State& xi)> on_step_state;
  /// Numerical-health sentinel (default OFF here; the ensemble service
  /// defaults it ON — see core/health.hpp).  Checked every
  /// health.cadence steps, before every checkpoint write, and at the
  /// final step; a tripped check throws NumericalError at the step
  /// boundary on every rank together (the verdict derives from the
  /// allreduced diagnostics, so ranks cannot disagree).  Because the
  /// pre-write check gates every checkpoint, a sentinel-on campaign
  /// never persists (or replicates) an unhealthy state.
  HealthOptions health{};
  /// Optional override of the checkpoint write itself.  Null (the
  /// default) writes a full v3 file via util::write_checkpoint; the
  /// service's runner installs a hook here to route the cadence through
  /// a delta-chaining util::CheckpointSession and to replicate the image
  /// to a buddy rank.  The hook runs at exactly the point the default
  /// write would — after the collective yield barrier — so the
  /// consistency argument for the per-rank checkpoint set is unchanged.
  /// `health_verdict` is the header flag the write must record
  /// (util::CheckpointHeader::health): 1 when the sentinel verified the
  /// state this step, 0 for unverified (sentinel off).
  std::function<void(const mesh::LatLonMesh& mesh, const state::State& xi,
                     std::int64_t step, double t,
                     std::span<const std::byte> carry,
                     std::uint32_t health_verdict)>
      write_checkpoint;
};

/// Runs the campaign; returns the number of steps executed by THIS call
/// (steps - start_step when it runs to completion, fewer after a yield;
/// the absolute step reached is start_step + the return value).
/// `comm_ctx` may be null for serial cores (diagnostics are then
/// block-local).  Checkpoints record the raw prognostic state; for the CA
/// core that state still carries the deferred final smoothing, and the
/// cross-step carry (step counter, stale C products, pre-smoothing rows)
/// rides in the checkpoint's v3 core-carry block via the core's
/// save_carry hook — a restarted CA run restores it and applies the
/// pending smoothing on its next step.  Restart transparency holds as
/// long as the same core type resumes the run.
template <typename Core>
int run_campaign(Core& core, comm::Context* comm_ctx, state::State& xi,
                 const CampaignOptions& options) {
  const mesh::LatLonMesh mesh(core.config().nx, core.config().ny,
                              core.config().nz);
  const double fdt = options.forcing_dt > 0.0 ? options.forcing_dt
                                              : core.config().dt_advect;
  const double t0 = options.start_time_seconds >= 0.0
                        ? options.start_time_seconds
                        : options.start_step * core.config().dt_advect;
  int executed = 0;
  HealthSentinel sentinel(options.health);
  // One span per campaign (= per attempt) frames this rank's timeline in
  // the merged trace: everything the step loop does — steps, forcing,
  // diagnostics, yield barriers, checkpoint writes — nests inside it.
  obs::Span campaign_span;
  if (comm_ctx != nullptr)
    campaign_span = comm_ctx->tracer().span("campaign", "core");
  for (int step = options.start_step + 1; step <= options.steps; ++step) {
    core.step(xi);
    if (options.forcing != nullptr) {
      obs::Span fsp;
      if (comm_ctx != nullptr)
        fsp = comm_ctx->tracer().span("forcing", "compute");
      options.forcing->apply(xi, fdt);
    }
    ++executed;
    if (options.on_step_state)
      options.on_step_state(step - options.start_step - 1, xi);

    const bool checkpoint_due = options.checkpoint_every > 0 &&
                                step % options.checkpoint_every == 0;
    // Sentinel check: at the cadence, before EVERY checkpoint write (so
    // an unhealthy state is never persisted or replicated — containment,
    // not just detection), and at the final step (a completed job's
    // gathered state is verified).  Absolute-step cadence, like the
    // diagnostics/checkpoint cadences: a resumed run checks at exactly
    // the steps an uninterrupted one would.  The throw happens BEFORE
    // the yield allreduce below, and on every rank of the same step
    // (identical reduced verdict), so no rank is stranded mid-collective.
    if (options.health.enabled() &&
        (step % options.health.cadence == 0 || checkpoint_due ||
         step == options.steps)) {
      obs::Span hs;
      if (comm_ctx != nullptr) {
        hs = comm_ctx->tracer().span("health_check", "core");
        comm_ctx->stats().set_phase(util::Phase::kHealth);
      }
      GlobalDiag d = local_diagnostics(core.op_context(), xi);
      if (comm_ctx != nullptr)
        d = reduce_diagnostics(*comm_ctx, comm_ctx->world(), d);
      const std::string verdict = sentinel.check(d);
      if (!verdict.empty()) {
        if (comm_ctx != nullptr)
          comm_ctx->tracer().instant("health_trip", "core", verdict);
        throw NumericalError(step, verdict);
      }
    }

    if (options.diag_every > 0 && step % options.diag_every == 0 &&
        options.on_diagnostics) {
      GlobalDiag d = local_diagnostics(core.op_context(), xi);
      if (comm_ctx != nullptr)
        d = reduce_diagnostics(*comm_ctx, comm_ctx->world(), d);
      options.on_diagnostics(step, d);
    }

    if (checkpoint_due) {
      const int rank = comm_ctx != nullptr ? comm_ctx->world_rank() : 0;
      const double t =
          t0 + (step - options.start_step) * core.config().dt_advect;
      // The collective yield decision runs BEFORE the checkpoint write:
      // the allreduce doubles as a barrier, so if a rank died this step
      // the survivors unwind here (PeerDeadError) without ever writing a
      // checkpoint one step ahead of the dead rank's last file — resume
      // always finds a consistent per-rank checkpoint set.  The barrier
      // therefore runs at EVERY multi-rank checkpoint, including the
      // final step and when no yield callback is installed: skipping it
      // there would let a rank death at the last checkpointed step leave
      // a mixed-step file set that can never resume.
      // Every rank contributes its local flag and all stop together iff
      // any rank wants to (a yield past the last step is meaningless, so
      // those checkpoints contribute 0 and only keep the barrier).
      const bool may_yield =
          options.should_yield != nullptr && step < options.steps;
      double want = may_yield && options.should_yield() ? 1.0 : 0.0;
      if (comm_ctx != nullptr && comm_ctx->world().size() > 1) {
        double agreed = 0.0;
        comm_ctx->stats().set_phase(util::Phase::kService);
        comm::allreduce<double>(*comm_ctx, comm_ctx->world(),
                                std::span<const double>(&want, 1),
                                std::span<double>(&agreed, 1),
                                comm::ReduceOp::kMax);
        want = agreed;
      }
      const bool yield_now = want > 0.0 && step < options.steps;
      // Cores with cross-step carry state (the CA core's deferred
      // smoothing and stale C products) provide save_carry; the blob
      // rides in the checkpoint's v3 extension block, CRC-guarded, so a
      // resumed run restores the full algorithmic state, not just the
      // prognostic fields.  Detected with `requires` like the finalize /
      // refresh_halos hooks.
      std::vector<std::byte> carry;
      if constexpr (requires(util::CarryWriter& w) { core.save_carry(w); }) {
        util::CarryWriter w;
        core.save_carry(w);
        carry = w.take();
      }
      {
        obs::Span ck;
        if (comm_ctx != nullptr)
          ck = comm_ctx->tracer().span("checkpoint_write", "checkpoint");
        // The sentinel check above gated this write, so a sentinel-on
        // checkpoint is verified-healthy by construction.
        const std::uint32_t verdict = options.health.enabled() ? 1u : 0u;
        if (options.write_checkpoint)
          options.write_checkpoint(mesh, xi, step, t, carry, verdict);
        else
          util::write_checkpoint(
              util::checkpoint_path(options.checkpoint_prefix, rank), mesh,
              core.decomp(), xi, step, t, carry, verdict);
      }
      if (yield_now) break;
    }
  }
  return executed;
}

}  // namespace ca::core
