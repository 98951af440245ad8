#include "service/runner.hpp"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/collectives.hpp"
#include "comm/error.hpp"
#include "comm/runtime.hpp"
#include "core/ca_core.hpp"
#include "core/campaign.hpp"
#include "core/exchange.hpp"
#include "core/original_core.hpp"
#include "core/serial_core.hpp"
#include "obs/trace.hpp"
#include "physics/held_suarez.hpp"
#include "service/replica.hpp"
#include "util/checkpoint.hpp"
#include "util/timer.hpp"

namespace ca::service {
namespace {

core::CampaignOptions campaign_options(
    const JobSpec& spec, int start_step, double start_time_seconds,
    const std::string& prefix, const physics::HeldSuarezForcing* forcing,
    const std::function<bool()>& should_yield) {
  core::CampaignOptions opt;
  opt.steps = spec.steps;
  opt.start_step = start_step;
  opt.start_time_seconds = start_time_seconds;
  opt.checkpoint_every = spec.checkpoint_every;
  opt.checkpoint_prefix = prefix;
  if (spec.held_suarez) {
    opt.forcing = forcing;
    opt.forcing_dt = spec.forcing_dt;
  }
  if (spec.checkpoint_every > 0) opt.should_yield = should_yield;
  return opt;
}

/// The step/time a resumed attempt actually starts from: the checkpoint
/// header's, not the pool's yield mark.  A failed attempt may have
/// checkpointed PAST the last yield before dying; its files then record a
/// later step than the pool's steps_done, and re-running the gap on top of
/// the later state would silently diverge from the solo run.
struct ResumePoint {
  int step = 0;
  double time_seconds = -1.0;
};

ResumePoint check_resume_step(std::int64_t header_step, int start_step,
                              const JobSpec& spec, double time_seconds) {
  if (header_step < start_step || header_step > spec.steps)
    throw std::runtime_error(
        "checkpoint step " + std::to_string(header_step) +
        " outside the resumable range [" + std::to_string(start_step) +
        ", " + std::to_string(spec.steps) + "] for job '" + spec.name +
        "'");
  return {static_cast<int>(header_step), time_seconds};
}

/// Executes a kCorruptState injection: pokes one owned interior cell of
/// the chosen prognostic field.  Cell (0,0,0) is always inside the
/// region local_diagnostics scans, so the sentinel sees the poison at
/// its next check (<= health.cadence steps later).
void poke_state(state::State& xi, const comm::FaultPlan::StateFault& sf) {
  double v = std::numeric_limits<double>::quiet_NaN();
  if (sf.mode == 1) v = std::numeric_limits<double>::infinity();
  if (sf.mode == 2) v = 1.0e30;  // finite but far past every bound
  switch (sf.field) {
    case 1: xi.v()(0, 0, 0) = v; break;
    case 2: xi.phi()(0, 0, 0) = v; break;
    case 3: xi.psa()(0, 0) = v; break;
    default: xi.u()(0, 0, 0) = v; break;
  }
}

/// Local (unreduced) health verdict on a just-restored state: the static
/// bounds/finiteness check only — growth needs a trajectory, a restore
/// has a single snapshot.  Per-rank: a NaN lives on ONE rank, so callers
/// fold the verdict into their collective source agreement.
bool restore_unhealthy(const core::HealthOptions& health,
                       const ops::OpContext& op_ctx,
                       const state::State& xi) {
  if (!health.enabled()) return false;
  const core::GlobalDiag d = core::local_diagnostics(op_ctx, xi);
  return !core::HealthSentinel::check_static(health, d).empty();
}

}  // namespace

AttemptResult run_attempt(const JobSpec& spec, const AttemptOptions& o) {
  AttemptResult res;
  const int attempt = o.attempt;
  const int start_step = o.start_step;
  const std::string& checkpoint_prefix = o.checkpoint_prefix;
  const std::function<bool()>& should_yield = o.should_yield;
  const std::array<int, 3> dims =
      o.dims == std::array<int, 3>{0, 0, 0} ? spec.dims : o.dims;
  const int nranks = dims[0] * dims[1] * dims[2];

  // Per-attempt plan: same rules, reseeded so the deterministic injector
  // treats retries as a fresh fault environment (transient faults).
  comm::FaultPlan plan(spec.faults.seed() +
                       static_cast<std::uint64_t>(attempt - 1));
  if (spec.faults.enabled())
    for (const auto& rule : spec.faults.rules()) plan.add_rule(rule);
  // Node-resident faults: the spec scopes them to POOL rank ids; only the
  // rules whose node actually backs one of this attempt's ranks apply,
  // remapped to the job-local world rank.  After the pool quarantines the
  // faulty node, the retry's assignment excludes it and the rule drops.
  for (const auto& rule : spec.node_faults) {
    int job_rank = -1;
    if (o.pool_ranks.empty()) {
      job_rank = rule.src;
    } else {
      for (std::size_t i = 0; i < o.pool_ranks.size(); ++i)
        if (o.pool_ranks[i] == rule.src) {
          job_rank = static_cast<int>(i);
          break;
        }
    }
    if (job_rank < 0 || job_rank >= nranks) continue;
    comm::FaultRule r = rule;
    r.src = job_rank;
    plan.add_rule(r);
  }
  // Attempt-scoped rules (corrupt_state defaults to attempt 1) need the
  // plan to know which attempt this is: fixed-step rules are immune to
  // the reseed above, so the scope is what makes them transient.
  plan.set_attempt(attempt);
  const bool inject = plan.enabled();

  util::Timer timer;
  try {
    comm::RunOptions opts = spec.comm;
    opts.faults = inject ? &plan : nullptr;
    opts.obs = o.obs;
    opts.trace_sink = o.trace_sink;
    opts.trace_pid = o.trace_pid;
    std::mutex mu;
    auto drive = [&](auto& core, comm::Context& ctx) {
      auto xi = core.make_state();
      ResumePoint resume;
      RestoreSource source = RestoreSource::kNone;
      double restore_s = 0.0;
      if (start_step > 0) {
        obs::Span restore_span = ctx.tracer().span("restore", "checkpoint");
        util::Timer restore_timer;
        const mesh::LatLonMesh mesh(spec.config.nx, spec.config.ny,
                                    spec.config.nz);
        const int rank = ctx.world_rank();
        const std::string path =
            util::checkpoint_path(checkpoint_prefix, rank);
        std::vector<std::byte> carry;
        // One agreed restore.  Each round every rank loads ONE candidate
        // -- its RAM replica first (when replication is on), then its disk
        // chain at `target` (-1 = the tip) -- and judges it locally: it
        // parses with its CRC checked, its step lies in [start_step,
        // spec.steps], and (sentinel on) it passes the static health
        // check.  One allreduce(max) of {failing rank + 1, step, -step,
        // unhealthy} then gives every rank the same verdict, so the world
        // restores, rewinds or fails together: never a RAM/disk or
        // mixed-step set, and never a rank left in a collective waiting
        // for a peer that already gave up.
        bool ram = o.replicas != nullptr;
        std::int64_t target = -1;
        std::string why = "cannot resume job '" + spec.name + "'";
        while (true) {
          std::string error;  // nonempty = this rank's candidate is invalid
          bool unhealthy = false;
          carry.clear();
          try {
            util::CheckpointHeader hdr;
            if (ram) {
              const auto img = o.replicas->fetch(checkpoint_prefix, rank);
              if (!img) throw std::runtime_error("no RAM replica");
              hdr = util::parse_checkpoint_image(
                  img->bytes, mesh, core.decomp(), xi, &carry,
                  "replica of rank " + std::to_string(rank));
            } else {
              const auto chain = util::read_checkpoint_chain(
                  path, mesh, core.decomp(), xi, &carry,
                  {.max_step = target});
              hdr = chain.header;
              if (chain.truncated_by_corruption) {
                // The chain fell back to its last intact element: a
                // survivable, silent data-loss event -- exactly what the
                // flight recorder exists to surface.
                ctx.tracer().instant(
                    "checkpoint_chain_fallback", "checkpoint",
                    "chain for job '" + spec.name +
                        "' truncated by corruption at step " +
                        std::to_string(hdr.step));
                ctx.tracer().dump_flight(
                    "checkpoint chain truncated by corruption");
              }
            }
            resume = check_resume_step(hdr.step, start_step, spec,
                                       hdr.time_seconds);
            unhealthy = restore_unhealthy(o.health, core.op_context(), xi);
          } catch (const std::exception& e) {
            error = e.what();
            if (ram)
              ctx.tracer().instant("ram_restore_fallback", "checkpoint",
                                   error);
          }
          if (ram && unhealthy) {
            // Poisoned replica: every copy records the same poisoned
            // trajectory, so purge the job's replica set; the disk chain
            // can rewind past the poison.
            ctx.tracer().instant("ram_restore_unhealthy", "checkpoint",
                                 "replica of rank " + std::to_string(rank) +
                                     " failed the health check");
            o.replicas->erase_prefix(checkpoint_prefix);
          }
          const double local[4] = {
              error.empty() ? 0.0 : rank + 1.0,
              static_cast<double>(resume.step),
              -static_cast<double>(resume.step), unhealthy ? 1.0 : 0.0};
          double agreed[4];
          ctx.stats().set_phase(util::Phase::kService);
          comm::allreduce<double>(ctx, ctx.world(), local, agreed,
                                  comm::ReduceOp::kMax);
          const auto max_step = static_cast<std::int64_t>(agreed[1]);
          const auto min_step = static_cast<std::int64_t>(-agreed[2]);
          const bool valid = agreed[0] == 0.0;
          const bool healthy = agreed[3] == 0.0;
          if (ram) {
            // A RAM restore needs EVERY rank valid, healthy and at the
            // same step; anything else sends the whole world to disk.
            ram = false;
            if (valid && healthy && min_step == max_step) {
              source = RestoreSource::kRam;
              break;
            }
            continue;
          }
          if (!valid) {
            const int bad = static_cast<int>(agreed[0]) - 1;
            std::string msg = why + ": rank " + std::to_string(bad) +
                              " has no usable checkpoint";
            if (target >= 0) msg += " at step " + std::to_string(target);
            if (bad == rank) msg += " (" + error + ")";
            throw std::runtime_error(msg);
          }
          if (min_step != max_step) {
            // Mixed tips: ranks that checkpointed past the minimum rewind
            // their delta chain to the common step.
            target = min_step;
            why = "inconsistent checkpoint set for job '" + spec.name +
                  "': rank headers record steps " +
                  std::to_string(min_step) + ".." +
                  std::to_string(max_step);
            continue;
          }
          if (!healthy) {
            // Poisoned tip: every rank rewinds one checkpoint cadence.
            target = resume.step - spec.checkpoint_every;
            if (spec.checkpoint_every <= 0 ||
                target < std::max(start_step, 1))
              throw std::runtime_error(
                  "no healthy checkpoint to resume job '" + spec.name +
                  "': the chain tip and every rewindable element "
                  "failed the health check");
            ctx.tracer().instant(
                "checkpoint_tip_poisoned", "checkpoint",
                "rewinding chain for job '" + spec.name + "' to step " +
                    std::to_string(target) +
                    " past a health-check failure");
            why = "no healthy checkpoint to resume job '" + spec.name +
                  "': rewinding past a health-check failure";
            continue;
          }
          source = RestoreSource::kDisk;
          break;
        }
        // Cores with cross-step carry state (the CA core) restore it
        // from the agreed checkpoint's CRC-guarded v3 block; a checkpoint
        // without one cannot reproduce the trajectory bitwise, so the
        // attempt fails loudly instead of resuming quietly wrong.
        if constexpr (requires(util::CarryReader& r) {
                        core.restore_carry(r);
                      }) {
          if (carry.empty())
            throw std::runtime_error(
                "checkpoint for job '" + spec.name +
                "' has no core-carry block; it was not written by a "
                "carry-bearing core and cannot resume one bitwise");
          util::CarryReader r(carry);
          core.restore_carry(r);
        }
        core.refresh_halos(xi);
        restore_s = restore_timer.seconds();
      } else {
        core.initialize(xi, spec.initial);
      }
      const physics::HeldSuarezForcing forcing(core.op_context());
      auto opt =
          campaign_options(spec, resume.step, resume.time_seconds,
                           checkpoint_prefix, &forcing, should_yield);
      opt.health = o.health;
      util::CheckpointSession session(
          util::checkpoint_path(checkpoint_prefix, ctx.world_rank()),
          {.chain_cap = o.delta_chain,
           .block_bytes = o.delta_block_bytes});
      if (o.delta_chain > 0 || o.replicas != nullptr) {
        opt.write_checkpoint =
            [&core, &session, &o, &checkpoint_prefix, &ctx](
                const mesh::LatLonMesh& m, const state::State& s,
                std::int64_t step, double t,
                std::span<const std::byte> carry, std::uint32_t health) {
              session.write(m, core.decomp(), s, step, t, carry, health);
              if (o.replicas != nullptr)
                replicate_checkpoint(ctx, *o.replicas, checkpoint_prefix,
                                     step, t, session.image());
            };
      }
      if (inject) {
        const int my_rank = ctx.world_rank();
        opt.on_step_state = [&plan, my_rank](int idx, state::State& s) {
          const auto sf =
              plan.state_fault(my_rank, static_cast<std::uint64_t>(idx));
          if (sf.fire) poke_state(s, sf);
        };
      }
      const int executed = core::run_campaign(core, &ctx, xi, opt);
      const int end = resume.step + executed;
      const bool completed = end == spec.steps;
      state::State global;
      if (completed) {
        // The CA core defers the last step's final smoothing; apply it
        // before the gather so the result is the finished trajectory.
        // A core without a topology owns the whole domain already.
        if constexpr (requires { core.finalize(xi); }) core.finalize(xi);
        if constexpr (requires { core.topology(); })
          global = core::gather_global(core.op_context(), ctx,
                                       core.topology(), xi);
        else
          global = std::move(xi);
      }
      std::lock_guard<std::mutex> lock(mu);
      res.comm += ctx.stats().grand_totals();
      if (restore_s > res.restore_seconds) res.restore_seconds = restore_s;
      if (ctx.world_rank() == 0) {
        res.end_step = end;
        res.yielded = !completed;
        if (completed) res.global = std::move(global);
        res.restored_from = source;
      }
    };
    comm::Runtime::run(nranks, opts, [&](comm::Context& ctx) {
      if (spec.core == CoreKind::kOriginal) {
        core::OriginalCore core(spec.config, ctx, spec.scheme, dims);
        drive(core, ctx);
      } else if (spec.core == CoreKind::kCA) {
        core::CACore core(spec.config, ctx, dims, spec.ca_options);
        drive(core, ctx);
      } else {
        core::SerialCore core(spec.config, &ctx);
        drive(core, ctx);
      }
    });
  } catch (const comm::RankKilledError& e) {
    res.error = e.what();
    res.yielded = false;
    res.dead_rank = e.rank;
  } catch (const comm::PeerDeadError& e) {
    // Both the watchdogged survivors and a woken-up hung rank surface
    // PeerDeadError naming the rank that started the collapse.
    res.error = e.what();
    res.yielded = false;
    res.dead_rank = e.rank;
  } catch (const core::NumericalError& e) {
    // Every rank of a distributed run throws this together (the verdict
    // derives from the allreduced diagnostics); the runtime joins them
    // all and rethrows the first, so one catch = one incident.
    res.error = e.what();
    res.yielded = false;
    res.numeric = true;
    res.numeric_step = e.step;
    if (inject)
      plan.counters().detected_numeric.fetch_add(
          1, std::memory_order_relaxed);
  } catch (const std::exception& e) {
    res.error = e.what();
    res.yielded = false;
  }
  res.run_seconds = timer.seconds();
  if (inject) res.faults = plan.summary();
  return res;
}

}  // namespace ca::service
