#include "service/runner.hpp"

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
        std::vector<std::byte> carry;
        const std::string path =
            util::checkpoint_path(checkpoint_prefix, ctx.world_rank());
        // --- RAM replicas first.  Each rank parses its own freshest
        // CRC-valid copy, then the world agrees the set is uniform: a
        // usable RAM restore needs EVERY rank at the SAME step (the
        // survivors' self copies plus the victim's buddy copy).  Any
        // gap, mismatch, or corruption drops the whole world to disk
        // together — never a RAM/disk mix.
        std::int64_t ram_step = -1;
        double ram_time = 0.0;
        if (o.replicas != nullptr) {
          if (auto img =
                  o.replicas->fetch(checkpoint_prefix, ctx.world_rank())) {
            try {
              const auto hdr = util::parse_checkpoint_image(
                  img->bytes, mesh, core.decomp(), xi, &carry,
                  "replica of rank " +
                      std::to_string(ctx.world_rank()));
              if (hdr.step >= start_step && hdr.step <= spec.steps) {
                ram_step = hdr.step;
                ram_time = hdr.time_seconds;
              }
            } catch (const std::exception& e) {
              ram_step = -1;
              ctx.tracer().instant("ram_restore_fallback", "checkpoint",
                                   e.what());
            }
          }
          if (ram_step >= 0 &&
              restore_unhealthy(o.health, core.op_context(), xi)) {
            // Poisoned replica: reject it and purge the job's replica
            // set (every copy records the same poisoned trajectory).
            // The agreement below then drops the whole world to disk,
            // where the chain can rewind past the poison.
            ram_step = -1;
            ctx.tracer().instant(
                "ram_restore_unhealthy", "checkpoint",
                "replica of rank " + std::to_string(ctx.world_rank()) +
                    " failed the health check");
            o.replicas->erase_prefix(checkpoint_prefix);
          }
          if (ctx.world().size() > 1) {
            const double local[2] = {static_cast<double>(ram_step),
                                     -static_cast<double>(ram_step)};
            double agreed[2] = {local[0], local[1]};
            ctx.stats().set_phase(util::Phase::kService);
            comm::allreduce<double>(ctx, ctx.world(),
                                    std::span<const double>(local, 2),
                                    std::span<double>(agreed, 2),
                                    comm::ReduceOp::kMax);
            if (agreed[0] != -agreed[1] || agreed[0] < 0.0)
              ram_step = -1;
          }
        }
        std::int64_t hdr_step = 0;
        double hdr_time = 0.0;
        if (ram_step >= 0) {
          hdr_step = ram_step;
          hdr_time = ram_time;
          source = RestoreSource::kRam;
        } else {
          carry.clear();
          auto chain = util::read_checkpoint_chain(path, mesh,
                                                   core.decomp(), xi,
                                                   &carry);
          hdr_step = chain.header.step;
          hdr_time = chain.header.time_seconds;
          if (chain.truncated_by_corruption) {
            // The chain fell back to its last intact element.  That is
            // a survivable, silent data-loss event — exactly what the
            // flight recorder exists to surface.
            ctx.tracer().instant(
                "checkpoint_chain_fallback", "checkpoint",
                "chain for job '" + spec.name +
                    "' truncated by corruption at step " +
                    std::to_string(hdr_step));
            ctx.tracer().dump_flight(
                "checkpoint chain truncated by corruption");
          }
          if (ctx.world().size() > 1) {
            const double local[2] = {static_cast<double>(hdr_step),
                                     -static_cast<double>(hdr_step)};
            double agreed[2] = {local[0], local[1]};
            ctx.stats().set_phase(util::Phase::kService);
            comm::allreduce<double>(ctx, ctx.world(),
                                    std::span<const double>(local, 2),
                                    std::span<double>(agreed, 2),
                                    comm::ReduceOp::kMax);
            const auto min_tip =
                static_cast<std::int64_t>(-agreed[1]);
            const auto max_tip = static_cast<std::int64_t>(agreed[0]);
            if (min_tip != max_tip) {
              // Mixed tips.  With delta chains this is recoverable:
              // ranks that checkpointed past the minimum rewind their
              // chain to the common step.  The rewind attempt is made
              // on every ahead rank and its success is agreed
              // collectively, so either ALL ranks proceed from min_tip
              // or ALL ranks fail the attempt together (a rank that
              // threw alone would leave its peers hung in the next
              // collective until the heartbeat timeout).
              double fail = 0.0;
              if (hdr_step != min_tip) {
                try {
                  carry.clear();
                  auto rewound = util::read_checkpoint_chain(
                      path, mesh, core.decomp(), xi, &carry,
                      {.max_step = min_tip});
                  hdr_step = rewound.header.step;
                  hdr_time = rewound.header.time_seconds;
                  if (rewound.truncated_by_corruption) {
                    ctx.tracer().instant(
                        "checkpoint_chain_fallback", "checkpoint",
                        "rewound chain for job '" + spec.name +
                            "' truncated by corruption at step " +
                            std::to_string(hdr_step));
                    ctx.tracer().dump_flight(
                        "checkpoint chain truncated by corruption");
                  }
                } catch (const std::exception&) {
                  fail = 1.0;
                }
              }
              double any_fail = 0.0;
              comm::allreduce<double>(
                  ctx, ctx.world(), std::span<const double>(&fail, 1),
                  std::span<double>(&any_fail, 1), comm::ReduceOp::kMax);
              if (any_fail > 0.0)
                throw std::runtime_error(
                    "inconsistent checkpoint set for job '" + spec.name +
                    "': rank headers record steps " +
                    std::to_string(min_tip) + ".." +
                    std::to_string(max_tip) +
                    "; no common state to resume");
            }
          }
          // Poisoned-tip rewind, collectively agreed: the ranks now
          // hold a uniform-step set, so they run identical iterations
          // of this loop — each round every rank contributes its local
          // health verdict (a NaN lives on ONE rank), and if any is
          // poisoned ALL ranks rewind one checkpoint cadence together.
          // Either all proceed from a healthy common step or all fail
          // the attempt together.
          while (true) {
            double bad = restore_unhealthy(o.health, core.op_context(),
                                           xi)
                             ? 1.0
                             : 0.0;
            double any_bad = bad;
            if (ctx.world().size() > 1) {
              ctx.stats().set_phase(util::Phase::kService);
              comm::allreduce<double>(
                  ctx, ctx.world(), std::span<const double>(&bad, 1),
                  std::span<double>(&any_bad, 1), comm::ReduceOp::kMax);
            }
            if (any_bad == 0.0) break;
            const std::int64_t target = hdr_step - spec.checkpoint_every;
            double fail = 0.0;
            if (spec.checkpoint_every <= 0 || target < start_step ||
                target <= 0) {
              fail = 1.0;
            } else {
              try {
                carry.clear();
                const auto rewound = util::read_checkpoint_chain(
                    path, mesh, core.decomp(), xi, &carry,
                    {.max_step = target});
                hdr_step = rewound.header.step;
                hdr_time = rewound.header.time_seconds;
              } catch (const std::exception&) {
                fail = 1.0;
              }
            }
            double any_fail = fail;
            if (ctx.world().size() > 1)
              comm::allreduce<double>(
                  ctx, ctx.world(), std::span<const double>(&fail, 1),
                  std::span<double>(&any_fail, 1), comm::ReduceOp::kMax);
            if (any_fail > 0.0)
              throw std::runtime_error(
                  "no healthy checkpoint to resume job '" + spec.name +
                  "': the chain tip and every rewindable element "
                  "failed the health check");
            ctx.tracer().instant(
                "checkpoint_tip_poisoned", "checkpoint",
                "rewound chain for job '" + spec.name + "' to step " +
                    std::to_string(hdr_step) +
                    " past a health-check failure");
          }
          source = RestoreSource::kDisk;
        }
        // Header-step agreement first: the carry is per-rank data tied
        // to the agreed step, so a mixed-step file set fails before any
        // rank restores state from it.
        resume = check_resume_step(hdr_step, start_step, spec,
                                   hdr_time);
        // Cores with cross-step carry state (the CA core) restore it
        // from the checkpoint's CRC-guarded v3 block; a checkpoint
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
