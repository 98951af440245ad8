// Restart demo: run the Held-Suarez configuration through the campaign
// driver, checkpoint mid-run, then resume with CampaignOptions::start_step
// into fresh cores and verify the continuation is bitwise transparent —
// the operational pattern long climate runs (and the ensemble service's
// preemption) ride on.  Exits nonzero on any divergence.
//
//   ./restart_demo [steps=6] [ranks=2]
#include <cstdio>
#include <filesystem>

#include "comm/runtime.hpp"
#include "core/campaign.hpp"
#include "core/exchange.hpp"
#include "core/original_core.hpp"
#include "physics/held_suarez.hpp"
#include "util/checkpoint.hpp"
#include "util/config.hpp"

int main(int argc, char** argv) {
  using namespace ca;
  const auto cfg_in = util::Config::from_args(argc, argv);
  const int steps = cfg_in.get_int("steps", 6);
  const int ranks = cfg_in.get_int("ranks", 2);
  const int half = steps / 2;

  core::DycoreConfig cfg;
  cfg.nx = 36;
  cfg.ny = 24;
  cfg.nz = 10;
  cfg.M = 3;
  const std::string prefix =
      (std::filesystem::temp_directory_path() / "ca_agcm_restart_demo")
          .string();

  std::printf("Restart demo: %d + %d steps vs %d straight steps, %d ranks\n",
              half, steps - half, steps, ranks);

  // Reference: one uninterrupted campaign.
  state::State straight;
  comm::Runtime::run(ranks, [&](comm::Context& ctx) {
    core::OriginalCore core(cfg, ctx, core::DecompScheme::kYZ,
                            {1, ranks, 1});
    physics::HeldSuarezForcing forcing(core.op_context());
    auto xi = core.make_state();
    core.initialize(xi, {.kind = state::InitialCondition::kZonalJet});
    core::CampaignOptions opt;
    opt.steps = steps;
    opt.forcing = &forcing;
    core::run_campaign(core, &ctx, xi, opt);
    auto g = core::gather_global(core.op_context(), ctx, core.topology(),
                                 xi);
    if (ctx.world_rank() == 0) straight = std::move(g);
  });

  // Interrupted run: the first campaign checkpoints at `half` and ends
  // (a preempted service job stops exactly like this).
  comm::Runtime::run(ranks, [&](comm::Context& ctx) {
    core::OriginalCore core(cfg, ctx, core::DecompScheme::kYZ,
                            {1, ranks, 1});
    physics::HeldSuarezForcing forcing(core.op_context());
    auto xi = core.make_state();
    core.initialize(xi, {.kind = state::InitialCondition::kZonalJet});
    core::CampaignOptions opt;
    opt.steps = half;
    opt.forcing = &forcing;
    opt.checkpoint_every = half;
    opt.checkpoint_prefix = prefix;
    core::run_campaign(core, &ctx, xi, opt);
    if (ctx.world_rank() == 0)
      std::printf("  checkpointed at step %d -> %s.rank*.ckpt\n", half,
                  prefix.c_str());
  });

  // A "new job": restore, then resume the SAME campaign via start_step —
  // absolute step numbering and forwarded model time come straight from
  // the checkpoint header.
  state::State restarted;
  bool resumed_ok = true;
  comm::Runtime::run(ranks, [&](comm::Context& ctx) {
    core::OriginalCore core(cfg, ctx, core::DecompScheme::kYZ,
                            {1, ranks, 1});
    physics::HeldSuarezForcing forcing(core.op_context());
    auto xi = core.make_state();
    mesh::LatLonMesh mesh(cfg.nx, cfg.ny, cfg.nz);
    const auto hdr = util::read_checkpoint(
        util::checkpoint_path(prefix, ctx.world_rank()), mesh,
        core.decomp(), xi);
    core.refresh_halos(xi);
    core::CampaignOptions opt;
    opt.steps = steps;
    opt.start_step = static_cast<int>(hdr.step);
    opt.start_time_seconds = hdr.time_seconds;
    opt.forcing = &forcing;
    const int executed = core::run_campaign(core, &ctx, xi, opt);
    if (executed != steps - half) resumed_ok = false;
    auto g = core::gather_global(core.op_context(), ctx, core.topology(),
                                 xi);
    if (ctx.world_rank() == 0) restarted = std::move(g);
    std::remove(util::checkpoint_path(prefix, ctx.world_rank()).c_str());
  });

  if (!resumed_ok) {
    std::fprintf(stderr,
                 "FAIL: resumed campaign executed the wrong step count\n");
    return 1;
  }
  const double diff = state::State::max_abs_diff(straight, restarted,
                                                 straight.interior());
  std::printf("  max |straight - restarted| = %.3e %s\n", diff,
              diff == 0.0 ? "(bitwise transparent)" : "(NOT transparent!)");
  if (diff != 0.0) {
    std::fprintf(stderr,
                 "FAIL: a start_step resume must be bitwise transparent\n");
    return 1;
  }
  return 0;
}
