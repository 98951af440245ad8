// The campaign driver: step counting, diagnostics cadence, forcing
// application, checkpoint cadence, and core-type genericity.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdio>
#include <filesystem>
#include <vector>

#include "comm/runtime.hpp"
#include "core/ca_core.hpp"
#include "core/campaign.hpp"
#include "core/exchange.hpp"
#include "core/original_core.hpp"
#include "core/serial_core.hpp"

namespace ca::core {
namespace {

DycoreConfig cfg() {
  DycoreConfig c;
  c.nx = 24;
  c.ny = 16;
  c.nz = 8;
  c.M = 2;
  return c;
}

TEST(Campaign, DiagnosticsCadenceSerial) {
  SerialCore core(cfg());
  auto xi = core.make_state();
  core.initialize(xi, {.kind = state::InitialCondition::kZonalJet});
  std::vector<int> seen;
  CampaignOptions opt;
  opt.steps = 6;
  opt.diag_every = 2;
  opt.on_diagnostics = [&](int step, const GlobalDiag& d) {
    seen.push_back(step);
    EXPECT_TRUE(std::isfinite(d.total_energy()));
    EXPECT_GT(d.quad_energy, 0.0);
  };
  EXPECT_EQ(run_campaign(core, nullptr, xi, opt), 6);
  EXPECT_EQ(seen, (std::vector<int>{2, 4, 6}));
}

TEST(Campaign, ForcingIsApplied) {
  // With H-S forcing a jet decays in the boundary layer relative to an
  // unforced run.
  SerialCore core_a(cfg()), core_b(cfg());
  auto xa = core_a.make_state();
  auto xb = core_b.make_state();
  core_a.initialize(xa, {.kind = state::InitialCondition::kZonalJet});
  core_b.initialize(xb, {.kind = state::InitialCondition::kZonalJet});

  CampaignOptions unforced;
  unforced.steps = 3;
  run_campaign(core_a, nullptr, xa, unforced);

  physics::HeldSuarezForcing forcing(core_b.op_context());
  CampaignOptions forced;
  forced.steps = 3;
  forced.forcing = &forcing;
  forced.forcing_dt = 20.0 * 86400.0;  // exaggerate to make it visible
  run_campaign(core_b, nullptr, xb, forced);

  const double diff =
      state::State::max_abs_diff(xa, xb, xa.interior());
  EXPECT_GT(diff, 1e-3) << "the forcing must change the evolution";
}

TEST(Campaign, CheckpointCadenceDistributed) {
  const auto prefix = (std::filesystem::temp_directory_path() /
                       "ca_agcm_campaign")
                          .string();
  comm::Runtime::run(2, [&](comm::Context& ctx) {
    OriginalCore core(cfg(), ctx, DecompScheme::kYZ, {1, 2, 1});
    auto xi = core.make_state();
    core.initialize(xi, {.kind = state::InitialCondition::kPlanetaryWave});
    CampaignOptions opt;
    opt.steps = 4;
    opt.checkpoint_every = 4;
    opt.checkpoint_prefix = prefix;
    run_campaign(core, &ctx, xi, opt);

    // The checkpoint must reload into the same block.
    auto restored = core.make_state();
    mesh::LatLonMesh mesh(cfg().nx, cfg().ny, cfg().nz);
    const auto hdr = util::read_checkpoint(
        util::checkpoint_path(prefix, ctx.world_rank()), mesh,
        core.decomp(), restored);
    EXPECT_EQ(hdr.step, 4);
    EXPECT_DOUBLE_EQ(
        state::State::max_abs_diff(xi, restored, xi.interior()), 0.0);
    std::remove(util::checkpoint_path(prefix, ctx.world_rank()).c_str());
  });
}

TEST(Campaign, WorksWithCACore) {
  comm::Runtime::run(2, [&](comm::Context& ctx) {
    CACore core(cfg(), ctx, {1, 2, 1});
    auto xi = core.make_state();
    core.initialize(xi, {.kind = state::InitialCondition::kZonalJet});
    int calls = 0;
    CampaignOptions opt;
    opt.steps = 3;
    opt.diag_every = 1;
    opt.on_diagnostics = [&](int, const GlobalDiag& d) {
      ++calls;
      EXPECT_TRUE(std::isfinite(d.total_energy()));
    };
    run_campaign(core, &ctx, xi, opt);
    EXPECT_EQ(calls, 3);
    core.finalize(xi);
  });
}

TEST(Campaign, ResumeOffsetMatchesStraightRun) {
  // 4 steps straight == 2 steps + checkpoint + a resumed campaign with
  // start_step = 2, bit for bit; checkpoint times forward correctly.
  const auto c = cfg();
  SerialCore straight(c);
  auto xs = straight.make_state();
  straight.initialize(xs, {.kind = state::InitialCondition::kPlanetaryWave});
  CampaignOptions all;
  all.steps = 4;
  EXPECT_EQ(run_campaign(straight, nullptr, xs, all), 4);

  const auto prefix = (std::filesystem::temp_directory_path() /
                       "ca_agcm_campaign_resume")
                          .string();
  SerialCore first(c);
  auto xi = first.make_state();
  first.initialize(xi, {.kind = state::InitialCondition::kPlanetaryWave});
  CampaignOptions half;
  half.steps = 2;
  half.checkpoint_every = 2;
  half.checkpoint_prefix = prefix;
  EXPECT_EQ(run_campaign(first, nullptr, xi, half), 2);

  SerialCore second(c);
  auto xr = second.make_state();
  mesh::LatLonMesh mesh(c.nx, c.ny, c.nz);
  const auto hdr = util::read_checkpoint(util::checkpoint_path(prefix, 0),
                                         mesh, second.decomp(), xr);
  EXPECT_EQ(hdr.step, 2);
  EXPECT_DOUBLE_EQ(hdr.time_seconds, 2 * c.dt_advect);
  second.fill_boundaries(xr);
  CampaignOptions rest;
  rest.steps = 4;
  rest.start_step = 2;
  rest.start_time_seconds = hdr.time_seconds;
  rest.checkpoint_every = 2;
  rest.checkpoint_prefix = prefix;
  EXPECT_EQ(run_campaign(second, nullptr, xr, rest), 2);

  EXPECT_DOUBLE_EQ(state::State::max_abs_diff(xs, xr, xs.interior()), 0.0)
      << "a resumed campaign must be bitwise transparent";

  // The resumed campaign's checkpoint carries the absolute step and the
  // forwarded model time.
  auto again = second.make_state();
  const auto hdr2 = util::read_checkpoint(util::checkpoint_path(prefix, 0),
                                          mesh, second.decomp(), again);
  EXPECT_EQ(hdr2.step, 4);
  EXPECT_DOUBLE_EQ(hdr2.time_seconds, 4 * c.dt_advect);
  std::remove(util::checkpoint_path(prefix, 0).c_str());
}

TEST(Campaign, YieldStopsAtTheNextCheckpointBoundary) {
  const auto c = cfg();
  const auto prefix = (std::filesystem::temp_directory_path() /
                       "ca_agcm_campaign_yield")
                          .string();
  SerialCore core(c);
  auto xi = core.make_state();
  core.initialize(xi, {.kind = state::InitialCondition::kZonalJet});
  CampaignOptions opt;
  opt.steps = 6;
  opt.checkpoint_every = 2;
  opt.checkpoint_prefix = prefix;
  opt.should_yield = [] { return true; };
  // An immediate yield request stops the campaign at the first
  // checkpoint, not before it and not at the end.
  EXPECT_EQ(run_campaign(core, nullptr, xi, opt), 2);

  // Resuming without a yield finishes the remaining steps and lands on
  // the straight-run state.
  SerialCore ref(c);
  auto xref = ref.make_state();
  ref.initialize(xref, {.kind = state::InitialCondition::kZonalJet});
  CampaignOptions all;
  all.steps = 6;
  run_campaign(ref, nullptr, xref, all);

  CampaignOptions rest;
  rest.steps = 6;
  rest.start_step = 2;
  rest.checkpoint_every = 2;
  rest.checkpoint_prefix = prefix;
  EXPECT_EQ(run_campaign(core, nullptr, xi, rest), 4);
  EXPECT_DOUBLE_EQ(state::State::max_abs_diff(xi, xref, xi.interior()),
                   0.0);
  std::remove(util::checkpoint_path(prefix, 0).c_str());
}

TEST(Campaign, YieldDecisionIsCollective) {
  // Only rank 0 asks to yield; the allreduce must stop BOTH ranks at the
  // same checkpoint (a one-sided stop would deadlock the next exchange).
  const auto prefix = (std::filesystem::temp_directory_path() /
                       "ca_agcm_campaign_collective")
                          .string();
  std::array<int, 2> executed{-1, -1};
  comm::Runtime::run(2, [&](comm::Context& ctx) {
    OriginalCore core(cfg(), ctx, DecompScheme::kYZ, {1, 2, 1});
    auto xi = core.make_state();
    core.initialize(xi, {.kind = state::InitialCondition::kPlanetaryWave});
    CampaignOptions opt;
    opt.steps = 4;
    opt.checkpoint_every = 1;
    opt.checkpoint_prefix = prefix;
    opt.should_yield = [&] { return ctx.world_rank() == 0; };
    executed[static_cast<std::size_t>(ctx.world_rank())] =
        run_campaign(core, &ctx, xi, opt);
    std::remove(util::checkpoint_path(prefix, ctx.world_rank()).c_str());
  });
  EXPECT_EQ(executed[0], 1);
  EXPECT_EQ(executed[1], 1) << "rank 1 did not honor rank 0's yield";
}

TEST(Campaign, CAPreemptedAtEveryCheckpointIsBitwise) {
  // The tentpole contract of CA resumability: the CA core carries state
  // across steps (deferred final smoothing, stale C anchors, the step
  // counter driving the refresh parity), so resuming from the prognostic
  // payload alone diverges.  With the carry riding in the checkpoint's
  // v3 block, a campaign preempted at EVERY checkpoint — each leg a
  // freshly constructed core — must land bit-for-bit on the
  // uninterrupted run.
  const auto c = cfg();
  const auto prefix = (std::filesystem::temp_directory_path() /
                       "ca_agcm_campaign_ca_resume")
                          .string();
  constexpr int kSteps = 6;
  state::State straight, legged;

  comm::Runtime::run(2, [&](comm::Context& ctx) {
    CACore core(c, ctx, {1, 2, 1});
    auto xi = core.make_state();
    core.initialize(xi, {.kind = state::InitialCondition::kPlanetaryWave});
    CampaignOptions all;
    all.steps = kSteps;
    EXPECT_EQ(run_campaign(core, &ctx, xi, all), kSteps);
    core.finalize(xi);
    auto g = gather_global(core.op_context(), ctx, core.topology(), xi);
    if (ctx.world_rank() == 0) straight = std::move(g);
  });

  comm::Runtime::run(2, [&](comm::Context& ctx) {
    const mesh::LatLonMesh mesh(c.nx, c.ny, c.nz);
    int reached = 0;
    {
      CACore core(c, ctx, {1, 2, 1});
      auto xi = core.make_state();
      core.initialize(xi,
                      {.kind = state::InitialCondition::kPlanetaryWave});
      CampaignOptions first;
      first.steps = kSteps;
      first.checkpoint_every = 1;
      first.checkpoint_prefix = prefix;
      first.should_yield = [] { return true; };
      reached = run_campaign(core, &ctx, xi, first);
      EXPECT_EQ(reached, 1);
    }
    // Every later leg: a FRESH core restores the prognostics from the
    // payload and the cross-step carry from the v3 block, then is
    // preempted again at the very next checkpoint.
    while (reached < kSteps) {
      CACore core(c, ctx, {1, 2, 1});
      auto xi = core.make_state();
      std::vector<std::byte> carry;
      const auto hdr = util::read_checkpoint(
          util::checkpoint_path(prefix, ctx.world_rank()), mesh,
          core.decomp(), xi, &carry);
      EXPECT_EQ(hdr.step, reached);
      ASSERT_FALSE(carry.empty()) << "CA checkpoint lost its carry block";
      util::CarryReader r(carry);
      core.restore_carry(r);
      core.refresh_halos(xi);
      CampaignOptions leg;
      leg.steps = kSteps;
      leg.start_step = static_cast<int>(hdr.step);
      leg.start_time_seconds = hdr.time_seconds;
      leg.checkpoint_every = 1;
      leg.checkpoint_prefix = prefix;
      leg.should_yield = [] { return true; };
      const int executed = run_campaign(core, &ctx, xi, leg);
      EXPECT_EQ(executed, 1);
      reached += executed;
      if (reached == kSteps) {
        core.finalize(xi);
        auto g =
            gather_global(core.op_context(), ctx, core.topology(), xi);
        if (ctx.world_rank() == 0) legged = std::move(g);
      }
    }
    std::remove(util::checkpoint_path(prefix, ctx.world_rank()).c_str());
  });

  ASSERT_GT(straight.interior().volume(), 0);
  EXPECT_DOUBLE_EQ(
      state::State::max_abs_diff(straight, legged, straight.interior()),
      0.0)
      << "a CA campaign preempted at every checkpoint must reproduce the "
         "uninterrupted run bit for bit";
}

TEST(Campaign, CheckpointBarrierRunsAtEveryCheckpoint) {
  // The yield allreduce doubles as the consistency barrier that keeps a
  // rank death from producing a mixed-step checkpoint set (survivors
  // unwind with PeerDeadError before writing a file one step ahead of
  // the dead rank's).  It must run at EVERY multi-rank checkpoint —
  // final step included, yield callback installed or not — because a
  // death at the last checkpointed step is just as unresumable.
  const auto prefix = (std::filesystem::temp_directory_path() /
                       "ca_agcm_campaign_barrier")
                          .string();
  comm::Runtime::run(2, [&](comm::Context& ctx) {
    OriginalCore core(cfg(), ctx, DecompScheme::kYZ, {1, 2, 1});
    auto xi = core.make_state();
    core.initialize(xi, {.kind = state::InitialCondition::kPlanetaryWave});
    CampaignOptions opt;
    opt.steps = 4;
    opt.checkpoint_every = 2;  // checkpoints at step 2 and the final step 4
    opt.checkpoint_prefix = prefix;
    // Deliberately no should_yield: the barrier must not depend on it.
    EXPECT_EQ(run_campaign(core, &ctx, xi, opt), 4);
    EXPECT_EQ(
        ctx.stats().phase_totals(util::Phase::kService).collective_calls, 2u)
        << "expected one consistency-barrier allreduce per checkpoint";
    std::remove(util::checkpoint_path(prefix, ctx.world_rank()).c_str());
  });
}

TEST(Campaign, ZeroStepsIsANoop) {
  SerialCore core(cfg());
  auto xi = core.make_state();
  core.initialize(xi, {.kind = state::InitialCondition::kZonalJet});
  auto before = core.make_state();
  before.assign(xi, xi.interior());
  CampaignOptions opt;  // steps = 0
  EXPECT_EQ(run_campaign(core, nullptr, xi, opt), 0);
  EXPECT_DOUBLE_EQ(state::State::max_abs_diff(xi, before, xi.interior()),
                   0.0);
}

}  // namespace
}  // namespace ca::core
