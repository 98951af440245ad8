// Fault-injection determinism: the same seed and the same FaultPlan must
// produce a bitwise-identical execution — identical final values on every
// rank AND an identical injection pattern — across two runs, for every
// allreduce algorithm.  Faults must also stay transparent: the faulty
// result equals the fault-free one bit for bit.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "comm/collectives.hpp"
#include "comm/context.hpp"
#include "comm/fault.hpp"
#include "comm/runtime.hpp"
#include "core/ca_core.hpp"
#include "core/exchange.hpp"

namespace ca::comm {
namespace {

constexpr int kRanks = 4;
constexpr std::size_t kN = 64;

FaultPlan test_plan(std::uint64_t seed) {
  FaultPlan plan(seed);
  auto add = [&](FaultKind kind, double p, int param) {
    FaultRule r;
    r.kind = kind;
    r.probability = p;
    r.param = param;
    plan.add_rule(r);
  };
  add(FaultKind::kDrop, 0.15, 1);
  add(FaultKind::kDuplicate, 0.15, 1);
  add(FaultKind::kDelay, 0.15, 2);
  return plan;
}

/// Runs one allreduce on kRanks ranks under `opts` and returns the
/// per-rank output vectors.
std::vector<std::vector<double>> run_allreduce(AllreduceAlgorithm alg,
                                               const RunOptions& opts) {
  std::vector<std::vector<double>> results(kRanks);
  Runtime::run(kRanks, opts, [&](Context& ctx) {
    std::vector<double> in(kN), out(kN);
    for (std::size_t i = 0; i < kN; ++i)
      in[i] = 1.0 + 0.37 * static_cast<double>(i) +
              1.3 * static_cast<double>(ctx.world_rank());
    allreduce<double>(ctx, ctx.world(), in, out, ReduceOp::kSum, alg);
    results[static_cast<std::size_t>(ctx.world_rank())] = std::move(out);
  });
  return results;
}

bool bitwise_equal(const std::vector<std::vector<double>>& a,
                   const std::vector<std::vector<double>>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t r = 0; r < a.size(); ++r) {
    if (a[r].size() != b[r].size()) return false;
    if (std::memcmp(a[r].data(), b[r].data(),
                    a[r].size() * sizeof(double)) != 0)
      return false;
  }
  return true;
}

bool same_injections(const FaultSummary& x, const FaultSummary& y) {
  return x.injected_delay == y.injected_delay &&
         x.injected_duplicate == y.injected_duplicate &&
         x.injected_drop == y.injected_drop &&
         x.injected_corrupt == y.injected_corrupt &&
         x.injected_stall == y.injected_stall;
}

class AllreduceDeterminism
    : public ::testing::TestWithParam<AllreduceAlgorithm> {};

TEST_P(AllreduceDeterminism, SameSeedSameFaultPlanIsBitwiseIdentical) {
  const AllreduceAlgorithm alg = GetParam();
  constexpr std::uint64_t kSeed = 777;

  const auto clean = run_allreduce(alg, RunOptions{});

  FaultPlan plan_a = test_plan(kSeed);
  RunOptions opts_a;
  opts_a.faults = &plan_a;
  const auto run_a = run_allreduce(alg, opts_a);

  FaultPlan plan_b = test_plan(kSeed);
  RunOptions opts_b;
  opts_b.faults = &plan_b;
  const auto run_b = run_allreduce(alg, opts_b);

  EXPECT_GT(plan_a.summary().injected_total(), 0u)
      << "plan injected nothing; determinism claim is vacuous";
  EXPECT_TRUE(same_injections(plan_a.summary(), plan_b.summary()))
      << "identical seeds produced different fault patterns";
  EXPECT_TRUE(bitwise_equal(run_a, run_b))
      << "two runs with the same FaultPlan diverged";
  EXPECT_TRUE(bitwise_equal(run_a, clean))
      << "recovered faults changed the allreduce result";
}

INSTANTIATE_TEST_SUITE_P(
    Algorithms, AllreduceDeterminism,
    ::testing::Values(AllreduceAlgorithm::kRing,
                      AllreduceAlgorithm::kRecursiveDoubling,
                      AllreduceAlgorithm::kLinearOrdered),
    [](const ::testing::TestParamInfo<AllreduceAlgorithm>& i) {
      switch (i.param) {
        case AllreduceAlgorithm::kRing: return "ring";
        case AllreduceAlgorithm::kRecursiveDoubling: return "rd";
        case AllreduceAlgorithm::kLinearOrdered: return "linear";
        default: return "auto";
      }
    });

TEST(CACoreDeterminism, SameFaultSeedReproducesFinalStateBitwise) {
  core::DycoreConfig cfg;
  cfg.nx = 24;
  cfg.ny = 16;
  cfg.nz = 8;
  cfg.M = 2;
  cfg.dt_adapt = 30.0;
  cfg.dt_advect = 120.0;
  cfg.z_allreduce = AllreduceAlgorithm::kLinearOrdered;
  constexpr int kSteps = 2;

  auto run_once = [&](FaultPlan* plan) {
    state::State global;
    RunOptions opts;
    opts.faults = plan;
    Runtime::run(2, opts, [&](Context& ctx) {
      core::CACore core(cfg, ctx, {1, 2, 1});
      auto xi = core.make_state();
      state::InitialOptions init;
      init.kind = state::InitialCondition::kPlanetaryWave;
      core.initialize(xi, init);
      core.run(xi, kSteps);
      auto g = core::gather_global(core.op_context(), ctx, core.topology(),
                                   xi);
      if (ctx.world_rank() == 0) global = std::move(g);
    });
    return global;
  };

  FaultPlan plan_a = test_plan(99);
  const state::State a = run_once(&plan_a);
  FaultPlan plan_b = test_plan(99);
  const state::State b = run_once(&plan_b);

  EXPECT_GT(plan_a.summary().injected_total(), 0u);
  EXPECT_TRUE(same_injections(plan_a.summary(), plan_b.summary()));
  const double diff = state::State::max_abs_diff(a, b, a.interior());
  EXPECT_EQ(diff, 0.0)
      << "same fault seed must reproduce the final state bit for bit";
}

}  // namespace
}  // namespace ca::comm
