// Micro-benchmarks of the message-passing runtime (google-benchmark):
// point-to-point latency/bandwidth, the allreduce algorithm variants, and
// the halo exchange engine.
#include <benchmark/benchmark.h>

#include "comm/collectives.hpp"
#include "comm/fault.hpp"
#include "comm/runtime.hpp"
#include "comm/topology.hpp"
#include "core/dycore_config.hpp"
#include "core/exchange.hpp"
#include "mesh/decomp.hpp"

namespace {

using namespace ca;

void BM_PingPong(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    comm::Runtime::run(2, [n](comm::Context& ctx) {
      std::vector<double> buf(n, 1.0);
      const auto& w = ctx.world();
      for (int round = 0; round < 8; ++round) {
        if (ctx.world_rank() == 0) {
          ctx.send_values<double>(w, 1, 0, buf);
          ctx.recv_values<double>(w, 1, 1, buf);
        } else {
          ctx.recv_values<double>(w, 0, 0, buf);
          ctx.send_values<double>(w, 0, 1, buf);
        }
      }
    });
  }
  state.SetBytesProcessed(state.iterations() * 16 *
                          static_cast<long>(n * sizeof(double)));
}
BENCHMARK(BM_PingPong)->Arg(16)->Arg(1024)->Arg(65536);

void BM_AllreduceRing(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  const std::size_t n = 4096;
  for (auto _ : state) {
    comm::Runtime::run(p, [n](comm::Context& ctx) {
      std::vector<double> in(n, 1.0), out(n);
      comm::allreduce<double>(ctx, ctx.world(), in, out,
                              comm::ReduceOp::kSum,
                              comm::AllreduceAlgorithm::kRing);
    });
  }
}
BENCHMARK(BM_AllreduceRing)->Arg(2)->Arg(4)->Arg(8);

void BM_AllreduceRecursiveDoubling(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  const std::size_t n = 4096;
  for (auto _ : state) {
    comm::Runtime::run(p, [n](comm::Context& ctx) {
      std::vector<double> in(n, 1.0), out(n);
      comm::allreduce<double>(ctx, ctx.world(), in, out,
                              comm::ReduceOp::kSum,
                              comm::AllreduceAlgorithm::kRecursiveDoubling);
    });
  }
}
BENCHMARK(BM_AllreduceRecursiveDoubling)->Arg(2)->Arg(4)->Arg(8);

void BM_HaloExchangeShallow(benchmark::State& state) {
  for (auto _ : state) {
    comm::Runtime::run(4, [](comm::Context& ctx) {
      mesh::LatLonMesh mesh(48, 32, 8);
      auto topo = comm::make_cart(ctx, ctx.world(), {1, 2, 2},
                                  {true, false, false});
      mesh::DomainDecomp d(mesh, {1, 2, 2}, topo.coords);
      state::State s(d.lnx(), d.lny(), d.lnz(), core::halos_for_depth(1));
      s.fill(1.0);
      core::HaloExchanger ex(ctx, topo);
      std::vector<core::ExchangeItem> items{
          {&s.u(), nullptr, 0, 2, 1},
          {&s.v(), nullptr, 0, 2, 1},
          {&s.phi(), nullptr, 0, 2, 1},
          {nullptr, &s.psa(), 0, 3, 0}};
      for (int round = 0; round < 4; ++round) ex.exchange(items);
    });
  }
}
BENCHMARK(BM_HaloExchangeShallow);

void BM_HaloExchangeDeep(benchmark::State& state) {
  // The CA deep exchange: 3M+1-wide halos in one round.
  for (auto _ : state) {
    comm::Runtime::run(2, [](comm::Context& ctx) {
      mesh::LatLonMesh mesh(48, 32, 8);
      auto topo = comm::make_cart(ctx, ctx.world(), {1, 2, 1},
                                  {true, false, false});
      mesh::DomainDecomp d(mesh, {1, 2, 1}, topo.coords);
      state::State s(d.lnx(), d.lny(), d.lnz(), core::halos_for_depth(9));
      s.fill(1.0);
      core::HaloExchanger ex(ctx, topo);
      std::vector<core::ExchangeItem> items{
          {&s.u(), nullptr, 0, 10, 0},
          {&s.v(), nullptr, 0, 10, 0},
          {&s.phi(), nullptr, 0, 10, 0},
          {nullptr, &s.psa(), 0, 11, 0}};
      for (int round = 0; round < 4; ++round) ex.exchange(items);
    });
  }
}
BENCHMARK(BM_HaloExchangeDeep);

// Fault-injection overhead probes: compare BM_PingPong (no RunOptions at
// all) against the same traffic with (a) a null/disabled plan — this must
// be indistinguishable from the baseline — and (b) an active plan with
// zero-probability rules, which pays the per-message stamping (seq,
// checksum) and the receiver poll bookkeeping but injects nothing.
void pingpong_under(benchmark::State& state, const comm::RunOptions& opts) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    comm::Runtime::run(2, opts, [n](comm::Context& ctx) {
      std::vector<double> buf(n, 1.0);
      const auto& w = ctx.world();
      for (int round = 0; round < 8; ++round) {
        if (ctx.world_rank() == 0) {
          ctx.send_values<double>(w, 1, 0, buf);
          ctx.recv_values<double>(w, 1, 1, buf);
        } else {
          ctx.recv_values<double>(w, 0, 0, buf);
          ctx.send_values<double>(w, 0, 1, buf);
        }
      }
    });
  }
  state.SetBytesProcessed(state.iterations() * 16 *
                          static_cast<long>(n * sizeof(double)));
}

void BM_PingPongFaultLayerDisabled(benchmark::State& state) {
  pingpong_under(state, comm::RunOptions{});
}
BENCHMARK(BM_PingPongFaultLayerDisabled)->Arg(16)->Arg(1024)->Arg(65536);

void BM_PingPongFaultLayerArmedZeroProb(benchmark::State& state) {
  comm::FaultPlan plan(1);
  comm::FaultRule r;
  r.kind = comm::FaultKind::kDrop;
  r.probability = 0.0;  // armed but never fires
  plan.add_rule(r);
  comm::RunOptions opts;
  opts.faults = &plan;
  pingpong_under(state, opts);
}
BENCHMARK(BM_PingPongFaultLayerArmedZeroProb)->Arg(16)->Arg(1024)->Arg(65536);

void BM_CommunicatorSplit(benchmark::State& state) {
  for (auto _ : state) {
    comm::Runtime::run(8, [](comm::Context& ctx) {
      auto sub = ctx.split(ctx.world(), ctx.world_rank() % 2,
                           ctx.world_rank());
      benchmark::DoNotOptimize(sub.size());
    });
  }
}
BENCHMARK(BM_CommunicatorSplit);

}  // namespace

BENCHMARK_MAIN();
