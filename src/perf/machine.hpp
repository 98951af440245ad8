// Alpha-beta machine model used by the schedule-level performance
// simulator.  The paper's evaluation platform is Tianhe-2 (Intel Ivy
// Bridge nodes, TH Express-2 interconnect, customized MPICH 3.1); the
// tianhe2() preset is calibrated so the full-scale simulated runs land in
// the regime the paper reports (see EXPERIMENTS.md).
#pragma once

namespace ca::perf {

struct MachineModel {
  /// Point-to-point message latency [s] (software + network injection).
  double alpha = 2.0e-6;
  /// Transfer time per byte [s/B] (inverse effective bandwidth).
  double beta = 1.0e-9;
  /// Time per double-precision floating-point operation [s] per rank.
  double flop_time = 1.0e-10;
  /// Extra per-round latency of collectives relative to p2p (software
  /// overhead of the collective algorithm's phases).
  double collective_round_overhead = 1.0e-6;
  /// Receiver-side software overhead per message (the LogGP 'o' at the
  /// receiving end; charged when a waitall consumes messages).
  double recv_overhead = 0.0;

  /// Tianhe-2-like EFFECTIVE parameters calibrated against the paper's
  /// measured speedups (EXPERIMENTS.md): 150 us per message (MPI software
  /// cost + synchronization noise with 24 ranks per node), 250 MB/s
  /// effective per-rank bandwidth under full-node load, 4 Gflop/s per
  /// rank on the stencil code.
  static MachineModel tianhe2();
};

}  // namespace ca::perf
