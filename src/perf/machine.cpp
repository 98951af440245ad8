#include "perf/machine.hpp"

namespace ca::perf {

MachineModel MachineModel::tianhe2() {
  // Calibrated against the paper's measured speedups (EXPERIMENTS.md):
  // alpha is the EFFECTIVE per-message cost at scale — MPI software
  // overhead plus the synchronization noise of 24 ranks per node on the
  // 2013-era system — and beta the effective per-rank bandwidth when all
  // ranks of a node drive the shared NIC simultaneously.
  MachineModel m;
  m.alpha = 1.5e-4;
  m.beta = 1.0 / 2.5e8;
  m.flop_time = 1.0 / 4.0e9;
  m.collective_round_overhead = 2.0e-5;
  m.recv_overhead = 1.0e-5;
  return m;
}

}  // namespace ca::perf
