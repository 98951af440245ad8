// Closed-form communication costs of the primitives the dynamical core
// uses, in the alpha-beta model.  These are the per-call costs the event
// simulator charges for collective operations, and they follow the
// algorithms of Thakur, Rabenseifner & Gropp [19] that src/comm implements.
#pragma once

#include <cstddef>

#include "perf/machine.hpp"

namespace ca::perf {

/// Ring allreduce over p ranks of a `bytes`-byte vector:
/// 2(p-1) rounds, 2*(p-1)/p*bytes moved per rank.
double ring_allreduce_time(const MachineModel& m, int p, std::size_t bytes);

/// Recursive-doubling allreduce: ceil(log2 p) rounds of full-vector
/// exchange.
double recursive_doubling_allreduce_time(const MachineModel& m, int p,
                                         std::size_t bytes);

/// Cost-optimal allreduce choice (mirrors comm::allreduce kAuto).
double allreduce_time(const MachineModel& m, int p, std::size_t bytes);

/// Bytes a rank sends during a ring allreduce (for volume accounting).
std::size_t ring_allreduce_bytes(int p, std::size_t bytes);

}  // namespace ca::perf
