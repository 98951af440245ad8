#include "perf/cost.hpp"

#include <algorithm>

namespace ca::perf {
namespace {

double ceil_log2(int p) {
  int rounds = 0;
  int span = 1;
  while (span < p) {
    span <<= 1;
    ++rounds;
  }
  return static_cast<double>(rounds);
}

}  // namespace

double ring_allreduce_time(const MachineModel& m, int p, std::size_t bytes) {
  if (p <= 1) return 0.0;
  const double rounds = 2.0 * (p - 1);
  const double volume =
      2.0 * static_cast<double>(p - 1) / p * static_cast<double>(bytes);
  return rounds * (m.alpha + m.collective_round_overhead) + m.beta * volume;
}

double recursive_doubling_allreduce_time(const MachineModel& m, int p,
                                         std::size_t bytes) {
  if (p <= 1) return 0.0;
  const double rounds = ceil_log2(p);
  return rounds * (m.alpha + m.collective_round_overhead +
                   m.beta * static_cast<double>(bytes));
}

double allreduce_time(const MachineModel& m, int p, std::size_t bytes) {
  if (p <= 1) return 0.0;
  return std::min(ring_allreduce_time(m, p, bytes),
                  recursive_doubling_allreduce_time(m, p, bytes));
}

std::size_t ring_allreduce_bytes(int p, std::size_t bytes) {
  if (p <= 1) return 0;
  return 2 * static_cast<std::size_t>(p - 1) * bytes /
         static_cast<std::size_t>(p);
}

}  // namespace ca::perf
