#include "util/timer.hpp"

#include <iterator>

namespace ca::util {
namespace {

// In Phase order.
constexpr const char* kPhaseNames[] = {
    "default",        "stencil",        "collective",     "service",
    "replicate",      "health",         "compute",        "exchange",
    "exchange_wait",  "step",           "ops.local_diag", "ops.column",
    "ops.adaptation", "ops.advection",  "ops.filter",     "ops.smoothing",
    "core.update",    "core.boundary_fill"};
static_assert(std::size(kPhaseNames) == kPhaseCount);

}  // namespace

const char* phase_name(Phase p) {
  return kPhaseNames[static_cast<std::size_t>(p)];
}

PhaseStats& PhaseStats::operator+=(const PhaseStats& o) {
  seconds += o.seconds;
  p2p_messages += o.p2p_messages;
  p2p_bytes += o.p2p_bytes;
  collective_calls += o.collective_calls;
  collective_bytes += o.collective_bytes;
  return *this;
}

double PhaseRecord::total(std::string_view name) const {
  for (std::size_t i = 0; i < kPhaseCount; ++i)
    if (name == kPhaseNames[i]) return stats_[i].seconds;
  return 0.0;
}

PhaseStats PhaseRecord::sum() const {
  PhaseStats s;
  for (const PhaseStats& p : stats_) s += p;
  return s;
}

}  // namespace ca::util
