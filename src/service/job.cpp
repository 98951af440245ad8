#include "service/job.hpp"

#include <algorithm>

#include "core/step_plan.hpp"
#include "mesh/latlon.hpp"

namespace ca::service {

const char* to_string(JobState s) {
  switch (s) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kPreempted:
      return "preempted";
    case JobState::kBackoff:
      return "backoff";
    case JobState::kCompleted:
      return "completed";
    case JobState::kFailed:
      return "failed";
  }
  return "unknown";
}

const char* to_string(CoreKind k) {
  switch (k) {
    case CoreKind::kSerial:
      return "serial";
    case CoreKind::kOriginal:
      return "original";
    case CoreKind::kCA:
      return "ca";
  }
  return "unknown";
}

std::string validate(const JobSpec& spec, int rank_budget) {
  const auto& c = spec.config;
  if (spec.steps <= 0) return "steps must be positive";
  if (c.nx < 4 || c.ny < 4 || c.nz < 1) return "mesh too small";
  for (int d : spec.dims)
    if (d < 1) return "process grid dims must be positive";
  const int p = spec.ranks();
  if (p > rank_budget)
    return "job needs " + std::to_string(p) + " ranks but the pool owns " +
           std::to_string(rank_budget);
  if (spec.core == CoreKind::kSerial) {
    if (p != 1) return "serial jobs must use dims {1,1,1}";
  } else {
    // Mirror the distributed cores' constructor checks so a bad grid is
    // rejected here instead of killing a worker's rank group.
    const int py = spec.dims[1], pz = spec.dims[2];
    if (c.ny / std::max(1, py) < 1 || c.nz / std::max(1, pz) < 1)
      return "process grid exceeds the mesh";
    if (spec.core == CoreKind::kCA) {
      if (spec.dims[0] != 1) return "CA jobs require px == 1 (Y-Z scheme)";
      if (c.M < 2) return "CA jobs require M >= 2";
      const mesh::LatLonMesh mesh(c.nx, c.ny, c.nz);
      const core::CALayout layout = core::ca_layout(
          mesh::DomainDecomp(mesh, spec.dims, {0, 0, 0}), c.M,
          spec.ca_options);
      if (py > 1 && c.ny / py < layout.min_lny())
        return "CA jobs need ny/py >= 3M + 1 for the deep y halos";
      if (pz > 1 && c.nz / pz < layout.min_lnz())
        return "CA jobs need nz/pz >= 3 for the advection z halos";
    }
    if (spec.core == CoreKind::kOriginal &&
        spec.scheme == core::DecompScheme::kXY && spec.dims[2] != 1)
      return "X-Y scheme jobs require pz == 1";
  }
  for (const auto& r : spec.node_faults) {
    if (r.kind != comm::FaultKind::kKillRank &&
        r.kind != comm::FaultKind::kHangRank)
      return "node_faults may only carry kill_rank/hang_rank rules";
    if (r.src < 0 || r.src >= rank_budget)
      return "node_faults src must be a pool rank id in [0, " +
             std::to_string(rank_budget) + ")";
  }
  if (spec.max_attempts < 1) return "max_attempts must be >= 1";
  if (spec.retry_backoff_seconds < 0.0)
    return "retry_backoff_seconds must be >= 0";
  if (spec.checkpoint_every < 0) return "checkpoint_every must be >= 0";
  if (spec.deadline_seconds < 0.0) return "deadline_seconds must be >= 0";
  return {};
}

}  // namespace ca::service
