// In-memory checkpoint replication: the RAM half of the recovery path.
//
// Every checkpoint cadence, each rank of a replicated job deposits its
// own full checkpoint image into the pool's ReplicaStore (the node-local
// RAM cache a surviving node keeps across attempts) and streams a copy
// to its ring buddy, rank (r+1) % n, over the job's own comm runtime —
// so rank r's latest state lives in two nodes' memory.  When the pool
// re-runs a job after a rank death, the runner restores from the store
// first and touches the on-disk checkpoint only when the RAM set is
// incomplete (the victim AND its buddy both died), stale, or fails CRC:
// the disk path written every cadence stays the bitwise-identical
// fallback.  A dead rank's deposits are invalidated by the pool (its RAM
// died with it); the buddy copy it pushed to the survivor is what makes
// the victim recoverable without disk I/O.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "comm/context.hpp"

namespace ca::service {

/// One rank's checkpoint image as held in a (surviving) node's RAM.
struct ReplicaImage {
  std::int64_t step = 0;
  double time_seconds = 0.0;
  int depositor = -1;  ///< job-local rank whose RAM holds this copy
  std::uint32_t crc = 0;
  std::vector<std::byte> bytes;  ///< full v3 checkpoint image
};

/// Pool-owned, thread-safe map (job prefix, job-local rank) -> replica
/// copies.  Up to one copy per depositor is kept (self + buddy in the
/// ring scheme); fetch() returns the freshest copy whose CRC still
/// matches, so RAM bit-rot degrades to the disk path instead of feeding
/// a corrupt image to the restore.
class ReplicaStore {
 public:
  void deposit(const std::string& prefix, int rank, int depositor,
               std::int64_t step, double time_seconds,
               std::vector<std::byte> bytes);

  /// The freshest CRC-valid image for (prefix, rank); null when none
  /// survives.  Returns a shared handle, not a copy: restores fetch from
  /// every rank at once and the images can be large.  Deposits never
  /// mutate a published image (they replace the map slot), so the handle
  /// stays valid and stable even if the depositor refreshes its copy.
  std::shared_ptr<const ReplicaImage> fetch(const std::string& prefix,
                                            int rank) const;

  /// Drops every copy `depositor` holds under `prefix` — called when
  /// that rank dies or hangs: memory on a dead node is gone, and memory
  /// on a hung node cannot be trusted.
  void invalidate_depositor(const std::string& prefix, int depositor);

  /// Drops all of a job's images (terminal job, or a reshard that
  /// changes every rank's block shape).
  void erase_prefix(const std::string& prefix);

  std::uint64_t deposits() const;
  std::uint64_t stored_bytes() const;

  /// Test hook: flip one byte of every stored copy for (prefix, rank)
  /// WITHOUT updating the CRC, simulating RAM bit-rot; fetch() must then
  /// reject the copies and recovery must fall back to disk.
  void corrupt_for_test(const std::string& prefix, int rank);

 private:
  mutable std::mutex mu_;
  /// key: prefix, rank, depositor.  Values are immutable once published
  /// (corrupt_for_test excepted); fetch hands out the shared_ptr.
  std::map<std::tuple<std::string, int, int>, std::shared_ptr<ReplicaImage>>
      images_;
  std::uint64_t deposits_ = 0;
};

/// The per-cadence replication exchange, run by every rank of the job
/// right after its checkpoint write (the campaign's yield allreduce has
/// already barriered the cadence): deposit the own image, send it to
/// ring buddy (r+1) % n, and store the image received from ward
/// (r-1+n) % n.  Single-rank worlds (serial jobs) only self-deposit.
/// Traffic is charged to the "replicate" comm phase (stats + wall-clock
/// timer).
void replicate_checkpoint(comm::Context& ctx, ReplicaStore& store,
                          const std::string& prefix, std::int64_t step,
                          double time_seconds,
                          const std::vector<std::byte>& image);

}  // namespace ca::service
