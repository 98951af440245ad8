#include "service/replica.hpp"

#include <algorithm>
#include <climits>
#include <utility>

#include "util/checkpoint.hpp"

namespace ca::service {
namespace {

/// Replication rides the same internal tag space as the collectives.
constexpr int kTagReplicaHeader = comm::kInternalTagBase + 32;
constexpr int kTagReplicaBody = comm::kInternalTagBase + 33;

struct ReplicaWireHeader {
  std::int64_t step = 0;
  double time_seconds = 0.0;
  std::uint64_t bytes = 0;
};
static_assert(sizeof(ReplicaWireHeader) == 24);

}  // namespace

void ReplicaStore::deposit(const std::string& prefix, int rank,
                           int depositor, std::int64_t step,
                           double time_seconds,
                           std::vector<std::byte> bytes) {
  auto img = std::make_shared<ReplicaImage>();
  img->step = step;
  img->time_seconds = time_seconds;
  img->depositor = depositor;
  img->crc = util::crc32(bytes);
  img->bytes = std::move(bytes);
  std::lock_guard<std::mutex> lk(mu_);
  images_[{prefix, rank, depositor}] = std::move(img);
  ++deposits_;
}

std::shared_ptr<const ReplicaImage> ReplicaStore::fetch(
    const std::string& prefix, int rank) const {
  // Restores fetch from every rank at once, so the CRC validation (a
  // full pass over the image) runs OUTSIDE the lock: grab a shared
  // handle to the freshest candidate, verify, and only re-enter the
  // lock for the next one when RAM bit-rot invalidated the copy.
  // Depositors are unique per (prefix, rank) key, so rejection is
  // tracked by depositor.  No image bytes are ever copied.
  std::vector<int> rejected;
  for (;;) {
    std::shared_ptr<const ReplicaImage> candidate;
    {
      std::lock_guard<std::mutex> lk(mu_);
      for (auto it = images_.lower_bound({prefix, rank, INT_MIN});
           it != images_.end() && std::get<0>(it->first) == prefix &&
           std::get<1>(it->first) == rank;
           ++it) {
        const auto& img = it->second;
        if (std::find(rejected.begin(), rejected.end(), img->depositor) !=
            rejected.end())
          continue;  // already failed CRC
        if (candidate == nullptr || img->step > candidate->step)
          candidate = img;
      }
    }
    if (candidate == nullptr) return nullptr;
    if (util::crc32(candidate->bytes) == candidate->crc) return candidate;
    rejected.push_back(candidate->depositor);  // RAM bit rot: next copy
  }
}

void ReplicaStore::invalidate_depositor(const std::string& prefix,
                                        int depositor) {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto it = images_.begin(); it != images_.end();) {
    if (std::get<0>(it->first) == prefix &&
        std::get<2>(it->first) == depositor)
      it = images_.erase(it);
    else
      ++it;
  }
}

void ReplicaStore::erase_prefix(const std::string& prefix) {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto it = images_.begin(); it != images_.end();) {
    if (std::get<0>(it->first) == prefix)
      it = images_.erase(it);
    else
      ++it;
  }
}

std::uint64_t ReplicaStore::deposits() const {
  std::lock_guard<std::mutex> lk(mu_);
  return deposits_;
}

std::uint64_t ReplicaStore::stored_bytes() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::uint64_t total = 0;
  for (const auto& [key, img] : images_) total += img->bytes.size();
  return total;
}

void ReplicaStore::corrupt_for_test(const std::string& prefix, int rank) {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& [key, img] : images_) {
    if (std::get<0>(key) != prefix || std::get<1>(key) != rank) continue;
    if (!img->bytes.empty()) img->bytes[0] ^= std::byte{0x01};
  }
}

void replicate_checkpoint(comm::Context& ctx, ReplicaStore& store,
                          const std::string& prefix, std::int64_t step,
                          double time_seconds,
                          const std::vector<std::byte>& image) {
  const int me = ctx.world_rank();
  // The node-local self copy: a SURVIVING rank's latest state never has
  // to come back off disk just because a sibling died.
  store.deposit(prefix, me, me, step, time_seconds, image);
  const comm::Communicator& w = ctx.world();
  const int n = w.size();
  if (n < 2) return;
  const int buddy = (me + 1) % n;        // receives my image
  const int ward = (me + n - 1) % n;     // I hold its image
  ctx.stats().set_phase(util::Phase::kReplicate);
  obs::Span span = ctx.tracer().phase_span(util::Phase::kReplicate);
  const ReplicaWireHeader out{step, time_seconds, image.size()};
  ctx.send(w, buddy, kTagReplicaHeader,
           std::as_bytes(std::span<const ReplicaWireHeader>(&out, 1)));
  ctx.send(w, buddy, kTagReplicaBody, image);
  // Sends are eager (buffered into the buddy's mailbox), so every rank
  // can post both sends before any receive: the ring cannot deadlock.
  ReplicaWireHeader in;
  ctx.recv(w, ward, kTagReplicaHeader,
           std::as_writable_bytes(std::span<ReplicaWireHeader>(&in, 1)));
  std::vector<std::byte> body(in.bytes);
  ctx.recv(w, ward, kTagReplicaBody, body);
  span.finish();
  ctx.stats().set_phase(util::Phase::kService);
  store.deposit(prefix, ward, me, in.step, in.time_seconds,
                std::move(body));
}

}  // namespace ca::service
