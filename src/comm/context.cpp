#include "comm/context.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "comm/error.hpp"
#include "comm/fault.hpp"
#include "comm/runtime.hpp"

namespace ca::comm {
namespace {

// Internal protocol tags (>= kInternalTagBase, never visible to users).
constexpr int kTagSplitUp = kInternalTagBase + 1;
constexpr int kTagSplitDown = kInternalTagBase + 2;

}  // namespace

Context::Context(World* world, int world_rank)
    : world_(world), world_rank_(world_rank) {
  std::vector<int> all(static_cast<std::size_t>(world->size()));
  std::iota(all.begin(), all.end(), 0);
  world_comm_ = Communicator(/*id=*/0, std::move(all), world_rank);
  const RunOptions& opts = world_->options();
  tracer_.configure(opts.obs, world_rank_, &timers(), opts.trace_sink,
                    opts.trace_pid);
  // The mailbox's defensive half (retransmit requests, checksum failures,
  // watchdog verdicts) reports incidents through this rank's tracer; all
  // of those paths run on this rank's own thread.
  world_->mailbox(world_rank_).set_tracer(&tracer_);
}

Context::~Context() {
  world_->mailbox(world_rank_).set_tracer(nullptr);
  tracer_.flush();
}

int Context::world_size() const { return world_->size(); }

Mailbox& Context::mailbox_of(int world_rank) {
  return world_->mailbox(world_rank);
}

void Context::send(const Communicator& comm, int dst, int tag,
                   std::span<const std::byte> data) {
  if (dst < 0 || dst >= comm.size())
    throw std::out_of_range("send: destination rank out of range");
  const int dst_world = comm.world_rank_of(dst);
  Message msg;
  msg.comm_id = comm.id();
  msg.src = world_rank_;
  msg.tag = tag;
  msg.payload.assign(data.begin(), data.end());
  stats_.record_send(data.size());
  if (world_->options().heartbeat_timeout.count() > 0)
    world_->health().stamp(world_rank_);

  FaultPlan* plan = world_->fault_plan();
  if (plan == nullptr || !plan->enabled()) {
    mailbox_of(dst_world).deliver(std::move(msg));
    return;
  }

  // Fault layer active: stamp sequence + checksum, then let the plan
  // decide what happens to this message on the "wire".
  msg.seq = ++send_seq_[{dst_world, msg.comm_id, tag}];
  msg.checksum = payload_checksum(msg.payload);
  FaultPlan::Injection inj = plan->decide(util::phase_name(stats_.phase()),
                                          world_rank_, dst_world, tag,
                                          msg.seq);
  if (inj.corrupt_bytes > 0 && !msg.payload.empty()) {
    // Flip bytes at seed-determined positions AFTER the checksum was
    // computed, so verification at the receiver fails.
    std::uint64_t pos = msg.seq * 0x9e3779b97f4a7c15ull + plan->seed();
    for (int b = 0; b < inj.corrupt_bytes; ++b) {
      pos = pos * 6364136223846793005ull + 1442695040888963407ull;
      msg.payload[pos % msg.payload.size()] ^= std::byte{0xFF};
    }
  }
  if (inj.any())
    mailbox_of(dst_world).deliver(std::move(msg), inj);
  else
    mailbox_of(dst_world).deliver(std::move(msg));
}

void Context::notify_step() {
  const std::uint64_t step = step_count_++;
  if (world_->options().heartbeat_timeout.count() > 0) {
    world_->health().stamp(world_rank_);
    tracer_.instant("heartbeat", "comm");
  }
  FaultPlan* plan = world_->fault_plan();
  if (plan == nullptr || !plan->enabled()) return;
  const int polls = plan->stall_polls(world_rank_, step);
  if (polls > 0)
    std::this_thread::sleep_for(world_->options().poll_interval * polls);
  const FaultPlan::StepFault sf = plan->step_fault(world_rank_, step);
  if (sf.kill) {
    // Poison the run before unwinding so peers blocked on this rank fail
    // within heartbeat_timeout instead of the receive deadline.
    world_->health().mark_dead(world_rank_);
    throw RankKilledError(world_rank_, step);
  }
  if (sf.hang_ms > 0) {
    // A hang deliberately skips the heartbeat stamp: the rank goes silent
    // for the window and the peers' watchdog decides whether it is dead.
    std::this_thread::sleep_for(std::chrono::milliseconds(sf.hang_ms));
  }
}

void Context::recv(const Communicator& comm, int src, int tag,
                   std::span<std::byte> data) {
  int world_src =
      (src == kAnySource) ? kAnySource : comm.world_rank_of(src);
  Message msg = mailbox_of(world_rank_).receive(comm.id(), world_src, tag);
  if (msg.payload.size() != data.size())
    throw std::runtime_error("recv: message size mismatch");
  // A zero-byte message may come with null buffers, which memcpy forbids.
  if (!data.empty())
    std::memcpy(data.data(), msg.payload.data(), data.size());
}

Request Context::isend(const Communicator& comm, int dst, int tag,
                       std::span<const std::byte> data) {
  // Eager protocol: the send buffer is copied immediately, so the request
  // is already complete.
  send(comm, dst, tag, data);
  return Request{};
}

Request Context::irecv(const Communicator& comm, int src, int tag,
                       std::span<std::byte> data) {
  Request req;
  req.comm_id_ = comm.id();
  req.src_ = (src == kAnySource) ? kAnySource : comm.world_rank_of(src);
  req.tag_ = tag;
  req.recv_buffer_ = data;
  req.done_ = false;
  return req;
}

void Context::wait(Request& req) {
  if (req.done_) return;
  Message msg =
      mailbox_of(world_rank_).receive(req.comm_id_, req.src_, req.tag_);
  if (msg.payload.size() != req.recv_buffer_.size())
    throw std::runtime_error("wait: message size mismatch");
  std::memcpy(req.recv_buffer_.data(), msg.payload.data(),
              msg.payload.size());
  req.done_ = true;
}

Communicator Context::split(const Communicator& parent, int color, int key) {
  struct Entry {
    int color, key, parent_rank;
  };
  const int p = parent.size();
  const int me = parent.rank();

  // Gather (color, key) at parent rank 0 which computes all subgroups,
  // allocates ids, and scatters each member's result.
  std::array<int, 2> mine{color, key};
  if (me != 0) {
    send_values<int>(parent, 0, kTagSplitUp, mine);
    // Receive: [comm_id_lo, comm_id_hi, my_rank, n, world_ranks...]
    std::array<std::uint64_t, 1> id_buf{};
    recv_values<std::uint64_t>(parent, 0, kTagSplitDown, id_buf);
    std::array<int, 2> head{};
    recv_values<int>(parent, 0, kTagSplitDown, head);
    if (head[1] == 0) return Communicator{};
    std::vector<int> group(static_cast<std::size_t>(head[1]));
    recv_values<int>(parent, 0, kTagSplitDown, group);
    return Communicator(id_buf[0], std::move(group), head[0]);
  }

  std::vector<Entry> entries(static_cast<std::size_t>(p));
  entries[0] = {color, key, 0};
  for (int r = 1; r < p; ++r) {
    std::array<int, 2> buf{};
    recv_values<int>(parent, r, kTagSplitUp, buf);
    entries[static_cast<std::size_t>(r)] = {buf[0], buf[1], r};
  }

  // Distinct non-negative colors, ascending.
  std::vector<int> colors;
  for (const auto& e : entries)
    if (e.color >= 0) colors.push_back(e.color);
  std::sort(colors.begin(), colors.end());
  colors.erase(std::unique(colors.begin(), colors.end()), colors.end());

  std::uint64_t base = 0;
  if (!colors.empty())
    base = world_->allocate_comm_ids(colors.size());

  // For each member compute (id, group, rank) and deliver.
  Communicator my_result;
  for (int r = 0; r < p; ++r) {
    const Entry& e = entries[static_cast<std::size_t>(r)];
    std::uint64_t id = 0;
    std::vector<int> group;
    int rank_in_group = -1;
    if (e.color >= 0) {
      auto cit = std::lower_bound(colors.begin(), colors.end(), e.color);
      id = base + static_cast<std::uint64_t>(cit - colors.begin());
      std::vector<Entry> members;
      for (const auto& m : entries)
        if (m.color == e.color) members.push_back(m);
      std::stable_sort(members.begin(), members.end(),
                       [](const Entry& a, const Entry& b) {
                         return std::tie(a.key, a.parent_rank) <
                                std::tie(b.key, b.parent_rank);
                       });
      for (std::size_t g = 0; g < members.size(); ++g) {
        group.push_back(parent.world_rank_of(members[g].parent_rank));
        if (members[g].parent_rank == r)
          rank_in_group = static_cast<int>(g);
      }
    }
    if (r == 0) {
      my_result = group.empty()
                      ? Communicator{}
                      : Communicator(id, std::move(group), rank_in_group);
    } else {
      std::array<std::uint64_t, 1> id_buf{id};
      send_values<std::uint64_t>(parent, r, kTagSplitDown, id_buf);
      std::array<int, 2> head{rank_in_group, static_cast<int>(group.size())};
      send_values<int>(parent, r, kTagSplitDown, head);
      if (!group.empty())
        send_values<int>(parent, r, kTagSplitDown,
                         std::span<const int>(group));
    }
  }
  return my_result;
}

}  // namespace ca::comm
