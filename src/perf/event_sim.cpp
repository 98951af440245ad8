#include "perf/event_sim.hpp"

#include <algorithm>
#include <deque>
#include <set>
#include <stdexcept>
#include <string_view>
#include <unordered_map>

namespace ca::perf {
namespace {

struct PendingRecv {
  int src = -1;
};

struct CollectiveSite {
  int arrived = 0;
  double max_entry = 0.0;
  bool done = false;
  double finish = 0.0;
};

struct RankState {
  std::size_t pc = 0;
  double clock = 0.0;
  std::vector<PendingRecv> pending;
  /// Occurrence counter per group for collective matching.
  std::unordered_map<int, int> group_occurrence;
  /// Collective sites this rank has already registered its entry with
  /// (prevents double-counting when re-visiting a blocked op).
  std::set<std::uint64_t> registered;
  RankResult result;
};

std::uint64_t channel_key(int src, int dst) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
         static_cast<std::uint32_t>(dst);
}

std::uint64_t site_key(int group, int occurrence) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(group))
          << 32) |
         static_cast<std::uint32_t>(occurrence);
}

}  // namespace

double SimResult::phase_max_seconds(util::Phase phase) const {
  double mx = 0.0;
  for (const auto& r : ranks) mx = std::max(mx, r.phases[phase].seconds);
  return mx;
}

double SimResult::phase_avg_seconds(util::Phase phase) const {
  if (ranks.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& r : ranks) sum += r.phases[phase].seconds;
  return sum / static_cast<double>(ranks.size());
}

util::PhaseStats SimResult::phase_total(util::Phase phase) const {
  util::PhaseStats total;
  for (const auto& r : ranks) total += r.phases[phase];
  return total;
}

std::vector<util::Phase> SimResult::phases() const {
  std::vector<util::Phase> out;
  for (std::size_t i = 0; i < util::kPhaseCount; ++i) {
    const auto p = static_cast<util::Phase>(i);
    if (phase_total(p) != util::PhaseStats{}) out.push_back(p);
  }
  std::sort(out.begin(), out.end(), [](util::Phase a, util::Phase b) {
    return std::string_view(util::phase_name(a)) < util::phase_name(b);
  });
  return out;
}

SimResult simulate(const Schedule& schedule, const MachineModel& machine) {
  const int p = schedule.nranks();
  std::vector<RankState> ranks(static_cast<std::size_t>(p));
  // Message arrival times per directed channel, FIFO.
  std::unordered_map<std::uint64_t, std::deque<double>> channels;
  std::unordered_map<std::uint64_t, CollectiveSite> sites;

  bool progressed = true;
  bool all_done = false;
  while (progressed && !all_done) {
    progressed = false;
    all_done = true;
    for (int r = 0; r < p; ++r) {
      RankState& st = ranks[static_cast<std::size_t>(r)];
      const auto& prog = schedule.program(r);
      while (st.pc < prog.size()) {
        const Op& op = prog[st.pc];
        util::PhaseStats& acct = st.result.phases[op.phase];
        if (op.kind == OpKind::kCompute) {
          const double dt = op.flops * machine.flop_time;
          st.clock += dt;
          acct.seconds += dt;
        } else if (op.kind == OpKind::kIsend) {
          st.clock += machine.alpha;
          acct.seconds += machine.alpha;
          acct.p2p_messages += 1;
          acct.p2p_bytes += op.bytes;
          channels[channel_key(r, op.peer)].push_back(
              st.clock + machine.beta * static_cast<double>(op.bytes));
        } else if (op.kind == OpKind::kIrecv) {
          st.pending.push_back(PendingRecv{op.peer});
        } else if (op.kind == OpKind::kWaitAll) {
          // All pending receives must have a known arrival time.
          double latest = st.clock;
          bool ready = true;
          // Peek arrivals without consuming until all are present.
          std::unordered_map<std::uint64_t, std::size_t> need;
          for (const auto& pr : st.pending)
            ++need[channel_key(pr.src, r)];
          for (const auto& [key, count] : need) {
            auto it = channels.find(key);
            if (it == channels.end() || it->second.size() < count) {
              ready = false;
              break;
            }
            for (std::size_t q = 0; q < count; ++q)
              latest = std::max(latest, it->second[q]);
          }
          if (!ready) break;  // blocked: retry on a later sweep
          std::size_t consumed = 0;
          for (const auto& [key, count] : need) {
            auto& queue = channels[key];
            for (std::size_t q = 0; q < count; ++q) queue.pop_front();
            consumed += count;
          }
          // Receiver-side software overhead per consumed message (LogGP o).
          const double overhead =
              machine.recv_overhead * static_cast<double>(consumed);
          acct.seconds += latest - st.clock + overhead;
          st.clock = latest + overhead;
          st.pending.clear();
        } else {  // kCollective
          const int occurrence = st.group_occurrence[op.group];
          const std::uint64_t key = site_key(op.group, occurrence);
          CollectiveSite& site = sites[key];
          const int group_size =
              static_cast<int>(schedule.groups()[static_cast<std::size_t>(
                                                     op.group)]
                                   .size());
          if (st.registered.insert(key).second) {
            ++site.arrived;
            site.max_entry = std::max(site.max_entry, st.clock);
            if (site.arrived == group_size) {
              site.done = true;
              site.finish = site.max_entry + op.collective_seconds;
            }
          }
          if (!site.done) break;  // blocked until the group completes
          acct.seconds += site.finish - st.clock;
          acct.collective_calls += 1;
          acct.collective_bytes += op.bytes;
          st.clock = site.finish;
          st.registered.erase(key);
          ++st.group_occurrence[op.group];
        }
        ++st.pc;
        progressed = true;
      }
      if (st.pc < prog.size()) all_done = false;
    }
  }

  if (!all_done) {
    // Re-entering a blocked collective must not double-count its entry:
    // detect deadlock instead.
    throw std::runtime_error(
        "perf::simulate: deadlock (mismatched messages or collectives)");
  }

  SimResult out;
  out.ranks.reserve(static_cast<std::size_t>(p));
  for (auto& st : ranks) {
    st.result.total_seconds = st.clock;
    out.makespan = std::max(out.makespan, st.clock);
    out.ranks.push_back(std::move(st.result));
  }
  return out;
}

}  // namespace ca::perf
