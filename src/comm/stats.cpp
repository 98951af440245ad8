#include "comm/stats.hpp"

namespace ca::comm {

std::uint64_t FaultSummary::injected_total() const {
  return injected_delay + injected_duplicate + injected_drop +
         injected_corrupt + injected_stall + injected_kill + injected_hang +
         injected_state_corrupt;
}

std::uint64_t FaultSummary::detected_total() const {
  return detected_checksum + detected_timeout + detected_peer_dead +
         detected_numeric;
}

void CommStats::enter_collective() { ++collective_depth_; }

void CommStats::leave_collective() {
  if (collective_depth_ > 0) --collective_depth_;
}

void CommStats::record_send(std::size_t bytes) {
  PhaseStats& s = record_[phase_];
  if (in_collective()) {
    s.collective_bytes += bytes;
  } else {
    ++s.p2p_messages;
    s.p2p_bytes += bytes;
  }
}

void CommStats::record_collective_call() {
  ++record_[phase_].collective_calls;
}

void CommStats::record_pool_acquire(bool grew) {
  if (grew)
    ++pool_.allocations;
  else
    ++pool_.reuses;
}

}  // namespace ca::comm
