#include "comm/fault.hpp"

#include <algorithm>


namespace ca::comm {
namespace {

/// splitmix64: the standard 64-bit mixer; statistically uniform output
/// for sequential or hashed inputs.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Uniform double in [0, 1) from (seed, rule index, message identity).
/// Pure function: decisions are reproducible across runs and independent
/// of thread scheduling.
double roll(std::uint64_t seed, std::size_t rule, std::uint64_t a,
            std::uint64_t b, std::uint64_t c, std::uint64_t d) {
  std::uint64_t h = mix64(seed ^ mix64(rule + 1));
  h = mix64(h ^ a);
  h = mix64(h ^ b);
  h = mix64(h ^ c);
  h = mix64(h ^ d);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

bool scope_matches(const FaultRule& r, std::string_view phase, int src,
                   int dst, int tag) {
  if (!r.phase.empty() && r.phase != phase) return false;
  if (r.tag != kAnyTag && r.tag != tag) return false;
  if (r.src != kAnySource && r.src != src) return false;
  if (r.dst != kAnySource && r.dst != dst) return false;
  return true;
}

}  // namespace

FaultSummary FaultCounters::summary() const {
  FaultSummary s;
  s.injected_state_corrupt = injected_state_corrupt.load();
  s.detected_numeric = detected_numeric.load();
  s.injected_delay = injected_delay.load();
  s.injected_duplicate = injected_duplicate.load();
  s.injected_drop = injected_drop.load();
  s.injected_corrupt = injected_corrupt.load();
  s.injected_stall = injected_stall.load();
  s.injected_kill = injected_kill.load();
  s.injected_hang = injected_hang.load();
  s.detected_checksum = detected_checksum.load();
  s.detected_timeout = detected_timeout.load();
  s.detected_peer_dead = detected_peer_dead.load();
  s.recovered_delay = recovered_delay.load();
  s.recovered_duplicate = recovered_duplicate.load();
  s.recovered_drop = recovered_drop.load();
  return s;
}

FaultPlan::Injection FaultPlan::decide(std::string_view phase, int src,
                                       int dst, int tag,
                                       std::uint64_t seq) const {
  Injection inj;
  if (!enabled()) return inj;
  const auto key_a = static_cast<std::uint64_t>(src) + 1;
  const auto key_b = static_cast<std::uint64_t>(dst) + 1;
  const auto key_c = static_cast<std::uint64_t>(tag) + (1ull << 32);
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    const FaultRule& r = rules_[i];
    if (r.kind == FaultKind::kStall || r.kind == FaultKind::kKillRank ||
        r.kind == FaultKind::kHangRank ||
        r.kind == FaultKind::kCorruptState)
      continue;
    if (r.probability <= 0.0) continue;
    if (r.attempt > 0 && r.attempt != attempt_) continue;
    if (!scope_matches(r, phase, src, dst, tag)) continue;
    if (roll(seed_, i, key_a, key_b, key_c, seq) >= r.probability) continue;
    switch (r.kind) {
      case FaultKind::kDelay:
        inj.delay_polls = std::max(inj.delay_polls, std::max(1, r.param));
        counters_->injected_delay.fetch_add(1, std::memory_order_relaxed);
        break;
      case FaultKind::kDuplicate:
        if (!inj.duplicate) {
          inj.duplicate = true;
          counters_->injected_duplicate.fetch_add(1,
                                                 std::memory_order_relaxed);
        }
        break;
      case FaultKind::kDrop:
        if (!inj.drop) {
          inj.drop = true;
          counters_->injected_drop.fetch_add(1, std::memory_order_relaxed);
        }
        break;
      case FaultKind::kCorrupt:
        if (inj.corrupt_bytes == 0) {
          inj.corrupt_bytes = std::max(1, r.param);
          counters_->injected_corrupt.fetch_add(1,
                                               std::memory_order_relaxed);
        }
        break;
      case FaultKind::kStall:
      case FaultKind::kKillRank:
      case FaultKind::kHangRank:
      case FaultKind::kCorruptState:
        break;
    }
  }
  return inj;
}

int FaultPlan::stall_polls(int rank, std::uint64_t step) const {
  if (!enabled()) return 0;
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    const FaultRule& r = rules_[i];
    if (r.kind != FaultKind::kStall || r.probability <= 0.0) continue;
    if (r.attempt > 0 && r.attempt != attempt_) continue;
    if (r.src != kAnySource && r.src != rank) continue;
    if (roll(seed_, i, static_cast<std::uint64_t>(rank) + 1, step,
             0x5741ull, 0) >= r.probability)
      continue;
    counters_->injected_stall.fetch_add(1, std::memory_order_relaxed);
    return std::max(1, r.param);
  }
  return 0;
}

FaultPlan::StepFault FaultPlan::step_fault(int rank,
                                           std::uint64_t step) const {
  StepFault sf;
  if (!enabled()) return sf;
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    const FaultRule& r = rules_[i];
    if (r.kind != FaultKind::kKillRank && r.kind != FaultKind::kHangRank)
      continue;
    if (r.attempt > 0 && r.attempt != attempt_) continue;
    if (r.src != kAnySource && r.src != rank) continue;
    if (r.step >= 0) {
      if (step != static_cast<std::uint64_t>(r.step)) continue;
    } else {
      if (r.probability <= 0.0) continue;
      if (roll(seed_, i, static_cast<std::uint64_t>(rank) + 1, step,
               0xdeadull, 0) >= r.probability)
        continue;
    }
    if (r.kind == FaultKind::kKillRank) {
      if (!sf.kill)
        counters_->injected_kill.fetch_add(1, std::memory_order_relaxed);
      sf.kill = true;
    } else {
      if (sf.hang_ms == 0)
        counters_->injected_hang.fetch_add(1, std::memory_order_relaxed);
      sf.hang_ms = std::max(sf.hang_ms, std::max(1, r.param));
    }
  }
  return sf;
}

FaultPlan::StateFault FaultPlan::state_fault(int rank,
                                             std::uint64_t step) const {
  StateFault sf;
  if (!enabled()) return sf;
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    const FaultRule& r = rules_[i];
    if (r.kind != FaultKind::kCorruptState) continue;
    if (r.attempt > 0 && r.attempt != attempt_) continue;
    if (r.src != kAnySource && r.src != rank) continue;
    if (r.step >= 0) {
      if (step != static_cast<std::uint64_t>(r.step)) continue;
    } else {
      if (r.probability <= 0.0) continue;
      if (roll(seed_, i, static_cast<std::uint64_t>(rank) + 1, step,
               0xbadfull, 0) >= r.probability)
        continue;
    }
    if (!sf.fire) {
      sf.fire = true;
      sf.field = std::clamp(r.param / 10, 0, 3);
      sf.mode = std::clamp(r.param % 10, 0, 2);
      counters_->injected_state_corrupt.fetch_add(1,
                                                  std::memory_order_relaxed);
    }
  }
  return sf;
}

}  // namespace ca::comm
