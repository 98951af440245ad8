#include "perf/schedule.hpp"

#include <stdexcept>

namespace ca::perf {

void Schedule::add_compute(int rank, double flops, util::Phase phase) {
  Op op;
  op.kind = OpKind::kCompute;
  op.flops = flops;
  op.phase = phase;
  programs_[static_cast<std::size_t>(rank)].push_back(std::move(op));
}

void Schedule::add_isend(int rank, int dst, std::size_t bytes,
                         util::Phase phase) {
  if (dst < 0 || dst >= nranks())
    throw std::out_of_range("Schedule::add_isend: bad destination");
  Op op;
  op.kind = OpKind::kIsend;
  op.peer = dst;
  op.bytes = bytes;
  op.phase = phase;
  programs_[static_cast<std::size_t>(rank)].push_back(std::move(op));
}

void Schedule::add_irecv(int rank, int src, util::Phase phase) {
  if (src < 0 || src >= nranks())
    throw std::out_of_range("Schedule::add_irecv: bad source");
  Op op;
  op.kind = OpKind::kIrecv;
  op.peer = src;
  op.phase = phase;
  programs_[static_cast<std::size_t>(rank)].push_back(std::move(op));
}

void Schedule::add_waitall(int rank, util::Phase phase) {
  Op op;
  op.kind = OpKind::kWaitAll;
  op.phase = phase;
  programs_[static_cast<std::size_t>(rank)].push_back(std::move(op));
}

int Schedule::add_group(std::vector<int> members) {
  for (int m : members)
    if (m < 0 || m >= nranks())
      throw std::out_of_range("Schedule::add_group: bad member rank");
  groups_.push_back(std::move(members));
  return static_cast<int>(groups_.size()) - 1;
}

void Schedule::add_collective(int rank, int group, double seconds,
                              std::size_t bytes, util::Phase phase) {
  if (group < 0 || group >= static_cast<int>(groups_.size()))
    throw std::out_of_range("Schedule::add_collective: bad group id");
  Op op;
  op.kind = OpKind::kCollective;
  op.group = group;
  op.collective_seconds = seconds;
  op.bytes = bytes;
  op.phase = phase;
  programs_[static_cast<std::size_t>(rank)].push_back(std::move(op));
}

}  // namespace ca::perf
