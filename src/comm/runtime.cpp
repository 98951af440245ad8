#include "comm/runtime.hpp"

#include <atomic>
#include <cassert>
#include <exception>
#include <mutex>
#include <thread>

#include "comm/context.hpp"
#include "comm/error.hpp"
#include "comm/fault.hpp"

namespace ca::comm {

World::World(int nranks, const RunOptions& options)
    : options_(options), health_(nranks) {
  assert(nranks > 0);
  // Resolve the observability env overrides once per run so every rank's
  // tracer (and the flight-dump decision on the unwind path) agrees.
  options_.obs = options_.obs.env_resolved();
  FaultCounters* counters =
      options_.faults != nullptr ? &options_.faults->counters() : nullptr;
  mailboxes_.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
    mailboxes_.back()->configure(&options_, counters, &health_, r);
  }
}

std::uint64_t World::allocate_comm_ids(std::uint64_t count) {
  return next_comm_id_.fetch_add(count, std::memory_order_relaxed);
}

void Runtime::run(int nranks, const std::function<void(Context&)>& fn) {
  run(nranks, RunOptions{}, fn);
}

void Runtime::run(int nranks, const RunOptions& options,
                  const std::function<void(Context&)>& fn) {
  World world(nranks, options);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nranks));
  std::exception_ptr first_error;
  std::mutex error_mutex;

  for (int r = 0; r < nranks; ++r) {
    threads.emplace_back([&world, &fn, r, &first_error, &error_mutex] {
      // The Context outlives the try so the unwind path can reach this
      // rank's flight recorder; its destructor flushes the trace ring.
      Context ctx(&world, r);
      try {
        fn(ctx);
        world.health().mark_finished(r);
      } catch (...) {
        // Poison the run before recording the error: peers blocked on this
        // rank must unwind via PeerDeadError, not wait out their deadline.
        world.health().mark_dead(r);
        // Comm-family failures (peer death, checksum, timeout, injected
        // kill) dump the rank's last events as a postmortem.
        try {
          throw;
        } catch (const CommError& e) {
          ctx.tracer().dump_flight(e.what());
        } catch (...) {
        }
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace ca::comm
