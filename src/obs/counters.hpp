// Always-on counters. A worker counts into plain integers in its own
// WorkerObs lens (obs.hpp) and commits them to the hub after the join, so
// the per-task path has no shared writes. Threads without a lens share one
// atomic global line. CounterSnapshot is the plain-value view of both.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/align.hpp"

namespace rio::obs {

enum class Counter : std::uint8_t {
  kTasksExecuted = 0,
  kTasksSkipped,
  kSteals,
  kProtocolWaits,   ///< protocol / queue waits that actually stalled
  kWakeups,         ///< terminate_* publications or dispatches that may wake waiters
  kSpinIters,       ///< spin-loop iterations inside protocol waits
  kRetries,         ///< body re-executions after rollback
  kFaultsInjected,  ///< injector throws + stalls fired
  kQueuePushes,     ///< coor ready-queue enqueues
  kQueuePops,       ///< coor ready-queue dequeues (incl. steals)
  kWatchdogProbes,  ///< watchdog progress polls (global slot)
  kWakeupsIssued,   ///< wakeups that issued a real syscall (futex/condvar)
  kWakeupsElided,   ///< wakeups skipped because no waiter was parked —
                    ///< batching/elision effectiveness (docs/perf.md)
  kEvictions,       ///< dead workers evicted by the supervisor (global slot)
  kTasksReplayed,   ///< tasks re-run (body skipped or re-executed) during
                    ///< recovery resume (global slot)
};

inline constexpr std::size_t kNumCounters = 15;

[[nodiscard]] constexpr const char* counter_name(Counter c) noexcept {
  switch (c) {
    case Counter::kTasksExecuted: return "tasks_executed";
    case Counter::kTasksSkipped: return "tasks_skipped";
    case Counter::kSteals: return "steals";
    case Counter::kProtocolWaits: return "protocol_waits";
    case Counter::kWakeups: return "wakeups";
    case Counter::kSpinIters: return "spin_iters";
    case Counter::kRetries: return "retries";
    case Counter::kFaultsInjected: return "faults_injected";
    case Counter::kQueuePushes: return "queue_pushes";
    case Counter::kQueuePops: return "queue_pops";
    case Counter::kWatchdogProbes: return "watchdog_probes";
    case Counter::kWakeupsIssued: return "wakeups_issued";
    case Counter::kWakeupsElided: return "wakeups_elided";
    case Counter::kEvictions: return "evictions";
    case Counter::kTasksReplayed: return "tasks_replayed";
  }
  return "?";
}

/// The one shared counter line, for threads outside the worker set: the
/// watchdog, the supervisor and the simulators' post-run resilience adds.
/// Workers never touch it; they count into their own WorkerObs lens.
struct alignas(support::kCacheLineSize) GlobalCounters {
  std::array<std::atomic<std::uint64_t>, kNumCounters> v{};

  void add(Counter c, std::uint64_t n = 1) noexcept {
    v[static_cast<std::size_t>(c)].fetch_add(n, std::memory_order_relaxed);
  }
  void reset() noexcept {
    for (auto& a : v) a.store(0, std::memory_order_relaxed);
  }
};

/// Plain-value copy of every counter, taken after the workers joined.
struct CounterSnapshot {
  std::vector<std::array<std::uint64_t, kNumCounters>> workers;
  std::array<std::uint64_t, kNumCounters> global{};  ///< non-worker threads
  std::array<std::uint64_t, kNumCounters> totals{};  ///< workers + global

  [[nodiscard]] std::uint64_t total(Counter c) const noexcept {
    return totals[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] std::uint64_t worker_value(std::size_t w, Counter c) const {
    return workers[w][static_cast<std::size_t>(c)];
  }
};

}  // namespace rio::obs
