// Fault model for the discrete-event simulators (docs/robustness.md).
//
// The real runtimes pay for an injected transient fault with a rollback
// plus a re-execution (and an optional backoff); an injected stall simply
// burns worker time. The simulators charge the same costs in VIRTUAL ticks
// so fault sweeps — seeds x rates x retry budgets — are reproducible
// without real threads: given the same flow, plan and retry policy the
// extra ticks and the resilience counters are bit-identical across hosts.
//
// The decisions come from the exact FaultInjector the runtimes use, so a
// simulated sweep and a real chaos run over the same plan agree on WHICH
// (task, attempt) pairs fault.
#pragma once

#include <algorithm>
#include <cstdint>

#include "obs/obs.hpp"
#include "support/fault.hpp"
#include "sim/simulate.hpp"

namespace rio::sim {

/// Per-simulation fault state: wraps a FaultInjector plus the retry policy
/// and converts its decisions into virtual-tick penalties and Report
/// counters. One instance per simulated run (the injector is stateful:
/// N-shot budgets deplete).
class SimFaults {
 public:
  SimFaults(const support::FaultPlan& plan, const support::RetryPolicy& retry)
      : injector_(plan), retry_(retry), active_(plan.any()) {}

  [[nodiscard]] bool active() const noexcept { return active_; }

  /// Extra virtual ticks task `id` costs under the plan: injected stalls
  /// burn their window; each retried attempt wastes one execution of
  /// `cost` plus the backoff. Exhausted budgets count as failed_tasks (the
  /// simulators keep going — they model the schedule, not the unwind).
  std::uint64_t extra_ticks(std::uint64_t id, std::uint64_t cost,
                            Report& rep) {
    if (!active_) return 0;
    std::uint64_t extra = 0;
    const std::uint64_t stall = injector_.stall_ns(id);
    if (stall > 0) {
      extra += stall;
      ++rep.injected_stalls;
    }
    const std::uint32_t max_attempts =
        std::max<std::uint32_t>(1, retry_.max_attempts);
    bool retried = false;
    for (std::uint32_t attempt = 1; injector_.should_throw(id, attempt);
         ++attempt) {
      ++rep.injected_throws;
      if (attempt >= max_attempts) {
        ++rep.failed_tasks;
        break;
      }
      // The faulted attempt's work is wasted: rollback, back off, re-run.
      extra += cost + retry_.backoff_ns;
      retried = true;
    }
    if (retried) ++rep.retried_tasks;
    return extra;
  }

  /// Extra virtual ticks a crash fault on task `id` costs when
  /// `tasks_done` tasks completed before it: the crashed attempt's body
  /// (`cost`) is wasted, the watchdog burns `detect_ticks` before the
  /// supervisor evicts, and the resumed attempt replays every completed
  /// task at `replay_per_task` ticks. Returns 0 when the plan does not
  /// select this task (or the crash budget is spent). The caller decides
  /// how the charge is distributed over the virtual workers.
  std::uint64_t crash_recovery_ticks(std::uint64_t id, std::uint64_t cost,
                                     std::uint64_t tasks_done,
                                     std::uint64_t detect_ticks,
                                     std::uint64_t replay_per_task,
                                     Report& rep) {
    if (!active_ || !injector_.should_crash(id)) return 0;
    ++rep.evictions;
    rep.tasks_replayed += tasks_done;
    return cost + detect_ticks + replay_per_task * tasks_done;
  }

 private:
  support::FaultInjector injector_;
  support::RetryPolicy retry_;
  bool active_;
};

/// Adds a finished run's resilience counters to the hub's global line (a
/// no-op without a hub): they belong to the run, not to one worker.
inline void count_resilience(obs::Hub* hub, const Report& rep) {
  obs::count_global(hub, obs::Counter::kFaultsInjected,
                    rep.injected_stalls + rep.injected_throws);
  obs::count_global(hub, obs::Counter::kRetries, rep.retried_tasks);
  obs::count_global(hub, obs::Counter::kEvictions, rep.evictions);
  obs::count_global(hub, obs::Counter::kTasksReplayed, rep.tasks_replayed);
}

}  // namespace rio::sim
