// engine::Launch — the one configuration type of every real engine.
//
// rt::Runtime, rt::PrunedRuntime, coor::Runtime and hybrid::Runtime all
// construct from a `const Launch&`, and the registry backends pass the
// caller's Launch straight through. Header-only on purpose: it includes
// only header-only headers, so every runtime library can take a Launch
// without a link-order cycle through rio::engine.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "support/fault.hpp"
#include "support/wait.hpp"
#include "coor/ready_queue.hpp"
#include "coor/ready_ring.hpp"
#include "rio/mapping.hpp"
#include "stf/frontier.hpp"

namespace rio::obs {
class Hub;
}

namespace rio::hybrid {

/// Partial mapping: nullopt = "let the dynamic scheduler place it",
/// a WorkerId = "this fine-grained task runs in-order on that worker".
using PartialMapping =
    std::function<std::optional<stf::WorkerId>(stf::TaskId)>;

}  // namespace rio::hybrid

namespace rio::engine {

/// One launch request. Knobs a backend lacks the capability for must be
/// left at their defaults or Backend::run refuses (UnsupportedLaunch).
struct Launch {
  std::uint32_t workers = 2;  ///< task-executing threads (coor and hybrid's
                              ///< dynamic phases add one master thread)
  support::WaitPolicy wait_policy = support::WaitPolicy::kSpinYield;
  coor::SchedulerKind scheduler = coor::SchedulerKind::kFifo;
  coor::QueueKind queue = coor::QueueKind::kLocked;
  ///< uses_queue backends only. kRing selects the wait-free MPMC ready
  ///< ring for fifo/lifo scheduling (kPriority/kLocality keep the locked
  ///< queues — see coor/ready_ring.hpp).
  bool work_stealing = false;      ///< uses_scheduler backends only
  rt::Mapping mapping{};           ///< full static mapping (needs_mapping)
  hybrid::PartialMapping partial{};  ///< partial mapping (partial_mapping
                                     ///< backends); empty = the backend's
                                     ///< default 16-task alternation
  bool collect_stats = true;   ///< fill the tau buckets (derived from the
                               ///< obs phase spans: a few clock reads/task)
  bool collect_trace = false;  ///< supports_trace backends only
  bool collect_sync = false;   ///< supports_sync backends only
  bool enable_guard = false;   ///< supports_guard backends only
  bool pin_workers = false;    ///< pin thread t to logical CPU t mod #cpus
  support::RetryPolicy retry{};             ///< supports_faults backends only
  support::FaultInjector* fault = nullptr;  ///< not owned; supports_faults
  std::uint64_t watchdog_ns = 0;  ///< supports_watchdog: > 0 fails a run
                                  ///< frozen this long with StallError;
                                  ///< crash-armed plans default it
  const stf::Frontier* resume = nullptr;  ///< supports_recovery: replay
                                          ///< frontier-done tasks as no-ops
  stf::CompletionBoard* checkpoint = nullptr;  ///< supports_recovery: live
                                               ///< done bitmap (not owned)
  obs::Hub* obs = nullptr;  ///< not owned; supports_obs backends only
};

}  // namespace rio::engine
