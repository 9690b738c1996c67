// Execution traces and their validation.
//
// A trace records, for each executed task, which worker ran it and in what
// order events happened. Validation checks the two properties the paper's
// TLA+ specification states (Appendix B): every execution respects the
// dependency DAG (sequential consistency), and no two conflicting tasks
// overlap (data-race freedom — checked via interval overlap when engines
// record timestamps). The validator is the bridge between the formal model
// (src/modelcheck) and the real runtimes: tests run engines with tracing
// enabled and feed the result here.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "stf/dependency.hpp"
#include "stf/task_flow.hpp"
#include "stf/types.hpp"

namespace rio::stf {

/// One executed task occurrence. `acquire` and `seq` are drawn from one
/// global counter per run: `acquire` after every dependency wait of the
/// task completed (RIO's get_read/get_write, COOR's ready dispatch), `seq`
/// after its body and before its release publishes anything that could
/// admit a successor (terminate_*, successor release). Every release an
/// acquire could have observed therefore carries a smaller stamp — the
/// total order the happens-before checker (src/analysis) replays.
struct TraceEvent {
  TaskId task = kInvalidTask;
  WorkerId worker = kInvalidWorker;
  std::uint64_t start_ns = 0;  ///< timestamp when the body began
  std::uint64_t end_ns = 0;    ///< timestamp when the body finished
  std::uint64_t seq = 0;       ///< release stamp: global completion order
  std::uint64_t acquire = 0;   ///< acquire stamp, < seq
};

/// Outcome of validating a trace; `ok()` plus a human-readable reason.
struct ValidationResult {
  bool valid = true;
  std::string reason;

  /// False when the engine recorded no timestamps: the data-race and
  /// dependency-order checks were SKIPPED, not passed. `reason` then says
  /// "timestamps unavailable". Structural checks (completeness, per-worker
  /// order) still ran.
  bool timing_checked = true;

  [[nodiscard]] bool ok() const noexcept { return valid; }

  /// True only when validation passed AND nothing was skipped.
  [[nodiscard]] bool fully_checked() const noexcept {
    return valid && timing_checked;
  }

  static ValidationResult failure(std::string why) {
    return {false, std::move(why), true};
  }
};

/// A full-run trace: one event per task, in arbitrary order.
class Trace {
 public:
  void record(TraceEvent ev) { events_.push_back(ev); }
  void reserve(std::size_t n) { events_.reserve(n); }
  [[nodiscard]] const std::vector<TraceEvent>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }
  [[nodiscard]] bool empty() const noexcept { return events_.empty(); }
  void clear() noexcept { events_.clear(); }

  /// Checks completeness (every task executed exactly once), sequential
  /// consistency against `graph` (every predecessor finished before its
  /// successor started, using the start/end timestamps), in-order execution
  /// per worker when `require_worker_in_order` is set (the RunInOrder
  /// model's extra constraint), and data-race freedom (no two conflicting
  /// tasks with overlapping [start,end) intervals).
  [[nodiscard]] ValidationResult validate(const TaskFlow& flow,
                                          const DependencyGraph& graph,
                                          bool require_worker_in_order) const;

 private:
  std::vector<TraceEvent> events_;
};

}  // namespace rio::stf
