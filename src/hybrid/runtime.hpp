// Hybrid execution — the combination the paper's conclusion calls for.
//
// "…we hope that the present study might motivate future work combining
//  both execution models (and thus requiring only partial mappings) for
//  enabling efficient and portable implementations of wider classes of
//  algorithms within the STF programming model."     (RR-9450, Section 6)
//
// This module implements that combination in its bulk-synchronous form:
// the task flow is partitioned into contiguous PHASES, each executed by
// the engine that suits its granularity —
//
//   * DYNAMIC phases run on the centralized out-of-order engine
//     (src/coor): coarse tasks, no mapping needed, full scheduling
//     freedom;
//   * STATIC phases run on the decentralized in-order engine (src/rio):
//     fine-grained tasks with a programmer-supplied mapping and
//     near-zero per-task overhead.
//
// The programmer supplies only a PARTIAL mapping: tasks with an owner go
// to static phases, unmapped tasks to dynamic phases; `partition()` cuts
// the flow at the boundaries. A phase boundary is a barrier, which makes
// cross-phase dependencies trivially satisfied and lets each engine reason
// about its slice in isolation (exactly how HPL alternates coarse trailing
// updates with fine-grained panel pivoting).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "engine/launch.hpp"
#include "support/stats.hpp"
#include "support/thread_pool.hpp"
#include "rio/mapping.hpp"
#include "stf/flow_image.hpp"

namespace rio::hybrid {

/// One contiguous slice of the flow and the engine that executes it.
struct Phase {
  enum class Kind : std::uint8_t { kDynamic, kStatic };
  Kind kind = Kind::kDynamic;
  stf::TaskId first = 0;
  std::size_t count = 0;
  rt::Mapping mapping;  ///< valid for static phases only
};

/// Cuts tasks [0, num_tasks) into maximal runs of mapped / unmapped tasks
/// under `pm`. The returned phases cover the range exactly, in order.
std::vector<Phase> partition(std::size_t num_tasks, const PartialMapping& pm,
                             std::uint32_t num_workers);

/// Forwards the whole Launch to BOTH per-phase engines (static phases on
/// rio, dynamic ones on coor with Launch::scheduler/work_stealing) through
/// one persistent workers+1 thread pool. Launch::workers executes in both
/// phase kinds; dynamic phases use the extra pooled thread as master.
///
/// Resilience and recovery knobs reach both engines. A phase failure
/// (retry exhaustion or stall) propagates out of run() and cancels every
/// later phase: a phase boundary is a barrier, so no task of a later phase
/// can have started. The frontier/checkpoint bitmaps are indexed by GLOBAL
/// task id, so a mid-phase worker death resumes correctly. The obs hub's
/// worker slots 0..p-1 accumulate across every phase, slot p is the
/// dynamic phases' master.
class Runtime {
 public:
  explicit Runtime(const engine::Launch& launch);

  /// Executes pre-partitioned phases as ImageRange slices of a compiled
  /// image. Phases must tile the image contiguously from task 0 to the end.
  support::RunStats run(const stf::FlowImage& image,
                        const std::vector<Phase>& phases);

  /// Convenience: partition by a partial mapping, then run.
  support::RunStats run(const stf::FlowImage& image, const PartialMapping& pm);

  /// Phase count of the last run (observability for tests/benches).
  [[nodiscard]] std::size_t last_phase_count() const noexcept {
    return last_phases_;
  }

  /// Phases that ran to completion in the last run. Equal to
  /// last_phase_count() on success; smaller when a phase failure cancelled
  /// the rest (the cross-phase propagation tests assert on this).
  [[nodiscard]] std::size_t completed_phases() const noexcept {
    return completed_phases_;
  }

 private:
  engine::Launch launch_;
  std::size_t last_phases_ = 0;
  std::size_t completed_phases_ = 0;
  std::unique_ptr<support::ThreadPool> pool_;  // lazily built, workers + 1
};

}  // namespace rio::hybrid
