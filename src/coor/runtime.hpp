// COOR — a centralized out-of-order STF runtime (the baseline model).
//
// This is the execution model of Figure 1, the one StarPU and its peers use
// within a shared-memory node: a MASTER thread unrolls the task flow,
// derives dependencies from access modes, and dispatches tasks whose
// dependencies are resolved to a pool of WORKER threads. Ready tasks can be
// executed in any order (out-of-order), which buys scheduling freedom at
// the price of:
//
//   * per-task bookkeeping allocated for the whole flow (space linear in
//     the number of tasks — Section 3.1);
//   * a serialization point at the master/queue (cost model (1), the
//     bottleneck that collapses pipelining efficiency for fine tasks);
//   * one thread that executes no tasks, capping runtime efficiency at
//     (p-1)/p (Section 5.2).
//
// The implementation is intentionally lean — it under-estimates StarPU's
// per-task cost, so wherever COOR shows a centralized bottleneck, StarPU's
// would be at least as severe.
#pragma once

#include <cstdint>
#include <memory>

#include "engine/launch.hpp"
#include "support/stats.hpp"
#include "support/thread_pool.hpp"
#include "coor/ready_queue.hpp"
#include "coor/ready_ring.hpp"
#include "stf/flow_image.hpp"
#include "stf/trace.hpp"

namespace rio::coor {

/// Honours Launch::scheduler, queue (kRing applies to fifo/lifo only; the
/// locked queue is the fallback otherwise), wait_policy (how ring consumers
/// wait when idle; the locked queue's condvar always blocks) and
/// work_stealing (locality mode). Launch::workers counts task-executing
/// threads; the master is one extra.
class Runtime {
 public:
  explicit Runtime(const engine::Launch& launch);
  ~Runtime();
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Runs a compiled image to completion: the master's incremental unroll
  /// and the locality router walk the image's flat metadata
  /// (stf/flow_image.hpp) instead of Task records. stats.workers holds
  /// `workers` entries followed by one for the master (whose time is
  /// management/idle only, never task time). Compile once, run many times.
  support::RunStats run(const stf::FlowImage& image);

  /// Image-slice variant for hybrid phase execution: all tasks preceding
  /// the range must already be complete (dependencies are derived within
  /// the range only).
  support::RunStats run(const stf::ImageRange& range);

  [[nodiscard]] const stf::Trace& trace() const noexcept { return trace_; }

  /// Uses `pool` (>= workers + 1 threads: workers + master) for
  /// subsequent runs instead of spawning threads per run.
  void attach_pool(support::ThreadPool* pool) noexcept { pool_ = pool; }

  // Recycled per-run task-node pool + reduction-lock array (pimpl: the node
  // type is internal to runtime.cpp, which defines and uses the struct).
  // Repeated runs on the same Runtime reuse the arena instead of
  // reallocating linear-in-tasks bookkeeping.
  struct NodeArena;

 private:
  engine::Launch launch_;
  stf::Trace trace_;
  support::ThreadPool* pool_ = nullptr;
  std::unique_ptr<NodeArena> arena_;
};

}  // namespace rio::coor
