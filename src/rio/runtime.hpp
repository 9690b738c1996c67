// RIO — the decentralized in-order runtime (Section 3, Algorithm 1).
//
// Execution model:
//   * every worker unrolls the WHOLE task flow (no master thread);
//   * a deterministic Mapping decides which worker executes each task;
//   * a worker executes its own tasks strictly in flow order;
//   * for everybody else's tasks it only updates worker-private dependency
//     counters (declare_read / declare_write — one or two private writes);
//   * cross-worker synchronization happens exclusively through the two
//     shared words of each data object (data_object.hpp).
//
// Two front ends are provided:
//   * run(image, mapping)         — replays a compiled FlowImage;
//   * run_program(reg, prog, map) — every worker executes the user program
//                                   itself (the paper's true decentralized
//                                   unrolling; nothing is ever stored).
//
// Both run inside stf::WorkerHarness, which owns everything around the
// unroll/declare loop and the get_*/terminate_* calls.
#pragma once

#include <cstdint>
#include <vector>

#include "engine/launch.hpp"
#include "support/stats.hpp"
#include "support/thread_pool.hpp"
#include "support/wait.hpp"
#include "rio/data_object.hpp"
#include "rio/mapping.hpp"
#include "stf/flow_image.hpp"
#include "stf/task_flow.hpp"
#include "stf/trace.hpp"
#include "stf/worker_harness.hpp"

namespace rio::rt {

/// Per-run allocations recycled across runs of one Runtime: the per-handle
/// sync-word array, each worker's private replica array, and the per-worker
/// doorbells. Repeat runs (benches, hybrid phases, the pruned-plan replay
/// path) reset these in place instead of reallocating — the task-pool
/// recycling half of the wait/notify hot-path work (docs/perf.md).
struct RunArenas {
  std::vector<SharedDataState> shared;
  std::vector<std::vector<LocalDataState>> locals;
  std::vector<support::AlignedAtomic<std::uint64_t>> bells;

  /// Resets the first `num_data` sync words in place (growing when short)
  /// and decides whether this run batches kBlock wakeups through per-worker
  /// doorbells (src/rio/doorbell.hpp) — unwatched kBlock runs only: watched
  /// runs keep per-word notifies so abort-aware waits can poll. Returns that
  /// decision, with the doorbells reset when it is yes.
  bool reset(std::size_t num_data, const engine::Launch& launch,
             bool watched);

  /// Release boundary under doorbells: one bump per peer of `self`, the
  /// futex syscall only when that peer is parked.
  stf::ReleaseTally ring_peers(stf::WorkerId self, std::uint32_t workers,
                               support::WaitPolicy policy);
};

class Runtime {
 public:
  explicit Runtime(const engine::Launch& launch);

  /// Replays a compiled FlowImage (stf/flow_image.hpp) under `mapping`:
  /// the non-mapped path is a tight loop over the image's flat access
  /// array — no Task records, just the one-or-two private writes per access
  /// the cost model promises. Blocks until all tasks completed on all
  /// workers; performs no per-task allocation. Compile once, run many times.
  support::RunStats run(const stf::FlowImage& image, const Mapping& mapping);

  /// Image-slice variant (hybrid phase execution): all tasks before the
  /// slice must already be complete. Task ids stay global.
  support::RunStats run(const stf::ImageRange& range, const Mapping& mapping);

  /// Streaming mode: each worker runs `program` itself against a
  /// pre-registered data registry; tasks are executed or declared on the
  /// fly and never materialized. The program must be deterministic.
  support::RunStats run_program(const stf::DataRegistry& registry,
                                const stf::ProgramFn& program,
                                const Mapping& mapping);

  /// Trace of the last run (empty unless launch.collect_trace).
  [[nodiscard]] const stf::Trace& trace() const noexcept { return trace_; }

  /// Synchronization events of the last run (empty unless
  /// launch.collect_sync).
  [[nodiscard]] const stf::SyncTrace& sync_trace() const noexcept {
    return sync_trace_;
  }

  /// Uses `pool` (>= workers threads) for subsequent runs instead of
  /// spawning threads per run — amortizes thread startup for repeated
  /// fine-grained runs and for hybrid phase execution. Pass nullptr to
  /// detach. The pool must outlive the runtime's runs.
  void attach_pool(support::ThreadPool* pool) noexcept { pool_ = pool; }

 private:
  template <typename Unroll>
  support::RunStats launch(const stf::DataRegistry& registry,
                           std::size_t num_data, std::size_t trace_reserve,
                           const Mapping& mapping, Unroll&& unroll);

  engine::Launch launch_;
  stf::Trace trace_;
  stf::SyncTrace sync_trace_;
  support::ThreadPool* pool_ = nullptr;
  RunArenas arenas_;  ///< recycled across runs (never shrinks)
};

}  // namespace rio::rt
