// Task pruning — Section 3.5.
//
// The decentralized model's main drawback is that every worker unrolls the
// whole flow: total unrolling work grows as p * n. Pruning lets each worker
// visit only the tasks it executes. Because a materialized flow is static,
// we can go further than the paper's sketch and precompute, for every
// access of every mapped task, the exact protocol values the worker would
// have accumulated in its local state had it unrolled everything:
//
//   * for a read:  the Task ID of the last write preceding it, and
//   * for a write: additionally the number of reads since that write.
//
// At execution time a pruned worker walks its own task list and waits
// directly on those expected values — zero declare operations, O(own tasks)
// unrolling. The precomputation is a single O(n) scan shared by all
// workers (analogous to the compiler-assisted pruning used in
// distributed-memory STF runtimes [Agullo et al., TPDS 2017]).
//
// Plans compile fastest from a stf::FlowImage (flat access array, no Task
// records touched), and PrunedPlanCache memoizes them keyed by
// (image serial, image fingerprint, mapping identity, worker count) so a
// run loop pays the O(n) compilation exactly once per distinct
// (flow, rewrite, mapping) triple.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "support/inline_vec.hpp"
#include "support/stats.hpp"
#include "rio/mapping.hpp"
#include "rio/runtime.hpp"
#include "stf/flow_image.hpp"

namespace rio::rt {

/// One precomputed access of a pruned task: which data, which mode, and
/// the protocol state to wait for before proceeding.
struct PrunedAccess {
  stf::DataId data = stf::kInvalidData;
  stf::AccessMode mode = stf::AccessMode::kRead;
  stf::TaskId expected_writer = kNoWrite;  ///< last write before this task
  std::uint64_t expected_reads = 0;        ///< reads since it (writes only)
};

/// A worker's slice of the flow after pruning.
struct PrunedTask {
  stf::TaskId id = stf::kInvalidTask;
  support::InlineVec<PrunedAccess, 4> accesses;
};

/// The full pruned execution plan: per-worker task lists with resolved
/// dependency expectations. Build once, execute many times.
class PrunedPlan {
 public:
  /// O(num_tasks) scan over the image's flat access array; evaluates
  /// `mapping` once per task. Ids stay global (image.first_id() based).
  PrunedPlan(const stf::FlowImage& image, const Mapping& mapping,
             std::uint32_t num_workers);

  [[nodiscard]] std::uint32_t num_workers() const noexcept {
    return static_cast<std::uint32_t>(per_worker_.size());
  }
  [[nodiscard]] const std::vector<PrunedTask>& tasks_for(
      stf::WorkerId w) const {
    return per_worker_[w];
  }

  /// Total tasks across workers (== flow.num_tasks()).
  [[nodiscard]] std::size_t total_tasks() const noexcept { return total_; }

 private:
  std::vector<std::vector<PrunedTask>> per_worker_;
  std::size_t total_ = 0;
};

/// Memoizes compiled plans keyed by (FlowImage::serial(),
/// FlowImage::fingerprint(), Mapping::identity(), worker count). A repeated
/// run() over the same image+mapping pays ZERO plan recomputation — the
/// property micro_unroll measures and the replay tests assert via
/// compiles(). The fingerprint matters for flowpass rewrites: an optimized
/// image inherits its source's serial, and only the content hash keeps it
/// from reusing the unoptimized plan.
///
/// Not thread-safe: one cache belongs to one driving thread (the engines
/// themselves are already single-entry).
class PrunedPlanCache {
 public:
  /// Returns the cached plan, compiling (and counting) on first sight.
  std::shared_ptr<const PrunedPlan> get(const stf::FlowImage& image,
                                        const Mapping& mapping,
                                        std::uint32_t num_workers);

  /// How many plans were actually compiled (cache misses).
  [[nodiscard]] std::uint64_t compiles() const noexcept { return compiles_; }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  void clear() noexcept { entries_.clear(); }

 private:
  struct Key {
    std::uint64_t serial = 0;       // FlowImage::serial() (lineage)
    std::uint64_t fingerprint = 0;  // FlowImage::fingerprint() (content) —
                                    // rewritten images share the source's
                                    // serial and must never alias its plan
    const void* mapping = nullptr;  // Mapping::identity()
    std::uint32_t workers = 0;
  };
  struct Entry {
    Key key;
    std::shared_ptr<const PrunedPlan> plan;
  };
  std::vector<Entry> entries_;  // few distinct keys per process: linear scan
  std::uint64_t compiles_ = 0;
};

/// Executes a flow through a pruned plan. Same synchronization protocol as
/// Runtime::run, but each worker only ever touches its own tasks.
class PrunedRuntime {
 public:
  explicit PrunedRuntime(const engine::Launch& launch);

  /// Image replay through an explicit plan (bodies come from image.task()).
  support::RunStats run(const stf::FlowImage& image, const PrunedPlan& plan);

  /// Cached fast path: compiles the plan on first call for this
  /// (image, mapping) pair, replays from cache afterwards. The bench loop
  /// is literally `while (...) prt.run(image, mapping);`.
  support::RunStats run(const stf::FlowImage& image, const Mapping& mapping);

  /// Trace of the last run (empty unless launch.collect_trace).
  [[nodiscard]] const stf::Trace& trace() const noexcept { return trace_; }

  /// Synchronization events of the last run (empty unless
  /// launch.collect_sync).
  [[nodiscard]] const stf::SyncTrace& sync_trace() const noexcept {
    return sync_trace_;
  }

  /// Cache-miss counter of the internal plan cache (test hook for the
  /// "second run recompiles nothing" guarantee).
  [[nodiscard]] std::uint64_t plan_compiles() const noexcept {
    return cache_.compiles();
  }

  /// Same contract as Runtime::attach_pool: reuse `pool` for all subsequent
  /// runs instead of spawning threads per run.
  void attach_pool(support::ThreadPool* pool) noexcept { pool_ = pool; }

 private:
  engine::Launch launch_;
  stf::Trace trace_;
  stf::SyncTrace sync_trace_;
  PrunedPlanCache cache_;
  support::ThreadPool* pool_ = nullptr;
  RunArenas arenas_;  ///< recycled across runs (never shrinks)
};

}  // namespace rio::rt
