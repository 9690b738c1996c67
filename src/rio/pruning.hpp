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
// A PrunedPlan is flat and indexes into the stf::FlowImage it was compiled
// from; it copies nothing the image already holds:
//
//   * order[] + begin[p+1] — one u32 image-relative task index per task,
//     grouped by worker (counting sort), in flow order within a worker;
//   * expect[k]            — one {writer, reads} pair of u32 per image
//     access k (the image's flat access index); data id and mode are read
//     from image.accesses()[k].
//
// That is 4 bytes per task plus 8 per access (~12 B/task for the
// single-access counter tasks of Fig. 6-7). A plan is only valid for the
// image it was built from; PrunedRuntime::run checks the fingerprint.
//
// PrunedPlanCache memoizes plans keyed by (image serial, image
// fingerprint, mapping, worker count) so a run loop pays the O(n)
// compilation once per distinct (flow, rewrite, mapping) triple. The
// rio-pruned registry backend owns the one cache of a process.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "support/stats.hpp"
#include "rio/mapping.hpp"
#include "rio/runtime.hpp"
#include "stf/flow_image.hpp"

namespace rio::rt {

/// The full pruned execution plan: per-worker task lists with resolved
/// dependency expectations, indexed by the image's task and access
/// indices. Build once, execute many times over the same image.
class PrunedPlan {
 public:
  /// O(num_tasks + num_accesses) scan over the image's flat access array;
  /// evaluates `mapping` once per task. Allocates its arrays up front and
  /// nothing per task.
  PrunedPlan(const stf::FlowImage& image, const Mapping& mapping,
             std::uint32_t num_workers);

  [[nodiscard]] std::uint32_t num_workers() const noexcept {
    return static_cast<std::uint32_t>(begin_.size() - 1);
  }

  /// Image-relative indices of the tasks worker `w` runs, in flow order.
  [[nodiscard]] std::span<const std::uint32_t> tasks_for(
      stf::WorkerId w) const noexcept {
    return {order_.data() + begin_[w], order_.data() + begin_[w + 1]};
  }

  /// Global id of the last write before image access `k` (kNoWrite when
  /// none): what the access waits to see published.
  [[nodiscard]] stf::TaskId expected_writer(std::size_t k) const noexcept {
    const std::uint32_t w = expect_[k].writer;
    return w == kNone ? kNoWrite : first_ + w;
  }
  /// Reads since that write, which a write access `k` additionally waits
  /// for.
  [[nodiscard]] std::uint64_t expected_reads(std::size_t k) const noexcept {
    return expect_[k].reads;
  }

  /// Whether this plan was compiled from `image` (same content fingerprint,
  /// task count, first id and access count).
  [[nodiscard]] bool built_for(const stf::FlowImage& image) const noexcept;

  /// Total tasks across workers (== image.size()).
  [[nodiscard]] std::size_t total_tasks() const noexcept {
    return order_.size();
  }

 private:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};
  /// Protocol state at one access: the last write before it (image-relative
  /// task index, kNone = none) and the reads since that write.
  struct Expect {
    std::uint32_t writer = kNone;
    std::uint32_t reads = 0;
  };

  std::vector<std::uint32_t> order_;  ///< task indices grouped by worker
  std::vector<std::uint32_t> begin_;  ///< worker w owns order_[begin_[w],
                                      ///< begin_[w+1])
  std::vector<Expect> expect_;        ///< per image access
  std::uint64_t fingerprint_ = 0;
  stf::TaskId first_ = 0;
};

/// Memoizes compiled plans keyed by (FlowImage::serial(),
/// FlowImage::fingerprint(), Mapping, worker count). A repeated run over
/// the same image+mapping pays ZERO plan recomputation. The fingerprint
/// matters for flowpass rewrites: an optimized image inherits its source's
/// serial, and only the content hash keeps it from reusing the unoptimized
/// plan.
///
/// Each entry keeps a copy of its Mapping: the mapping is compared by
/// Mapping::identity() (the closure's address), and holding the closure
/// alive is what stops a later Mapping from being allocated at the same
/// address and being served this entry's plan.
///
/// Thread-safe: one mutex guards the entries, and a miss compiles under
/// it, so concurrent callers of one key compile it exactly once. Bounded:
/// at most kCapacity entries, least recently used evicted first.
class PrunedPlanCache {
 public:
  static constexpr std::size_t kCapacity = 4;

  /// Returns the cached plan, compiling (and counting) on a miss; when
  /// `compiled` is given it is set to whether THIS call compiled.
  std::shared_ptr<const PrunedPlan> get(const stf::FlowImage& image,
                                        const Mapping& mapping,
                                        std::uint32_t num_workers,
                                        bool* compiled = nullptr);

  /// How many plans were actually compiled (cache misses).
  [[nodiscard]] std::uint64_t compiles() const;

 private:
  struct Entry {
    std::uint64_t serial = 0;       // FlowImage::serial() (lineage)
    std::uint64_t fingerprint = 0;  // FlowImage::fingerprint() (content) —
                                    // rewritten images share the source's
                                    // serial and must never alias its plan
    Mapping mapping;                // kept alive: pins identity()
    std::uint32_t workers = 0;
    std::shared_ptr<const PrunedPlan> plan;
  };
  mutable std::mutex mu_;
  std::vector<Entry> entries_;  // most recently used first; linear scan
  std::uint64_t compiles_ = 0;
};

/// Executes a flow through a pruned plan. Same synchronization protocol as
/// Runtime::run, but each worker only ever touches its own tasks.
class PrunedRuntime {
 public:
  explicit PrunedRuntime(const engine::Launch& launch);

  /// Image replay through `plan`, which must have been compiled from
  /// `image` (asserted) for launch.workers workers. Bodies come from
  /// image.task().
  support::RunStats run(const stf::FlowImage& image, const PrunedPlan& plan);

  /// Trace of the last run (empty unless launch.collect_trace).
  [[nodiscard]] const stf::Trace& trace() const noexcept { return trace_; }

  /// Same contract as Runtime::attach_pool: reuse `pool` for all subsequent
  /// runs instead of spawning threads per run.
  void attach_pool(support::ThreadPool* pool) noexcept { pool_ = pool; }

 private:
  engine::Launch launch_;
  stf::Trace trace_;
  support::ThreadPool* pool_ = nullptr;
  RunArenas arenas_;  ///< recycled across runs (never shrinks)
};

}  // namespace rio::rt
