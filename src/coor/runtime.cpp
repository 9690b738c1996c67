#include "coor/runtime.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/obs.hpp"
#include "support/align.hpp"
#include "support/assert.hpp"
#include "support/clock.hpp"
#include "coor/sync_ops.hpp"
#include "stf/dep_scanner.hpp"
#include "stf/worker_harness.hpp"

namespace rio::coor {
namespace detail {

/// Per-task dependency bookkeeping. One node per task for the whole range —
/// the linear-space structure the paper contrasts with RIO's O(data)
/// footprint. Indexed by the task's position WITHIN the range.
struct TaskNode {
  // Unresolved predecessor count, +1 discovery guard held by the master
  // while it registers edges. The task becomes ready when this hits zero.
  std::atomic<std::int32_t> remaining{1};
  std::mutex mu;
  std::vector<std::size_t> successors;  // local indices
  bool finished = false;
  // Wait-cause provenance: the task whose complete() made this one ready
  // (kNoTask when the master dispatched it). Written by the dispatching
  // thread before the queue push, read after the pop — the queue's own
  // synchronization orders the plain accesses.
  std::uint64_t dispatcher = obs::kNoTask;
};

}  // namespace detail

/// Recycled across runs of one Runtime: TaskNode holds a std::mutex, so the
/// pool is a deque (grows in place, no moves) and entries are reset rather
/// than reconstructed.
struct Runtime::NodeArena {
  std::deque<detail::TaskNode> nodes;
  std::vector<support::AlignedAtomic<std::uint32_t>> reduction_locks;
};

namespace {

using detail::TaskNode;

struct Engine {
  stf::ImageRange range;  // cheap view; the backing FlowImage outlives us
  const engine::Launch& cfg;
  std::deque<TaskNode>& nodes;  // arena-backed, reset for this run
  std::deque<ReadyQueue> queues;  // 1 (central) or num_workers (locality)
  // Wait-free central queue (ready_ring.hpp), engaged for queue == kRing in
  // the central fifo/lifo modes. A ring pop is FIFO regardless of the lifo
  // flag — OoO correctness is order-independent, so kLifo + kRing degrades
  // to FIFO order (documented in docs/perf.md).
  std::optional<ReadyRing> ring;
  std::atomic<std::uint64_t> completed{0};
  std::atomic<bool> done{false};
  // The watchdog's abort flag (null when unwatched, so the block policy may
  // park; see pop_blocking's degradation contract).
  const std::atomic<bool>* abort = nullptr;
  // Per-data exclusivity locks for commuting reductions: the dependency
  // scanner puts NO edges between members of a reduction run, so the OoO
  // workers may pick them in any order — but one at a time per object.
  std::vector<support::AlignedAtomic<std::uint32_t>>& reduction_locks;

  Engine(const stf::ImageRange& r, const engine::Launch& c,
         Runtime::NodeArena& arena)
      : range(r),
        cfg(c),
        nodes(arena.nodes),
        reduction_locks(arena.reduction_locks) {
    const std::size_t n = r.size();
    while (nodes.size() < n) nodes.emplace_back();
    for (std::size_t i = 0; i < n; ++i) {
      nodes[i].remaining.store(1, std::memory_order_relaxed);
      nodes[i].finished = false;
      nodes[i].successors.clear();
      nodes[i].dispatcher = obs::kNoTask;
    }
    const std::size_t nd = r.num_data();
    if (reduction_locks.size() < nd) {
      reduction_locks =
          std::vector<support::AlignedAtomic<std::uint32_t>>(nd);
    } else {
      for (std::size_t d = 0; d < nd; ++d)
        reduction_locks[d].value.store(0, std::memory_order_relaxed);
    }
    if (c.queue == QueueKind::kRing &&
        (c.scheduler == SchedulerKind::kFifo ||
         c.scheduler == SchedulerKind::kLifo)) {
      ring.emplace(std::max<std::size_t>(n, 1),
                   [](std::atomic<std::uint64_t>& w, std::uint64_t v) {
                     w.store(v, std::memory_order_relaxed);
                   });
    } else {
      const std::size_t nq =
          c.scheduler == SchedulerKind::kLocality ? c.workers : 1;
      const bool prioritized = c.scheduler == SchedulerKind::kPriority;
      for (std::size_t q = 0; q < nq; ++q) queues.emplace_back(prioritized);
    }
  }

  void close_queues() {
    if (ring) ring->close(cfg.wait_policy);
    for (auto& q : queues) q.close();
  }

  /// Acquires the reduction locks of `task` in ascending data order (no
  /// deadlock) and returns the locked ids; no-op for reduction-free tasks.
  void lock_reductions(const stf::Task& task,
                       std::vector<stf::DataId>& locked) {
    locked.clear();
    for (const stf::Access& a : task.accesses)
      if (is_reduction(a.mode)) locked.push_back(a.data);
    std::sort(locked.begin(), locked.end());
    for (stf::DataId d : locked) {
      auto& word = reduction_locks[d].value;
      std::uint32_t expected = 0;
      while (!word.compare_exchange_weak(expected, 1,
                                         std::memory_order_acquire,
                                         std::memory_order_relaxed)) {
        expected = 0;
        std::this_thread::yield();
      }
    }
  }

  void unlock_reductions(const std::vector<stf::DataId>& locked) {
    for (auto it = locked.rbegin(); it != locked.rend(); ++it)
      reduction_locks[*it].value.store(0, std::memory_order_release);
  }

  /// Deterministic home queue of a task in locality mode: follow the first
  /// data object the task touches, so tasks sharing data land on the same
  /// worker; round-robin for data-less tasks.
  [[nodiscard]] std::size_t home_queue(std::size_t li) const {
    if (queues.size() == 1) return 0;
    if (range.num_accesses(li) == 0) return li % queues.size();
    return range.acc_begin(li)->data % queues.size();
  }

  /// Returns true when the push actually woke a parked/blocked consumer
  /// (a syscall was issued) — the kWakeupsIssued / kWakeupsElided feed.
  bool dispatch(std::size_t li) {
    if (ring) return ring->push(li, cfg.wait_policy);
    return queues[home_queue(li)].push(li,
                                       cfg.scheduler == SchedulerKind::kLifo,
                                       range.priority(li));
  }

  struct DispatchTally {
    std::size_t dispatched = 0;  ///< successors made ready (queue pushes)
    std::size_t woke = 0;        ///< of those, pushes that issued a wake
  };

  /// Worker-side completion: mark finished, release registered successors.
  DispatchTally complete(std::size_t li) {
    std::vector<std::size_t> succs;
    {
      std::lock_guard lock(nodes[li].mu);
      nodes[li].finished = true;
      succs.swap(nodes[li].successors);
    }
    DispatchTally tally;
    for (std::size_t s : succs) {
      if (dep_release(nodes[s].remaining)) {
        nodes[s].dispatcher = static_cast<std::uint64_t>(range.task(li).id);
        if (dispatch(s)) ++tally.woke;
        ++tally.dispatched;
      }
    }
    if (completed.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        range.size()) {
      done.store(true, std::memory_order_release);
      close_queues();
    }
    return tally;
  }

  /// Pops the next task for worker w, stealing if configured. Returns
  /// nullopt when the range is fully executed; `stole` reports whether the
  /// pop came from another worker's queue (the kSteal phase).
  std::optional<stf::TaskId> next_task(std::uint32_t w, bool& stole,
                                       std::uint64_t* spins) {
    stole = false;
    if (ring) return ring->pop_blocking(cfg.wait_policy, abort, spins);
    if (queues.size() == 1) return queues[0].pop();
    // Locality mode: own queue first, then (optionally) steal, then block
    // briefly on the own queue again.
    for (;;) {
      if (auto t = queues[w].try_pop()) return t;
      if (cfg.work_stealing) {
        for (std::size_t off = 1; off < queues.size(); ++off) {
          if (auto t = queues[(w + off) % queues.size()].try_steal()) {
            stole = true;
            return t;
          }
        }
      }
      if (done.load(std::memory_order_acquire)) {
        // Drain one last time: a final dispatch may have raced `done`.
        if (auto t = queues[w].try_pop()) return t;
        if (cfg.work_stealing) {
          for (std::size_t off = 1; off < queues.size(); ++off) {
            if (auto t = queues[(w + off) % queues.size()].try_steal()) {
              stole = true;
              return t;
            }
          }
        }
        return std::nullopt;
      }
      std::this_thread::yield();
    }
  }
};

}  // namespace

Runtime::Runtime(const engine::Launch& launch)
    : launch_(launch), arena_(std::make_unique<NodeArena>()) {
  RIO_ASSERT_MSG(launch_.workers > 0, "need at least one worker");
}

Runtime::~Runtime() = default;

support::RunStats Runtime::run(const stf::FlowImage& image) {
  return run(stf::ImageRange(image));
}

support::RunStats Runtime::run(const stf::ImageRange& range) {
  Engine eng(range, launch_, *arena_);
  const std::uint32_t p = launch_.workers;
  const std::size_t n = range.size();
  // Threads 0..p-1 are workers, thread p the master (obs slot p too).
  stf::WorkerHarness harness("coor", launch_, range.registry(),
                             range.num_data(), p + 1);
  eng.abort = harness.abort_flag();
  harness.on_abort = [&eng] {
    eng.done.store(true, std::memory_order_release);
    eng.close_queues();
  };
  harness.diagnose = [&] {
    std::ostringstream os;
    os << "  completed " << eng.completed.load(std::memory_order_relaxed)
       << " of " << n << " tasks\n";
    if (eng.ring) os << "  ring: depth=" << eng.ring->size() << "\n";
    for (std::size_t q = 0; q < eng.queues.size(); ++q)
      os << "  queue " << q << ": depth=" << eng.queues[q].size() << "\n";
    for (std::uint32_t w = 0; w < harness.num_probes(); ++w) {
      const support::WorkerProbe& pr = harness.probes()[w];
      const support::ProbeState ps = pr.get_state();
      os << "  worker " << w << ": " << support::to_string(ps)
         << ", executed=" << pr.progress.load(std::memory_order_relaxed);
      if (ps == support::ProbeState::kExecuting)
        os << ", task=" << pr.task.load(std::memory_order_relaxed);
      os << "\n";
    }
    return os.str();
  };

  // Worker role: pop a ready task, run it through the harness's owned-task
  // step with the reduction locks as the acquire and complete() as the
  // release.
  const auto worker_walk = [&](stf::HarnessWorker& w) {
    std::vector<stf::DataId> locked_reductions;
    for (;;) {
      std::uint64_t idle0 = 0;
      if (w.timed) idle0 = support::monotonic_ns();
      if (w.probe != nullptr) w.probe->set_state(support::ProbeState::kWaiting);
      bool stole = false;
      auto li = eng.next_task(w.self, stole,
                              &w.obs.counter(obs::Counter::kSpinIters));
      if (w.timed) {
        // Every pop — including the final empty one — is wait time and one
        // protocol wait; a successful steal is attributed to the kSteal
        // phase instead. A popped task's queue-wait cause is its
        // dispatcher: the predecessor whose complete() made it ready
        // (kNoTask when the master dispatched it or the queue closed
        // empty).
        const std::uint64_t id =
            li ? static_cast<std::uint64_t>(range.task(*li).id) : obs::kNoTask;
        const std::uint64_t cause =
            li ? obs::make_cause(eng.nodes[*li].dispatcher) : obs::kNoCause;
        w.obs.span(stole ? obs::Phase::kSteal : obs::Phase::kAcquireWait, id,
                   idle0, support::monotonic_ns(), cause);
      }
      w.obs.count(obs::Counter::kProtocolWaits);
      if (!li) break;
      w.obs.count(obs::Counter::kQueuePops);
      if (stole) w.obs.count(obs::Counter::kSteals);

      const stf::Task& task = range.task(*li);
      harness.execute(
          w, task,
          [&] {
            // Acquire stamps follow the pop (every predecessor already
            // published) and the reduction locks.
            eng.lock_reductions(task, locked_reductions);
            return stf::Acquired{};
          },
          [&] {
            eng.unlock_reductions(locked_reductions);
            const Engine::DispatchTally tally = eng.complete(*li);
            if (tally.dispatched > 0)
              w.obs.count(obs::Counter::kQueuePushes, tally.dispatched);
            return stf::ReleaseTally{tally.dispatched, tally.woke};
          },
          // A peer spinning on a reduction lock has no abort path, and a
          // dead worker never calls complete(): its successors stay
          // blocked until the tripwire aborts the run.
          [&] { eng.unlock_reductions(locked_reductions); });
      if (w.dead) break;
    }
  };

  // Master role: unroll + dispatch. Its unroll is one kMgmt span; the
  // harness charges the rest of the run to its idle time.
  const auto master_walk = [&](stf::HarnessWorker& m) {
    std::uint64_t dispatches = 0;
    std::uint64_t wakes = 0;
    const std::uint64_t begin = m.timed ? support::monotonic_ns() : 0;
    {
      // Incremental dependency discovery through the shared scanner — the
      // same rules as DependencyGraph, paid one task at a time (cost model
      // (1)'s serialized management work). Ids are range-local indices.
      stf::DependencyScanner scanner(range.num_data());
      std::vector<stf::TaskId> preds;
      for (std::size_t li = 0; li < n; ++li) {
        // Flat-array scan: the master never touches a Task record while
        // unrolling — only the image's dense access spans.
        scanner.next(range.acc_begin(li), range.acc_end(li), li, preds);
        for (std::size_t prev : preds) {
          std::lock_guard lock(eng.nodes[prev].mu);
          if (!eng.nodes[prev].finished) {
            eng.nodes[prev].successors.push_back(li);
            dep_retain(eng.nodes[li].remaining);
          }
        }
        // Drop the discovery guard; dispatch if all predecessors done.
        if (dep_release(eng.nodes[li].remaining)) {
          if (eng.dispatch(li)) ++wakes;
          ++dispatches;
        }
      }
    }
    if (n == 0) {
      // Nothing will ever complete: release the workers directly.
      eng.done.store(true, std::memory_order_release);
      eng.close_queues();
    }
    // The whole unroll is one management span on the master's track.
    if (m.timed)
      m.obs.span(obs::Phase::kMgmt, obs::kNoTask, begin,
                 support::monotonic_ns());
    if (dispatches > 0) {
      m.obs.count(obs::Counter::kQueuePushes, dispatches);
      m.obs.count(obs::Counter::kWakeups, dispatches);
      m.obs.count(obs::Counter::kWakeupsIssued, wakes);
      m.obs.count(obs::Counter::kWakeupsElided, dispatches - wakes);
    }
  };

  support::RunStats stats = harness.run(
      pool_,
      [&](stf::HarnessWorker& w) {
        if (w.self < p)
          worker_walk(w);
        else
          master_walk(w);
      },
      trace_, n);
  // Only an aborted run may finish with completed < n.
  RIO_ASSERT(eng.completed.load() == n);
  return stats;
}

}  // namespace rio::coor
