// WorkerHarness — the fork-join scaffolding every real engine runs inside.
//
// rio, rio-pruned and coor differ only in how a worker finds its next task
// and how it waits for and publishes a task's dependencies. Everything
// around that is written once, here:
//
//   * the watchdog window (crash-armed fault plans default it), the
//     per-worker probes, the monitor thread, the stall instant markers and
//     the worker-death tripwire;
//   * the cancel/abort flags, the first-error capture and the DeathBoard;
//   * obs lens binding and commit, the start barrier, pinning, per-worker
//     wall times and the fork-join itself;
//   * the merges of tau buckets and traces, and the
//     WorkerLost > StallError > first-error escalation;
//   * execute(): the owned-task step shared by every engine — wait span,
//     acquire/release stamps, access guard, replay / resilient / plain /
//     cancelled body, death record, checkpoint mark, release tally, trace
//     record and progress.
//
// An engine constructs one harness per run, hands run() its per-worker walk
// and, for each task the walk owns, calls execute() with its acquire (wait
// for the task's dependencies), its release (publish it) and its crash
// hook (drop engine state a dying worker holds).
#pragma once

#include <atomic>
#include <barrier>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "engine/launch.hpp"
#include "obs/obs.hpp"
#include "support/align.hpp"
#include "support/clock.hpp"
#include "support/stats.hpp"
#include "support/thread_pool.hpp"
#include "support/topology.hpp"
#include "support/watchdog.hpp"
#include "stf/access_guard.hpp"
#include "stf/failure.hpp"
#include "stf/resilience.hpp"
#include "stf/trace.hpp"

namespace rio::stf {

/// Watchdog window auto-armed for crash-capable fault plans: the tripwire
/// detects a recorded death within one poll (~window/8), so recovery
/// latency is bounded by ~12ms, not by task-flow drain time.
inline constexpr std::uint64_t kDefaultCrashWatchdogNs = 100'000'000;  // 100ms

/// What an engine's acquire step reports: whether any access stalled, and
/// the (producer, data) pair of the last one that did — the wait span's
/// cause (obs/phase.hpp).
struct Acquired {
  bool stalled = false;
  std::uint64_t cause = obs::kNoCause;

  void note(TaskId producer, DataId data) noexcept {
    stalled = true;
    cause = obs::make_cause(producer, data);
  }
};

/// Wakeups one release boundary owed, and how many of them actually woke a
/// parked thread when the engine can tell (doorbells, queue pushes).
struct ReleaseTally {
  std::uint64_t owed = 0;
  std::optional<std::uint64_t> issued;
};

/// One forked thread's private state. Lives in the harness for the run,
/// on cache lines of its own: the per-task counts and phase sums in `obs`
/// are plain writes that no other thread may share a line with.
struct alignas(support::kCacheLineSize) HarnessWorker {
  WorkerId self = 0;
  bool timed = false;  ///< per-task clock reads wanted (stats/trace/recorder)
  bool dead = false;   ///< crashed in execute(): the walk must stop
  obs::WorkerObs obs;  ///< the worker's only counts and phase totals
  support::WorkerProbe* probe = nullptr;  ///< null unless watched
  ResilienceOpts res;
  DataSnapshot snapshot;  ///< rollback arena / dirty spans of a death
  std::uint32_t checkpoint_pending = 0;
  std::uint64_t wall_ns = 0;
  std::vector<TraceEvent> trace;
  /// Acquire stamp of the task in execute(), kept here rather than in a
  /// local so the untraced path holds no extra register across the body.
  std::uint64_t acquired = 0;

  /// Publishes the protocol wait about to start, so a watchdog firing
  /// mid-wait can report expected vs observed counters.
  void await(DataId data, TaskId expected_writer,
             std::uint64_t expected_reads) noexcept {
    if (probe == nullptr) return;
    probe->data.store(data, std::memory_order_relaxed);
    probe->expected_writer.store(expected_writer, std::memory_order_relaxed);
    probe->expected_reads.store(expected_reads, std::memory_order_relaxed);
    probe->set_state(support::ProbeState::kWaiting);
  }
};

class WorkerHarness {
 public:
  /// `threads` >= launch.workers is the fork width (coor adds its master
  /// thread); only the first launch.workers threads execute tasks and
  /// carry probes. `engine` names the engine in stall diagnostics.
  WorkerHarness(const char* engine, const engine::Launch& launch,
                const DataRegistry& registry, std::size_t num_data,
                std::uint32_t threads);
  ~WorkerHarness();
  WorkerHarness(const WorkerHarness&) = delete;
  WorkerHarness& operator=(const WorkerHarness&) = delete;

  [[nodiscard]] bool watched() const noexcept { return watchdog_ns_ > 0; }
  /// The watchdog's abort flag for abort-aware waits; null when unwatched.
  [[nodiscard]] const std::atomic<bool>* abort_flag() const noexcept {
    return watched() ? &abort_ : nullptr;
  }
  [[nodiscard]] const support::WorkerProbe* probes() const noexcept {
    return probes_.data();
  }
  [[nodiscard]] std::uint32_t num_probes() const noexcept {
    return static_cast<std::uint32_t>(probes_.size());
  }

  /// Engine text appended to the "<engine>: no progress for X ms" header.
  std::function<std::string()> diagnose;
  /// Extra abort work when the watchdog fires (coor closes its queues).
  std::function<void()> on_abort;

  /// Forks the threads, runs `walk(worker)` on each after the start
  /// barrier, then merges and escalates: throws WorkerLost, StallError or
  /// the first task error, in that order; returns the stats otherwise.
  template <typename Walk>
  support::RunStats run(support::ThreadPool* pool, Walk&& walk,
                        Trace& trace_out, std::size_t trace_reserve = 0);

  /// The owned-task step. `acquire()` waits for the task's dependencies
  /// and returns Acquired; `release()` publishes it and returns a
  /// ReleaseTally; `on_crash()` undoes engine state a dying worker holds.
  /// Always inlined: the functors then read the engine's locals from
  /// registers instead of through closure pointers on every access.
  template <typename Acquire, typename Release, typename OnCrash>
  [[gnu::always_inline]] void execute(HarnessWorker& w, const Task& task,
                                      Acquire&& acquire, Release&& release,
                                      OnCrash&& on_crash);

 private:
  enum class Body : std::uint8_t { kRan, kReplayed, kNotRun, kCrashed };

  Body run_body(HarnessWorker& w, const Task& task);
  void fail(std::exception_ptr error);
  void die(HarnessWorker& w, TaskId task);
  void arm();
  support::RunStats finish(std::uint64_t wall_ns, Trace& trace_out,
                           std::size_t trace_reserve);

  const char* engine_;
  const engine::Launch& launch_;
  const DataRegistry& registry_;
  std::uint64_t watchdog_ns_ = 0;
  bool crash_armed_ = false;
  bool resilient_ = false;
  std::vector<support::WorkerProbe> probes_;
  std::vector<HarnessWorker> workers_;
  AccessGuard guard_;
  std::atomic<std::uint64_t> stamp_{0};  ///< acquire/release trace stamps
  std::atomic<bool> cancelled_{false};
  std::atomic<bool> abort_{false};  // set only by a firing watchdog
  std::exception_ptr first_error_;
  std::mutex error_mu_;
  DeathBoard deaths_;
  std::unique_ptr<support::Watchdog> watchdog_;
};

template <typename Walk>
support::RunStats WorkerHarness::run(support::ThreadPool* pool, Walk&& walk,
                                     Trace& trace_out,
                                     std::size_t trace_reserve) {
  const auto threads = static_cast<std::uint32_t>(workers_.size());
  // All threads align on a start barrier so their wall times compare; the
  // makespan clock wraps the whole fork-join (spawn/wake cost included).
  std::barrier start(static_cast<std::ptrdiff_t>(threads));
  const std::uint32_t cpus =
      launch_.pin_workers ? support::detect_topology().logical_cpus : 1;
  const auto body = [&](std::uint32_t t) {
    if (launch_.pin_workers) support::pin_current_thread(t % cpus);
    HarnessWorker& w = workers_[t];
    start.arrive_and_wait();
    const std::uint64_t begin = support::monotonic_ns();
    walk(w);
    if (w.probe != nullptr) w.probe->set_state(support::ProbeState::kDone);
    w.wall_ns = support::monotonic_ns() - begin;
  };
  arm();
  const std::uint64_t t0 = support::monotonic_ns();
  support::run_parallel(pool, threads, body);
  return finish(support::monotonic_ns() - t0, trace_out, trace_reserve);
}

inline WorkerHarness::Body WorkerHarness::run_body(HarnessWorker& w,
                                                   const Task& task) {
  // Resume replay: a task already inside the completion frontier re-runs
  // ONLY its protocol ops — its data effects are already in the registry,
  // so the body, fault injection and checkpoint mark are all skipped.
  if (launch_.resume != nullptr && launch_.resume->done(task.id)) {
    w.obs.count(obs::Counter::kTasksReplayed);
    return Body::kReplayed;
  }
  // Once cancelled, bodies are skipped while the protocol keeps running,
  // so every worker drains deterministically.
  if (cancelled_.load(std::memory_order_acquire)) return Body::kNotRun;
  if (resilient_) {
    BodyResult r = execute_body(task, registry_, w.self, w.res, w.snapshot);
    if (r.crashed) return Body::kCrashed;
    if (!r.ok) {
      fail(std::move(r.error));
      return Body::kNotRun;
    }
  } else if (task.fn) {
    TaskContext tc(task, registry_, w.self);
    try {
      task.fn(tc);
    } catch (...) {
      fail(std::current_exception());
      return Body::kNotRun;
    }
  }
  return Body::kRan;
}

template <typename Acquire, typename Release, typename OnCrash>
inline void WorkerHarness::execute(HarnessWorker& w, const Task& task,
                                   Acquire&& acquire, Release&& release,
                                   OnCrash&& on_crash) {
  if (w.probe != nullptr)
    w.probe->task.store(task.id, std::memory_order_relaxed);
  std::uint64_t wait_begin = 0;
  if (w.timed) wait_begin = support::monotonic_ns();
  const Acquired acq = acquire();
  if (w.probe != nullptr) w.probe->set_state(support::ProbeState::kExecuting);
  if (acq.stalled) {
    if (w.timed)
      w.obs.span(obs::Phase::kAcquireWait, task.id, wait_begin,
                 support::monotonic_ns(), acq.cause);
    w.obs.count(obs::Counter::kProtocolWaits);
  }
  // The acquire stamp is drawn AFTER every wait completed, so each observed
  // release (stamped before its publish) sorts strictly earlier — the
  // invariant the happens-before checker relies on.
  if (launch_.collect_trace)
    w.acquired = stamp_.fetch_add(1, std::memory_order_acq_rel);
  if (launch_.enable_guard)
    for (const Access& a : task.accesses) guard_.acquire(a);

  std::uint64_t t0 = 0;
  std::uint64_t t1 = 0;
  if (w.timed) t0 = support::monotonic_ns();
  const Body body = run_body(w, task);
  if (w.timed) {
    t1 = support::monotonic_ns();
    w.obs.span(obs::Phase::kBody, task.id, t0, t1);
  }
  if (launch_.enable_guard)
    for (const Access& a : task.accesses) guard_.release(a);

  if (body == Body::kCrashed) {
    // Permanent worker death: publish nothing — dependents block until the
    // tripwire aborts the run, and the supervisor restores the dirty spans
    // before replaying this task on a survivor.
    on_crash();
    die(w, task.id);
    return;
  }
  // Checkpoint mark: after the body succeeded, before the release publish —
  // a set bit guarantees the task's effects are present.
  if (launch_.checkpoint != nullptr && body == Body::kRan) {
    launch_.checkpoint->mark(task.id);
    launch_.checkpoint->note_completion(w.checkpoint_pending);
  }
  // The release stamp is drawn BEFORE the release publishes anything, so
  // it orders before every successor's acquire stamp.
  if (launch_.collect_trace)
    w.trace.push_back({task.id, w.self, t0, t1,
                       stamp_.fetch_add(1, std::memory_order_acq_rel),
                       w.acquired});
  const ReleaseTally tally = release();
  if (tally.owed > 0) {
    w.obs.count(obs::Counter::kWakeups, tally.owed);
    if (tally.issued) {
      w.obs.count(obs::Counter::kWakeupsIssued, *tally.issued);
      w.obs.count(obs::Counter::kWakeupsElided, tally.owed - *tally.issued);
    }
  }
  if (w.timed)
    w.obs.span(obs::Phase::kRelease, task.id, t1, support::monotonic_ns());
  w.obs.count(obs::Counter::kTasksExecuted);
  if (w.probe != nullptr)
    w.probe->progress.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace rio::stf
