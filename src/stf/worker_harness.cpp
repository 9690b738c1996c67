#include "stf/worker_harness.hpp"

#include <sstream>

#include "support/assert.hpp"

namespace rio::stf {

WorkerHarness::WorkerHarness(const char* engine, const engine::Launch& launch,
                             const DataRegistry& registry,
                             std::size_t num_data, std::uint32_t threads)
    : engine_(engine),
      launch_(launch),
      registry_(registry),
      workers_(threads) {
  RIO_ASSERT_MSG(launch.workers > 0 && threads >= launch.workers,
                 "need at least one worker");
  // Crash-armed plans force a watchdog (default window when unset): a
  // worker death must escalate as WorkerLost, never hang the run — and
  // watched waits are abort-pollable, which the drain relies on.
  crash_armed_ = launch.fault != nullptr && launch.fault->plan().crash_armed();
  watchdog_ns_ = launch.watchdog_ns > 0
                     ? launch.watchdog_ns
                     : (crash_armed_ ? kDefaultCrashWatchdogNs : 0);
  probes_ = std::vector<support::WorkerProbe>(watched() ? launch.workers : 0);
  if (launch.enable_guard) guard_.enable(num_data);

  ResilienceOpts res;
  res.retry = launch.retry;
  res.fault = launch.fault;
  res.abort = abort_flag();
  resilient_ = res.active();
  if (launch.obs != nullptr) launch.obs->ensure_workers(threads);
  for (std::uint32_t t = 0; t < threads; ++t) {
    HarnessWorker& w = workers_[t];
    w.self = t;
    w.obs.bind(launch.obs, t);
    w.res = res;
    w.res.obs = &w.obs;
    w.timed = launch.collect_stats || launch.collect_trace || w.obs.recording();
    if (t < probes_.size()) w.probe = &probes_[t];
  }
}

WorkerHarness::~WorkerHarness() = default;

void WorkerHarness::fail(std::exception_ptr error) {
  std::lock_guard lock(error_mu_);
  if (!first_error_) first_error_ = std::move(error);
  cancelled_.store(true, std::memory_order_release);
}

void WorkerHarness::die(HarnessWorker& w, TaskId task) {
  DeathRecord d;
  d.worker = w.self;
  d.task = task;
  d.dirty = std::move(w.snapshot);
  deaths_.record(std::move(d));
  w.dead = true;
  if (w.probe != nullptr) w.probe->set_state(support::ProbeState::kDone);
}

void WorkerHarness::stamp(HarnessWorker& w, const Task& task, SyncKind kind) {
  for (const Access& a : task.accesses)
    w.sync.push_back({task.id, w.self, a.data, a.mode, kind,
                      sync_stamp_.fetch_add(1, std::memory_order_acq_rel)});
}

void WorkerHarness::arm() {
  if (!watched()) return;
  // Progress watchdog: a monitor thread watches the sum of per-worker
  // executed-task counters; if it freezes for the whole window, capture the
  // diagnostic (while workers are still stuck), then cancel + abort so
  // every wait drains and the run fails with StallError instead of hanging.
  obs::Hub* hub = launch_.obs;
  watchdog_ = std::make_unique<support::Watchdog>(
      watchdog_ns_,
      [this, hub]() noexcept {
        if (hub != nullptr)
          hub->global_counters().add(obs::Counter::kWatchdogProbes);
        std::uint64_t sum = 0;
        for (const support::WorkerProbe& p : probes_)
          sum += p.progress.load(std::memory_order_relaxed);
        return sum;
      },
      [this, hub] {
        if (hub != nullptr) {
          // The watchdog thread owns no ring; stall markers go through the
          // hub's out-of-band instant list.
          const std::uint64_t now = support::monotonic_ns();
          for (std::uint32_t w = 0; w < num_probes(); ++w)
            hub->instant({now, now,
                          probes_[w].task.load(std::memory_order_relaxed), w,
                          obs::Phase::kStallSnapshot});
        }
        std::ostringstream os;
        os << engine_ << ": no progress for "
           << static_cast<double>(watchdog_ns_) / 1e6 << " ms\n";
        if (diagnose) os << diagnose();
        return os.str();
      },
      [this] {
        cancelled_.store(true, std::memory_order_release);
        abort_.store(true, std::memory_order_release);
        if (on_abort) on_abort();
      },
      // Tripwire: a recorded worker death aborts the run at the next poll
      // even while survivors still make progress elsewhere.
      crash_armed_
          ? std::function<bool()>([this] { return deaths_.any_death(); })
          : std::function<bool()>());
}

support::RunStats WorkerHarness::finish(std::uint64_t wall_ns,
                                        Trace& trace_out, SyncTrace& sync_out,
                                        std::size_t trace_reserve) {
  if (watchdog_) watchdog_->stop();
  support::RunStats stats;
  stats.wall_ns = wall_ns;
  stats.workers.resize(workers_.size());
  trace_out.clear();
  sync_out.clear();
  if (launch_.collect_trace && trace_reserve > 0)
    trace_out.reserve(trace_reserve);
  for (std::size_t t = 0; t < workers_.size(); ++t) {
    HarnessWorker& w = workers_[t];
    // The tau buckets are DERIVED from the obs phase accumulators: task
    // time is the body phase, idle the acquire-wait stalls, and whatever
    // was neither is runtime management.
    if (launch_.collect_stats) w.stats.buckets = w.obs.buckets(w.wall_ns);
    w.obs.commit(launch_.obs);
    stats.workers[t] = w.stats;
    for (const TraceEvent& ev : w.trace) trace_out.record(ev);
    for (const SyncEvent& ev : w.sync) sync_out.record(ev);
  }
  // Escalation order: worker loss outranks a stall (the stall IS the
  // death's symptom — dependents of the unpublished task blocked), and a
  // stall outranks any task failure.
  const bool fired = watchdog_ && watchdog_->fired();
  if (deaths_.any_death())
    throw WorkerLost(deaths_.take(),
                     fired ? watchdog_->diagnostic() : std::string());
  if (fired) throw StallError(watchdog_->diagnostic());
  if (first_error_) std::rethrow_exception(first_error_);
  return stats;
}

}  // namespace rio::stf
