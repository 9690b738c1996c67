// rio::obs — the unified telemetry hub (docs/observability.md).
//
// One Hub per measured run (or swept series): it owns the committed
// per-worker counts and span-phase totals, the optional flight-recorder
// rings and one atomic global counter line. Engines receive a `Hub*`
// through engine::Launch; a null hub means nothing is exported.
//
// Worker threads never talk to the Hub directly on the hot path. Each
// worker carries a plain `WorkerObs` lens, the only per-task telemetry
// record: local counts and phase accumulators (always on, hub or not) plus
// a raw pointer to the worker's ring. commit() adds the locals into the
// hub after the join, and stats() derives the worker's RunStats entry from
// the same locals. The watchdog and the supervisor, which have no lens,
// use the hub's global counter line and the mutex-protected out-of-band
// instant list instead of the single-writer rings.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/counters.hpp"
#include "obs/phase.hpp"
#include "obs/recorder.hpp"
#include "support/stats.hpp"

namespace rio::obs {

enum class ClockUnit : std::uint8_t { kNanoseconds, kTicks };

[[nodiscard]] constexpr const char* to_string(ClockUnit u) noexcept {
  return u == ClockUnit::kNanoseconds ? "ns" : "ticks";
}

struct HubOptions {
  bool recorder = false;  ///< flight recorder on (opt-in; counters are free)
  std::size_t ring_capacity = std::size_t{1} << 16;  ///< events per worker ring
  std::uint64_t sample = 1;  ///< record every sample-th span (1 = all)
};

class Hub {
 public:
  explicit Hub(const HubOptions& opts = {}) : opts_(opts) {
    if (opts_.recorder)
      recorder_ = std::make_unique<Recorder>(opts_.ring_capacity, opts_.sample);
  }

  /// Grows (never shrinks, never resets) to at least `n` worker slots.
  /// Call between runs only; hybrid calls once per phase and the totals
  /// accumulate across phases.
  void ensure_workers(std::size_t n) {
    if (recorder_) recorder_->ensure(n);
    if (phase_totals_.size() < n) {
      phase_totals_.resize(n);
      counts_.resize(n);
    }
  }

  [[nodiscard]] std::size_t num_workers() const noexcept {
    return phase_totals_.size();
  }

  [[nodiscard]] GlobalCounters& global_counters() noexcept { return global_; }
  /// Plain-value copy of the committed counts and the global line. Call
  /// only after the workers joined.
  [[nodiscard]] CounterSnapshot counter_snapshot() const {
    CounterSnapshot s;
    s.workers = counts_;
    for (const auto& w : counts_)
      for (std::size_t c = 0; c < kNumCounters; ++c) s.totals[c] += w[c];
    for (std::size_t c = 0; c < kNumCounters; ++c) {
      s.global[c] = global_.v[c].load(std::memory_order_relaxed);
      s.totals[c] += s.global[c];
    }
    return s;
  }

  [[nodiscard]] bool recorder_enabled() const noexcept {
    return recorder_ != nullptr;
  }
  [[nodiscard]] EventRing* ring(std::size_t w) noexcept {
    return recorder_ ? recorder_->ring(w) : nullptr;
  }
  [[nodiscard]] std::size_t ring_capacity() const noexcept {
    return recorder_ ? recorder_->ring_capacity() : 0;
  }
  [[nodiscard]] std::uint64_t recorded() const noexcept {
    return recorder_ ? recorder_->recorded() : 0;
  }
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return recorder_ ? recorder_->dropped() : 0;
  }
  [[nodiscard]] std::uint64_t pushed() const noexcept {
    return recorder_ ? recorder_->pushed() : 0;
  }
  [[nodiscard]] std::uint64_t sample_stride() const noexcept {
    return recorder_ ? recorder_->stride() : 0;
  }

  /// Accumulates (+=) one worker's span-phase totals and counts. Workers
  /// reach this through WorkerObs::commit after the join, which orders it
  /// after every local add; hybrid's phases stack up.
  void commit(std::size_t w, const std::uint64_t (&phases)[kNumSpanPhases],
              const std::uint64_t (&counts)[kNumCounters]) {
    ensure_workers(w + 1);
    for (std::size_t i = 0; i < kNumSpanPhases; ++i)
      phase_totals_[w][i] += phases[i];
    for (std::size_t c = 0; c < kNumCounters; ++c) counts_[w][c] += counts[c];
  }

  [[nodiscard]] const std::array<std::uint64_t, kNumSpanPhases>& phase_totals(
      std::size_t w) const noexcept {
    return phase_totals_[w];
  }
  [[nodiscard]] std::uint64_t phase_total(Phase p) const noexcept {
    std::uint64_t n = 0;
    for (const auto& w : phase_totals_) n += w[static_cast<std::size_t>(p)];
    return n;
  }

  /// Thread-safe out-of-band instant for threads without a lens (the
  /// watchdog must not touch the single-writer rings). Dropped when the
  /// recorder is off, like every other event.
  void instant(const Event& ev) {
    if (!recorder_) return;
    const std::lock_guard<std::mutex> lock(oob_mu_);
    oob_.push_back(ev);
  }

  /// All retained events (rings + out-of-band), sorted by begin time.
  /// Call only after the workers joined.
  [[nodiscard]] std::vector<Event> drain_events() const {
    std::vector<Event> out;
    if (recorder_)
      for (std::size_t w = 0; w < recorder_->size(); ++w)
        recorder_->ring(w)->drain(out);
    {
      const std::lock_guard<std::mutex> lock(oob_mu_);
      out.insert(out.end(), oob_.begin(), oob_.end());
    }
    std::stable_sort(out.begin(), out.end(), [](const Event& a, const Event& b) {
      return a.begin != b.begin ? a.begin < b.begin : a.worker < b.worker;
    });
    return out;
  }

  void set_clock_unit(ClockUnit u) noexcept { clock_ = u; }
  [[nodiscard]] ClockUnit clock_unit() const noexcept { return clock_; }

  void reset() {
    global_.reset();
    if (recorder_) recorder_->clear();
    for (auto& w : phase_totals_) w.fill(0);
    for (auto& w : counts_) w.fill(0);
    const std::lock_guard<std::mutex> lock(oob_mu_);
    oob_.clear();
  }

 private:
  HubOptions opts_;
  GlobalCounters global_;
  std::unique_ptr<Recorder> recorder_;
  std::vector<std::array<std::uint64_t, kNumSpanPhases>> phase_totals_;
  std::vector<std::array<std::uint64_t, kNumCounters>> counts_;
  mutable std::mutex oob_mu_;
  std::vector<Event> oob_;
  ClockUnit clock_ = ClockUnit::kNanoseconds;
};

/// Adds `n` to the hub's global line; a no-op without a hub.
inline void count_global(Hub* hub, Counter c, std::uint64_t n = 1) noexcept {
  if (hub != nullptr && n > 0) hub->global_counters().add(c, n);
}

/// Engine-side per-worker lens and the only per-task telemetry record.
/// Lives in the worker's own state (a cache line of its own) or on its
/// stack. Counts and phase accumulators are plain local integers, always
/// kept; the ring pointer is null unless the recorder is on, so the
/// recorder-off path never allocates. Shared state is only touched in
/// commit().
struct WorkerObs {
  std::uint64_t phase_ns[kNumSpanPhases] = {};
  std::uint64_t counts[kNumCounters] = {};
  EventRing* ring = nullptr;
  std::uint32_t worker = 0;

  void bind(Hub* hub, std::uint32_t w) noexcept {
    worker = w;
    ring = hub != nullptr ? hub->ring(w) : nullptr;
  }

  [[nodiscard]] bool recording() const noexcept { return ring != nullptr; }

  /// `cause` is the wait-cause word (phase.hpp) carried by kAcquireWait
  /// spans; the default keeps every existing call site unattributed. The
  /// word only materializes in the ring push, so the recorder-off path
  /// costs nothing extra.
  void span(Phase p, std::uint64_t task, std::uint64_t b, std::uint64_t e,
            std::uint64_t cause = kNoCause) {
    phase_ns[static_cast<std::size_t>(p)] += e - b;
    if (ring != nullptr) ring->push(Event{b, e, task, worker, p, cause});
  }

  void instant(Phase p, std::uint64_t task, std::uint64_t ts) {
    if (ring != nullptr) ring->push(Event{ts, ts, task, worker, p});
  }

  void count(Counter c, std::uint64_t n = 1) noexcept {
    counts[static_cast<std::size_t>(c)] += n;
  }
  /// The counter's slot, for loops that batch into it (spin iterations).
  [[nodiscard]] std::uint64_t& counter(Counter c) noexcept {
    return counts[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] std::uint64_t counter(Counter c) const noexcept {
    return counts[static_cast<std::size_t>(c)];
  }

  /// Charges the time no phase claims, up to `wall`, to kAcquireWait: a
  /// thread with nothing left to do waits for the run to end.
  void idle_until(std::uint64_t wall) noexcept {
    std::uint64_t claimed = 0;
    for (const std::uint64_t ns : phase_ns) claimed += ns;
    if (wall > claimed)
      phase_ns[static_cast<std::size_t>(Phase::kAcquireWait)] += wall - claimed;
  }

  /// Adds the counts and phase totals into `hub` (null-safe). Call once,
  /// after the worker joined.
  void commit(Hub* hub) const {
    if (hub != nullptr) hub->commit(worker, phase_ns, counts);
  }

  /// The worker's RunStats entry. Task time is the body phase, idle is
  /// acquire-wait + steal, and runtime overhead is the wall remainder
  /// (release, rollback, mgmt and untimed loop glue); an untimed run
  /// passes wall 0 and gets zero buckets. `waits` is kProtocolWaits, which
  /// every engine counts exactly where it records a kAcquireWait or kSteal
  /// span.
  [[nodiscard]] support::WorkerStats stats(std::uint64_t wall) const noexcept {
    support::WorkerStats s;
    support::TimeBuckets& b = s.buckets;
    b.task_ns = phase_ns[static_cast<std::size_t>(Phase::kBody)];
    b.idle_ns = phase_ns[static_cast<std::size_t>(Phase::kAcquireWait)] +
                phase_ns[static_cast<std::size_t>(Phase::kSteal)];
    b.runtime_ns =
        wall > b.task_ns + b.idle_ns ? wall - b.task_ns - b.idle_ns : 0;
    s.tasks_executed = counter(Counter::kTasksExecuted);
    s.tasks_skipped = counter(Counter::kTasksSkipped);
    s.waits = counter(Counter::kProtocolWaits);
    return s;
  }
};

}  // namespace rio::obs
