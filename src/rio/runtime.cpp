#include "rio/runtime.hpp"

#include <atomic>
#include <optional>
#include <utility>

#include "support/assert.hpp"
#include "rio/stall_diag.hpp"

namespace rio::rt {

bool RunArenas::reset(std::size_t num_data, const engine::Launch& launch,
                      bool watched) {
  // SharedDataState holds atomics (not copyable), so growth recreates.
  if (shared.size() < num_data) {
    shared = std::vector<SharedDataState>(num_data);
  } else {
    for (std::size_t d = 0; d < num_data; ++d) {
      shared[d].last_executed_write.value.store(kNoWrite,
                                                std::memory_order_relaxed);
      shared[d].nb_reads_since_write.value.store(0, std::memory_order_relaxed);
    }
  }
  if (launch.wait_policy != support::WaitPolicy::kBlock || watched)
    return false;
  if (bells.size() < launch.workers) {
    bells = std::vector<support::AlignedAtomic<std::uint64_t>>(launch.workers);
  } else {
    for (std::uint32_t w = 0; w < launch.workers; ++w)
      bells[w].value.store(0, std::memory_order_relaxed);
  }
  return true;
}

stf::ReleaseTally RunArenas::ring_peers(stf::WorkerId self,
                                        std::uint32_t workers,
                                        support::WaitPolicy policy) {
  std::uint64_t issued = 0;
  for (std::uint32_t w = 0; w < workers; ++w)
    if (w != self && ring_doorbell(bells[w].value, policy)) ++issued;
  return {workers - 1, issued};
}

namespace {

/// One worker's unroll state: its harness slot plus its private replica of
/// every data object's protocol counters (arena-backed).
struct Unroller {
  stf::WorkerHarness& harness;
  stf::HarnessWorker& w;
  const Mapping& mapping;
  const engine::Launch& launch;
  RunArenas& arenas;
  LocalDataState* local;
  bool bells;  ///< doorbell batching engaged (RunArenas::reset)

  /// The mapped-here half of Algorithm 1: acquire every access (get_*), run
  /// the body, then release (terminate_*). Acquisition cannot deadlock: a
  /// get_* only waits on the completion of strictly earlier tasks.
  void execute(const stf::Task& task) {
    SharedDataState* shared = arenas.shared.data();
    const support::WaitPolicy policy = launch.wait_policy;
    const std::atomic<bool>* abort = harness.abort_flag();
    std::atomic<std::uint64_t>* bell =
        bells ? &arenas.bells[w.self].value : nullptr;
    harness.execute(
        w, task,
        [&] {
          stf::Acquired acq;
          for (const stf::Access& a : task.accesses) {
            const LocalDataState& l = local[a.data];
            w.await(a.data, l.last_registered_write, l.nb_reads_since_write);
            const bool waited =
                is_write(a.mode)
                    ? get_write(shared[a.data], l, policy, abort,
                                &w.obs.spin_iters, bell)
                    : get_read(shared[a.data], l, policy, abort,
                               &w.obs.spin_iters, bell);
            if (waited) acq.note(l.last_registered_write, a.data);
          }
          return acq;
        },
        [&] {
          for (const stf::Access& a : task.accesses) {
            if (is_write(a.mode))
              terminate_write(shared[a.data], local[a.data], task.id, policy,
                              !bells);
            else
              terminate_read(shared[a.data], local[a.data], policy, !bells);
          }
          return bells ? arenas.ring_peers(w.self, launch.workers, policy)
                       : stf::ReleaseTally{task.accesses.size(), std::nullopt};
        },
        [] {});
  }

  /// Handles one task in flow order: execute it if mapped here, otherwise
  /// register its accesses locally — one or two private-memory writes per
  /// access, no atomics.
  void process(const stf::Task& task) {
    if (mapping(task.id) == w.self) {
      execute(task);
      return;
    }
    for (const stf::Access& a : task.accesses) {
      if (is_write(a.mode))
        declare_write(local[a.data], task.id);
      else
        declare_read(local[a.data]);
    }
    if (launch.collect_stats) ++w.stats.tasks_skipped;
    w.obs.count(obs::Counter::kTasksSkipped);
  }
};

/// Streaming sink: submits flow straight into Unroller::process, assigning
/// ids by submission order (identical on every worker for a deterministic
/// program).
class ReplaySink final : public stf::SubmitSink {
 public:
  explicit ReplaySink(Unroller& u) : u_(u) {}

  void submit(stf::TaskFn fn, stf::AccessList accesses, std::uint64_t cost,
              std::string name) override {
    if (u_.w.dead) {
      ++next_id_;  // a dead worker ignores the rest of the program
      return;
    }
    stf::Task t;
    t.id = next_id_++;
    t.fn = std::move(fn);
    t.accesses = std::move(accesses);
    t.cost = cost;
    t.name = std::move(name);
    u_.process(t);
  }

 private:
  Unroller& u_;
  stf::TaskId next_id_ = 0;
};

}  // namespace

Runtime::Runtime(const engine::Launch& launch) : launch_(launch) {
  RIO_ASSERT_MSG(launch_.workers > 0, "need at least one worker");
}

template <typename Unroll>
support::RunStats Runtime::launch(const stf::DataRegistry& registry,
                                  std::size_t num_data,
                                  std::size_t trace_reserve,
                                  const Mapping& mapping, Unroll&& unroll) {
  RIO_ASSERT(mapping.valid());
  const std::uint32_t p = launch_.workers;
  stf::WorkerHarness harness("rio", launch_, registry, num_data, p);
  const bool bells = arenas_.reset(num_data, launch_, harness.watched());
  if (arenas_.locals.size() < p) arenas_.locals.resize(p);
  for (std::uint32_t w = 0; w < p; ++w)
    arenas_.locals[w].assign(num_data, LocalDataState{});  // keeps capacity
  harness.diagnose = [&] {
    return stall_diagnostic(harness.probes(), p, arenas_.shared.data(),
                            num_data);
  };
  return harness.run(
      pool_,
      [&](stf::HarnessWorker& w) {
        Unroller u{harness, w,       mapping, launch_,
                   arenas_, arenas_.locals[w.self].data(), bells};
        unroll(u);
      },
      trace_, sync_trace_, trace_reserve);
}

support::RunStats Runtime::run(const stf::FlowImage& image,
                               const Mapping& mapping) {
  return run(stf::ImageRange(image), mapping);
}

support::RunStats Runtime::run(const stf::ImageRange& range,
                               const Mapping& mapping) {
  // Hoist everything the unroll loop needs out of the per-task path: the
  // span and access arrays are the ONLY memory a worker touches for a task
  // it skips (plus its private local[] words) — the dense metadata that
  // makes p×n unrolling cheap.
  const std::size_t n = range.size();
  const stf::FlowImage::Span* spans = range.spans();
  const stf::Access* acc = range.accesses_base();
  const stf::TaskId first = n > 0 ? range.first_id() : 0;
  return launch(
      range.registry(), range.num_data(), n, mapping,
      [&, n, spans, acc, first](Unroller& u) {
        const Mapping& map = u.mapping;
        const stf::WorkerId self = u.w.self;
        LocalDataState* local = u.local;
        std::uint64_t skipped = 0;  // batched: keeps the declare loop tight
        for (std::size_t i = 0; i < n; ++i) {
          const stf::TaskId id = first + i;
          if (map(id) != self) {
            const stf::FlowImage::Span s = spans[i];
            for (std::uint32_t k = s.begin; k != s.end; ++k) {
              const stf::Access a = acc[k];
              if (is_write(a.mode))
                declare_write(local[a.data], id);
              else
                declare_read(local[a.data]);
            }
            ++skipped;
            continue;
          }
          u.execute(range.task(i));
          if (u.w.dead) break;
        }
        if (u.launch.collect_stats) u.w.stats.tasks_skipped += skipped;
        if (skipped > 0) u.w.obs.count(obs::Counter::kTasksSkipped, skipped);
      });
}

support::RunStats Runtime::run_program(const stf::DataRegistry& registry,
                                       const stf::ProgramFn& program,
                                       const Mapping& mapping) {
  return launch(registry, registry.size(), 0, mapping, [&](Unroller& u) {
    ReplaySink sink(u);
    program(sink);  // the worker IS the unroller
  });
}

}  // namespace rio::rt
