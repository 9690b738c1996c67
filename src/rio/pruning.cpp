#include "rio/pruning.hpp"

#include <atomic>
#include <optional>

#include "support/assert.hpp"
#include "rio/stall_diag.hpp"

namespace rio::rt {
namespace {

/// Shared scan state: what a fully-unrolling worker's local replica would
/// contain just before each task.
struct ScanState {
  stf::TaskId last_writer = kNoWrite;
  std::uint64_t reads_since_write = 0;
};

}  // namespace

PrunedPlan::PrunedPlan(const stf::FlowImage& image, const Mapping& mapping,
                       std::uint32_t num_workers) {
  RIO_ASSERT(mapping.valid() && num_workers > 0);
  per_worker_.resize(num_workers);

  std::vector<ScanState> data(image.num_data());
  const stf::FlowImage::Span* spans = image.spans();
  const stf::Access* acc = image.accesses();
  const std::size_t n = image.size();
  const stf::TaskId first = image.first_id();

  for (std::size_t i = 0; i < n; ++i) {
    const stf::TaskId id = first + i;
    const stf::WorkerId owner = mapping(id);
    RIO_ASSERT_MSG(owner < num_workers, "mapping produced out-of-range worker");

    PrunedTask pt;
    pt.id = id;
    const stf::FlowImage::Span s = spans[i];
    for (std::uint32_t k = s.begin; k != s.end; ++k) {
      const stf::Access& a = acc[k];
      const ScanState& st = data[a.data];
      PrunedAccess pa;
      pa.data = a.data;
      pa.mode = a.mode;
      pa.expected_writer = st.last_writer;
      pa.expected_reads = st.reads_since_write;
      pt.accesses.push_back(pa);
    }
    per_worker_[owner].push_back(std::move(pt));
    ++total_;

    for (std::uint32_t k = s.begin; k != s.end; ++k) {
      const stf::Access& a = acc[k];
      ScanState& st = data[a.data];
      if (is_write(a.mode)) {
        st.last_writer = id;
        st.reads_since_write = 0;
      } else {
        st.reads_since_write += 1;
      }
    }
  }
}

std::shared_ptr<const PrunedPlan> PrunedPlanCache::get(
    const stf::FlowImage& image, const Mapping& mapping,
    std::uint32_t num_workers) {
  const Key key{image.serial(), image.fingerprint(), mapping.identity(),
                num_workers};
  for (const Entry& e : entries_) {
    if (e.key.serial == key.serial && e.key.fingerprint == key.fingerprint &&
        e.key.mapping == key.mapping && e.key.workers == key.workers)
      return e.plan;
  }
  auto plan = std::make_shared<const PrunedPlan>(image, mapping, num_workers);
  ++compiles_;
  entries_.push_back({key, plan});
  return plan;
}

PrunedRuntime::PrunedRuntime(const engine::Launch& launch) : launch_(launch) {
  RIO_ASSERT(launch_.workers > 0);
}

support::RunStats PrunedRuntime::run(const stf::FlowImage& image,
                                     const PrunedPlan& plan) {
  RIO_ASSERT_MSG(plan.num_workers() == launch_.workers,
                 "plan built for a different worker count");
  const std::uint32_t p = launch_.workers;
  const std::size_t num_data = image.num_data();
  stf::WorkerHarness harness("rio-pruned", launch_, image.registry(), num_data,
                             p);
  const bool bells = arenas_.reset(num_data, launch_, harness.watched());
  harness.diagnose = [this, &harness, p, num_data] {
    return stall_diagnostic(harness.probes(), p, arenas_.shared.data(),
                            num_data);
  };
  // Each worker walks only its own plan slice, waiting on the precomputed
  // expectations — no local replica, zero declare operations. Everything
  // the per-access loops read is a worker-local copy, kept in registers.
  return harness.run(
      pool_,
      [&](stf::HarnessWorker& w) {
        SharedDataState* const shared = arenas_.shared.data();
        const stf::TaskId first = image.first_id();
        const support::WaitPolicy policy = launch_.wait_policy;
        const std::atomic<bool>* const abort = harness.abort_flag();
        const bool word_notify = !bells;
        std::atomic<std::uint64_t>* const bell =
            bells ? &arenas_.bells[w.self].value : nullptr;
        for (const PrunedTask& pt : plan.tasks_for(w.self)) {
          harness.execute(
              w, image.task(pt.id - first),
              [&] {
                // Same protocol wait as the full runtime (acquire_for
                // through the proto:: seam), with the plan's expectations
                // in place of the local replica.
                stf::Acquired acq;
                for (const PrunedAccess& pa : pt.accesses) {
                  w.await(pa.data, pa.expected_writer, pa.expected_reads);
                  if (acquire_for(shared[pa.data], pa.expected_writer,
                                  pa.expected_reads, is_write(pa.mode),
                                  policy, abort, &w.obs.spin_iters, bell))
                    acq.note(pa.expected_writer, pa.data);
                }
                return acq;
              },
              [&] {
                for (const PrunedAccess& pa : pt.accesses) {
                  if (is_write(pa.mode))
                    publish_write(shared[pa.data], pt.id, policy, word_notify);
                  else
                    publish_read(shared[pa.data], policy, word_notify);
                }
                return bells ? arenas_.ring_peers(w.self, p, policy)
                             : stf::ReleaseTally{pt.accesses.size(),
                                                 std::nullopt};
              },
              [] {});
          if (w.dead) break;
        }
      },
      trace_, sync_trace_);
}

support::RunStats PrunedRuntime::run(const stf::FlowImage& image,
                                     const Mapping& mapping) {
  const auto plan = cache_.get(image, mapping, launch_.workers);
  return run(image, *plan);
}

}  // namespace rio::rt
