#include "rio/pruning.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <optional>

#include "support/assert.hpp"
#include "rio/stall_diag.hpp"

namespace rio::rt {

PrunedPlan::PrunedPlan(const stf::FlowImage& image, const Mapping& mapping,
                       std::uint32_t num_workers)
    : order_(image.size()),
      begin_(std::size_t{num_workers} + 1, 0),
      expect_(image.num_accesses_total()),
      fingerprint_(image.fingerprint()),
      first_(image.first_id()) {
  RIO_ASSERT(mapping.valid() && num_workers > 0);
  const std::size_t n = image.size();
  RIO_ASSERT_MSG(n < kNone, "pruned plans index tasks with u32");
  RIO_ASSERT_MSG(
      image.num_accesses_total() <= std::numeric_limits<std::uint32_t>::max(),
      "pruned plans index accesses with u32");

  // One scan: the expectation of access k is what a fully-unrolling
  // worker's local replica holds for its data just before the task, i.e.
  // the running per-data state; owners are counted for the placement below.
  std::vector<Expect> state(image.num_data());
  std::vector<stf::WorkerId> owner(n);
  const stf::FlowImage::Span* spans = image.spans();
  const stf::Access* acc = image.accesses();
  for (std::uint32_t i = 0; i < n; ++i) {
    const stf::WorkerId w = mapping(first_ + i);
    RIO_ASSERT_MSG(w < num_workers, "mapping produced out-of-range worker");
    owner[i] = w;
    ++begin_[w + 1];
    const stf::FlowImage::Span s = spans[i];
    for (std::uint32_t k = s.begin; k != s.end; ++k)
      expect_[k] = state[acc[k].data];
    for (std::uint32_t k = s.begin; k != s.end; ++k) {
      Expect& st = state[acc[k].data];
      if (is_write(acc[k].mode))
        st = Expect{i, 0};
      else
        st.reads += 1;
    }
  }

  // Counting sort: begin_ becomes the per-worker offsets, then each task
  // index lands in its owner's slice in flow order.
  for (std::uint32_t w = 0; w < num_workers; ++w) begin_[w + 1] += begin_[w];
  std::vector<std::uint32_t> next(begin_.begin(), begin_.end() - 1);
  for (std::uint32_t i = 0; i < n; ++i) order_[next[owner[i]]++] = i;
}

bool PrunedPlan::built_for(const stf::FlowImage& image) const noexcept {
  return fingerprint_ == image.fingerprint() && order_.size() == image.size() &&
         first_ == image.first_id() &&
         expect_.size() == image.num_accesses_total();
}

std::shared_ptr<const PrunedPlan> PrunedPlanCache::get(
    const stf::FlowImage& image, const Mapping& mapping,
    std::uint32_t num_workers, bool* compiled) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto hit = std::find_if(entries_.begin(), entries_.end(),
                                [&](const Entry& e) {
    return e.serial == image.serial() &&
           e.fingerprint == image.fingerprint() &&
           e.mapping.identity() == mapping.identity() &&
           e.workers == num_workers;
  });
  if (compiled != nullptr) *compiled = hit == entries_.end();
  if (hit != entries_.end()) {
    std::rotate(entries_.begin(), hit, hit + 1);  // now most recently used
    return entries_.front().plan;
  }
  auto plan = std::make_shared<const PrunedPlan>(image, mapping, num_workers);
  ++compiles_;
  if (entries_.size() == kCapacity) entries_.pop_back();
  entries_.insert(entries_.begin(), Entry{image.serial(), image.fingerprint(),
                                          mapping, num_workers, plan});
  return plan;
}

std::uint64_t PrunedPlanCache::compiles() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return compiles_;
}

PrunedRuntime::PrunedRuntime(const engine::Launch& launch) : launch_(launch) {
  RIO_ASSERT(launch_.workers > 0);
}

support::RunStats PrunedRuntime::run(const stf::FlowImage& image,
                                     const PrunedPlan& plan) {
  RIO_ASSERT_MSG(plan.num_workers() == launch_.workers,
                 "plan built for a different worker count");
  RIO_ASSERT_MSG(plan.built_for(image), "plan built for a different image");
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
        const stf::FlowImage::Span* const spans = image.spans();
        const stf::Access* const acc = image.accesses();
        const stf::TaskId first = image.first_id();
        const support::WaitPolicy policy = launch_.wait_policy;
        const std::atomic<bool>* const abort = harness.abort_flag();
        const bool word_notify = !bells;
        std::atomic<std::uint64_t>* const bell =
            bells ? &arenas_.bells[w.self].value : nullptr;
        std::uint64_t* const spins = &w.obs.counter(obs::Counter::kSpinIters);
        for (const std::uint32_t i : plan.tasks_for(w.self)) {
          const stf::FlowImage::Span s = spans[i];
          harness.execute(
              w, image.task(i),
              [&] {
                // Same protocol wait as the full runtime (acquire_for
                // through the proto:: seam), with the plan's expectations
                // in place of the local replica.
                stf::Acquired acq;
                for (std::uint32_t k = s.begin; k != s.end; ++k) {
                  const stf::DataId d = acc[k].data;
                  const stf::TaskId writer = plan.expected_writer(k);
                  const std::uint64_t reads = plan.expected_reads(k);
                  w.await(d, writer, reads);
                  if (acquire_for(shared[d], writer, reads,
                                  is_write(acc[k].mode), policy, abort, spins,
                                  bell))
                    acq.note(writer, d);
                }
                return acq;
              },
              [&] {
                const stf::TaskId id = first + i;
                for (std::uint32_t k = s.begin; k != s.end; ++k) {
                  if (is_write(acc[k].mode))
                    publish_write(shared[acc[k].data], id, policy,
                                  word_notify);
                  else
                    publish_read(shared[acc[k].data], policy, word_notify);
                }
                return bells ? arenas_.ring_peers(w.self, p, policy)
                             : stf::ReleaseTally{s.end - s.begin,
                                                 std::nullopt};
              },
              [] {});
          if (w.dead) break;
        }
      },
      trace_);
}

}  // namespace rio::rt
