#include "support/assert.hpp"
#include "obs/obs.hpp"
#include "sim/simulate.hpp"

namespace rio::sim {

Report simulate_hybrid(const stf::TaskFlow& flow,
                       const std::vector<hybrid::Phase>& phases,
                       const DecentralizedParams& dparams,
                       const CentralizedParams& cparams,
                       const TimeScale& scale) {
  const stf::FlowImage image = stf::FlowImage::compile(flow);
  return simulate_hybrid(image, phases, dparams, cparams, scale);
}

Report simulate_hybrid(const stf::FlowImage& image,
                       const std::vector<hybrid::Phase>& phases,
                       const DecentralizedParams& dparams,
                       const CentralizedParams& cparams,
                       const TimeScale& scale) {
  const std::uint32_t p = dparams.workers;
  RIO_ASSERT_MSG(cparams.workers == p,
                 "hybrid phases must share one worker pool");

  // Validate the tiling, mirroring hybrid::Runtime::run.
  std::size_t expect = 0;
  for (const auto& ph : phases) {
    RIO_ASSERT_MSG(ph.first == expect, "phases must tile the flow in order");
    expect += ph.count;
  }
  RIO_ASSERT_MSG(expect == image.size(), "phases must cover the flow");

  Report total;
  total.total_threads = p + 1;  // p workers + the dynamic phases' master
  total.stats.workers.resize(p + 1);
  // The master-capable thread idles through static phases. Its lens is
  // slot p, the slot the dynamic phases' master uses too.
  obs::WorkerObs idle_master;
  idle_master.bind(dparams.obs, p);
  std::uint64_t static_ticks = 0;

  for (const auto& ph : phases) {
    if (ph.count == 0) continue;
    const stf::ImageRange range(image, ph.first, ph.count);
    Report rep;
    if (ph.kind == hybrid::Phase::Kind::kStatic) {
      RIO_ASSERT(ph.mapping.valid());
      rep = simulate_decentralized(range, ph.mapping, dparams, scale);
      static_ticks += rep.makespan;
    } else {
      rep = simulate_centralized(range, cparams, scale);
    }
    total.makespan += rep.makespan;
    total.injected_throws += rep.injected_throws;
    total.injected_stalls += rep.injected_stalls;
    total.retried_tasks += rep.retried_tasks;
    total.failed_tasks += rep.failed_tasks;
    total.evictions += rep.evictions;
    total.tasks_replayed += rep.tasks_replayed;
    for (std::size_t w = 0; w < rep.stats.workers.size(); ++w)
      total.stats.workers[w < p ? w : p] += rep.stats.workers[w];
  }
  idle_master.idle_until(static_ticks);
  idle_master.commit(dparams.obs);
  total.stats.workers[p] += idle_master.stats(static_ticks);
  total.stats.wall_ns = total.makespan;
  return total;
}

}  // namespace rio::sim
