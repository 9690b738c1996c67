// micro_fuse — what the flowpass fuse/map passes buy (BENCH_fuse.json).
//
// The paper's Fig. 2-4 decomposition shows fine-grained flows drowning in
// per-task runtime overhead (e_r): below ~10us of work per task the
// protocol costs more than the kernels. `optimize --passes fuse` attacks
// exactly that regime by collapsing chains of tiny tasks into composite
// bodies, paying the publication protocol once per GROUP instead of once
// per task. This bench quantifies the win three ways:
//
//   * real      — fine-grained chain and gemm flows with counter-kernel
//                 bodies on the real rio engine: wall time unfused vs
//                 fused (same bodies, same total work);
//   * virtual   — the same rewrite under sim-rio: virtual makespan ticks,
//                 bit-deterministic, machine-comparable;
//   * tune      — the map pass's candidate search with --tune scoring:
//                 every candidate's simulated makespan, proving the chosen
//                 mapping never regresses the round-robin identity.
#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "engine/registry.hpp"
#include "flowpass/pass.hpp"
#include "rio/mapping.hpp"
#include "stf/flow_image.hpp"
#include "stf/task_flow.hpp"
#include "support/clock.hpp"
#include "workloads/workloads.hpp"

using namespace rio;

namespace {

/// `chains` independent chains of `len` tiny counter tasks each. Chains are
/// disjoint, so fusion can collapse every one of them while the flow still
/// scales across workers.
stf::TaskFlow make_fine_chains(std::size_t chains, std::size_t len,
                               std::uint64_t iters) {
  stf::TaskFlow flow;
  std::vector<stf::DataHandle<std::uint64_t>> data;
  data.reserve(chains);
  for (std::size_t c = 0; c < chains; ++c)
    data.push_back(
        flow.create_data<std::uint64_t>("chain" + std::to_string(c)));
  for (std::size_t i = 0; i < chains * len; ++i)
    flow.add("t" + std::to_string(i), workloads::counter_body(iters),
             {stf::readwrite(data[i % chains])}, /*cost=*/iters);
  return flow;
}

stf::TaskFlow make_fine_gemm(std::uint32_t tiles, std::uint64_t iters) {
  workloads::GemmDagSpec s;
  s.tiles = tiles;
  s.task_cost = iters;
  s.body = workloads::BodyKind::kCounter;
  s.num_workers = 4;
  return workloads::make_gemm_dag(s).flow;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::Options::parse(argc, argv);
  bench::JsonReporter json("fuse", opt);

  const std::size_t len = opt.quick ? 256 : 2048;
  const std::size_t chains = 8;
  const std::uint64_t iters = 16;  // far below the ~10us overhead knee
  const int reps = opt.quick ? 3 : 7;

  bench::header("micro_fuse",
                "flowpass fusion on fine-grained flows: wall time and "
                "virtual makespan, unfused vs `optimize --passes fuse`");

  flowpass::PassOptions popts;
  popts.fuse_threshold = 1000;
  popts.fuse_max_group = 16;

  const engine::Backend& rio_eng = *engine::Registry::instance().find("rio");
  const engine::Backend& sim_eng =
      *engine::Registry::instance().find("sim-rio");

  std::vector<std::pair<std::string, stf::TaskFlow>> flows;
  flows.emplace_back("chain-fine", make_fine_chains(chains, len, iters));
  flows.emplace_back("gemm-fine",
                     make_fine_gemm(opt.quick ? 6 : 10, iters));

  support::Table real({"workload", "workers", "tasks_unfused", "tasks_fused",
                       "unfused_ms", "fused_ms", "speedup"});
  support::Table virt({"workload", "workers", "unfused_ticks", "fused_ticks",
                       "speedup"});

  for (auto& [name, flow] : flows) {
    const stf::FlowImage image = stf::FlowImage::compile(flow);
    for (const std::uint32_t w : {2u, 4u}) {
      popts.workers = w;
      const flowpass::PipelineResult fused =
          flowpass::run_pipeline(image, {"fuse"}, popts);
      if (!fused.ok()) {
        std::cerr << "fuse failed: " << fused.error << "\n";
        return 1;
      }

      engine::Launch launch;
      launch.workers = w;
      launch.mapping = rt::mapping::round_robin(w);
      launch.collect_stats = false;

      const double unfused_ms =
          bench::min_wall_ms(reps, [&] { (void)rio_eng.run(image, launch); });
      const double fused_ms = bench::min_wall_ms(
          reps, [&] { (void)rio_eng.run(fused.image, launch); });
      real.row()
          .str(name)
          .integer(w)
          .integer(static_cast<long long>(image.size()))
          .integer(static_cast<long long>(fused.image.size()))
          .num(unfused_ms, 3)
          .num(fused_ms, 3)
          .num(unfused_ms / fused_ms, 2);

      engine::Launch sim_launch = launch;
      sim_launch.collect_stats = true;
      const std::uint64_t unfused_ticks =
          sim_eng.run(image, sim_launch).makespan;
      const std::uint64_t fused_ticks =
          sim_eng.run(fused.image, sim_launch).makespan;
      virt.row()
          .str(name)
          .integer(w)
          .integer(static_cast<long long>(unfused_ticks))
          .integer(static_cast<long long>(fused_ticks))
          .num(static_cast<double>(unfused_ticks) /
                   static_cast<double>(fused_ticks),
               2);
    }
  }
  std::cout << "-- real (rio engine, counter bodies, best of " << reps
            << ") --\n";
  bench::emit(real, opt, json, "real");
  std::cout << "-- virtual (sim-rio makespan ticks) --\n";
  bench::emit(virt, opt, json, "virtual");

  // Tuning: the map pass scored by simulated makespan. The round-robin
  // identity is always candidate 0, so "chosen <= identity" is visible in
  // the table itself.
  {
    workloads::CholeskyDagSpec s;
    s.tiles = opt.quick ? 6 : 10;
    s.task_cost = 40;
    s.body = workloads::BodyKind::kNone;
    s.num_workers = 4;
    stf::TaskFlow flow = workloads::make_cholesky_dag(s).flow;
    const stf::FlowImage image = stf::FlowImage::compile(flow);
    flowpass::PassOptions tune_opts;
    tune_opts.workers = 4;
    tune_opts.tune = true;
    const flowpass::PipelineResult tuned =
        flowpass::run_pipeline(image, {"map"}, tune_opts);
    if (!tuned.ok()) {
      std::cerr << "map --tune failed: " << tuned.error << "\n";
      return 1;
    }
    support::Table tune(
        {"workload", "candidate", "virtual_makespan", "chosen"});
    for (const flowpass::TuneStep& t : tuned.passes.front().tuning)
      tune.row()
          .str("cholesky-dag")
          .str(t.candidate)
          .integer(static_cast<long long>(t.score))
          .str(t.chosen ? "yes" : "");
    std::cout << "-- tune (map pass, simulated scoring, 4 workers) --\n";
    bench::emit(tune, opt, json, "tune");
  }

  std::cout << "Expected shape: fused wall time and ticks below unfused on "
               "both flows (protocol paid per composite, not per task); the "
               "chosen mapping's makespan never exceeds round-robin's.\n";
  bench::finish(json);
  return 0;
}
