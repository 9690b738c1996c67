// FlowImage compilation and fast-replay equivalence.
//
// The compiled SoA image (stf/flow_image.hpp) must be a faithful mirror of
// the source flow — same accesses, costs, names, ids — and replaying it
// through any engine must be indistinguishable from rio's streaming
// run_program: identical traces (up to scheduling freedom), identical final
// data, clean happens-before verdicts, and a pruned-plan cache that
// compiles exactly once per (image, mapping, workers) key.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <gtest/gtest.h>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/hb_checker.hpp"
#include "engine/registry.hpp"
#include "rio/pruning.hpp"
#include "rio/runtime.hpp"
#include "coor/runtime.hpp"
#include "sim/simulate.hpp"
#include "stf/sequential.hpp"
#include "stf/stf.hpp"
#include "workloads/synthetic.hpp"

using namespace rio;

namespace {

stf::TaskFlow make_named_flow() {
  stf::TaskFlow flow;
  auto a = flow.create_data<int>("a");
  auto b = flow.create_data<int>("b");
  flow.add("init", {}, {stf::write(a)}, 10);
  flow.add("read-both", {}, {stf::read(a), stf::write(b)}, 20);
  flow.add_virtual(30, {});  // data-less, unnamed
  flow.add("fini", {}, {stf::readwrite(b)}, 40);
  return flow;
}

workloads::Workload make_equivalence_workload() {
  workloads::RandomDepsSpec spec;
  spec.num_tasks = 300;
  spec.num_data = 24;
  spec.task_cost = 50;
  spec.body = workloads::BodyKind::kCounter;
  spec.seed = 7;
  return workloads::make_random_deps(spec);
}

/// (task, worker) assignment of a trace, sorted by task id; the
/// scheduling-independent part every replay must agree on.
std::vector<std::pair<stf::TaskId, stf::WorkerId>> assignment(
    const stf::Trace& trace) {
  std::vector<std::pair<stf::TaskId, stf::WorkerId>> out;
  out.reserve(trace.size());
  for (const auto& ev : trace.events()) out.emplace_back(ev.task, ev.worker);
  std::sort(out.begin(), out.end());
  return out;
}

void expect_no_races(const stf::TaskFlow& flow, const stf::Trace& trace,
                     const char* what) {
  ASSERT_FALSE(trace.empty()) << what;
  const analysis::Report r = analysis::check_happens_before(flow, trace);
  EXPECT_FALSE(r.has("RC301")) << what;
  EXPECT_FALSE(r.has("RC304")) << what;
}

void expect_same_registry(const stf::DataRegistry& got,
                          const stf::DataRegistry& want, const char* what) {
  ASSERT_EQ(got.size(), want.size());
  for (stf::DataId d = 0; d < want.size(); ++d)
    EXPECT_EQ(std::memcmp(got.raw(d), want.raw(d), want.bytes(d)), 0)
        << what << ", object " << d;
}

}  // namespace

// ---------------------------------------------------------------- layout ---

TEST(FlowImageLayout, MirrorsTheSourceFlow) {
  const stf::TaskFlow flow = make_named_flow();
  const stf::FlowImage img = stf::FlowImage::compile(flow);

  EXPECT_EQ(img.size(), flow.num_tasks());
  EXPECT_EQ(img.num_data(), flow.num_data());
  EXPECT_EQ(img.first_id(), 0u);
  EXPECT_EQ(img.num_accesses_total(), 4u);
  EXPECT_EQ(img.total_cost(), 100u);
  EXPECT_EQ(&img.registry(), &flow.registry());

  for (std::size_t i = 0; i < img.size(); ++i) {
    const stf::Task& src = flow.task(i);
    EXPECT_EQ(img.task_id(i), src.id);
    EXPECT_EQ(img.cost(i), src.cost);
    EXPECT_EQ(img.priority(i), src.priority);
    EXPECT_EQ(img.name(i), std::string_view(src.name));
    EXPECT_EQ(&img.task(i), &src);
    ASSERT_EQ(img.num_accesses(i), src.accesses.size());
    const stf::Access* acc = img.acc_begin(i);
    for (std::size_t k = 0; k < src.accesses.size(); ++k) {
      EXPECT_EQ(acc[k].data, src.accesses[k].data);
      EXPECT_EQ(acc[k].mode, src.accesses[k].mode);
    }
  }

  // Accesses are flat and contiguous: spans tile [0, total).
  const auto* spans = img.spans();
  std::uint32_t cursor = 0;
  for (std::size_t i = 0; i < img.size(); ++i) {
    EXPECT_EQ(spans[i].begin, cursor);
    cursor = spans[i].end;
  }
  EXPECT_EQ(cursor, img.num_accesses_total());
}

TEST(FlowImageLayout, SerialsAreProcessUnique) {
  const stf::TaskFlow flow = make_named_flow();
  const stf::FlowImage a = stf::FlowImage::compile(flow);
  const stf::FlowImage b = stf::FlowImage::compile(flow);
  EXPECT_NE(a.serial(), 0u);
  EXPECT_NE(a.serial(), b.serial());
}

TEST(FlowImageLayout, SubrangeCompilationKeepsGlobalIds) {
  const stf::TaskFlow flow = make_named_flow();
  const stf::FlowImage img =
      stf::FlowImage::compile(stf::FlowRange(flow, 1, 2));
  EXPECT_EQ(img.size(), 2u);
  EXPECT_EQ(img.first_id(), 1u);
  EXPECT_EQ(img.task_id(0), 1u);
  EXPECT_EQ(img.name(0), "read-both");
  EXPECT_EQ(img.num_accesses(0), 2u);
  EXPECT_EQ(img.num_accesses(1), 0u);
}

TEST(FlowImageLayout, ImageRangeSlicesShareAbsoluteAccessIndices) {
  const stf::TaskFlow flow = make_named_flow();
  const stf::FlowImage img = stf::FlowImage::compile(flow);
  const stf::ImageRange slice(img, 1, 2);
  EXPECT_EQ(slice.size(), 2u);
  EXPECT_EQ(slice.first_id(), 1u);
  EXPECT_EQ(slice.task_id(1), 2u);
  // Slice spans index into the IMAGE-absolute access array.
  const auto s0 = slice.spans()[0];
  EXPECT_EQ(slice.accesses_base() + s0.begin, slice.acc_begin(0));
  EXPECT_EQ(slice.num_accesses(0), 2u);
  EXPECT_EQ(&slice.task(0), &flow.task(1));
}

// ---------------------------------------------------------------- replay ---

TEST(FlowImageReplay, RioStreamingImageAndPrunedAgree) {
  constexpr std::uint32_t kWorkers = 3;
  auto wl_seq = make_equivalence_workload();
  stf::SequentialExecutor{}.run(wl_seq.flow);

  auto wl_stream = make_equivalence_workload();
  auto wl_image = make_equivalence_workload();
  auto wl_pruned = make_equivalence_workload();
  const engine::Launch cfg{.workers = kWorkers,
                           .collect_trace = true};
  const stf::DependencyGraph graph(stf::FlowRange(wl_stream.flow));

  // Streaming: every worker re-submits the flow's tasks itself.
  rt::Runtime streaming(cfg);
  streaming.run_program(
      wl_stream.flow.registry(),
      [&](stf::SubmitSink& sink) {
        for (const stf::Task& t : wl_stream.flow.tasks())
          sink.submit(t.fn, t.accesses, t.cost, t.name);
      },
      wl_stream.mapping(kWorkers));
  ASSERT_TRUE(
      streaming.trace().validate(wl_stream.flow, graph, true).ok());
  expect_no_races(wl_stream.flow, streaming.trace(), "streaming");
  expect_same_registry(wl_stream.flow.registry(), wl_seq.flow.registry(),
                       "streaming");

  rt::Runtime image_rt(cfg);
  const stf::FlowImage image = stf::FlowImage::compile(wl_image.flow);
  image_rt.run(image, wl_image.mapping(kWorkers));
  ASSERT_TRUE(image_rt.trace().validate(wl_image.flow, graph, true).ok());
  expect_no_races(wl_image.flow, image_rt.trace(), "image");
  expect_same_registry(wl_image.flow.registry(), wl_seq.flow.registry(),
                       "image");

  rt::PrunedRuntime pruned(cfg);
  const stf::FlowImage pruned_image = stf::FlowImage::compile(wl_pruned.flow);
  pruned.run(pruned_image,
             rt::PrunedPlan(pruned_image, wl_pruned.mapping(kWorkers),
                            kWorkers));
  ASSERT_TRUE(pruned.trace().validate(wl_pruned.flow, graph, true).ok());
  expect_no_races(wl_pruned.flow, pruned.trace(), "pruned");
  expect_same_registry(wl_pruned.flow.registry(), wl_seq.flow.registry(),
                       "pruned");

  // Identical (task -> worker) assignment: the mapping is the schedule.
  EXPECT_EQ(assignment(streaming.trace()), assignment(image_rt.trace()));
  EXPECT_EQ(assignment(streaming.trace()), assignment(pruned.trace()));
}

TEST(FlowImageReplay, CoorImageReplayIsRepeatable) {
  // Two images replayed on ONE coor runtime: the second run recycles the
  // node arena and must be as clean as the first.
  auto wl_seq = make_equivalence_workload();
  stf::SequentialExecutor{}.run(wl_seq.flow);

  auto wl_first = make_equivalence_workload();
  auto wl_second = make_equivalence_workload();
  const engine::Launch cfg{.workers = 2,
                           .collect_trace = true};
  const stf::DependencyGraph graph(stf::FlowRange(wl_first.flow));

  coor::Runtime coor_rt(cfg);
  coor_rt.run(stf::FlowImage::compile(wl_first.flow));
  ASSERT_TRUE(coor_rt.trace().validate(wl_first.flow, graph, false).ok());
  expect_no_races(wl_first.flow, coor_rt.trace(), "coor first");
  expect_same_registry(wl_first.flow.registry(), wl_seq.flow.registry(),
                       "coor first");
  const std::size_t first_events = coor_rt.trace().size();

  coor_rt.run(stf::FlowImage::compile(wl_second.flow));
  ASSERT_TRUE(coor_rt.trace().validate(wl_second.flow, graph, false).ok());
  expect_no_races(wl_second.flow, coor_rt.trace(), "coor second");
  expect_same_registry(wl_second.flow.registry(), wl_seq.flow.registry(),
                       "coor second");

  // OoO scheduling may reorder, but both executions cover every task
  // exactly once.
  EXPECT_EQ(first_events, coor_rt.trace().size());
}

// ----------------------------------------------------------------- cache ---

TEST(PruningCache, SecondRunCompilesNothing) {
  // Through the registry: the rio-pruned backend's session cache outlives
  // each Backend::run, and Outcome::plan_compiles says what a call paid.
  auto wl = make_equivalence_workload();
  const stf::FlowImage image = stf::FlowImage::compile(wl.flow);
  const engine::Backend* pruned =
      engine::Registry::instance().find("rio-pruned");
  ASSERT_NE(pruned, nullptr);
  engine::Launch launch{.workers = 2};
  launch.mapping = wl.mapping(2);

  EXPECT_EQ(pruned->run(image, launch).plan_compiles, 1u);
  EXPECT_EQ(pruned->run(image, launch).plan_compiles, 0u);  // zero recompute
  EXPECT_EQ(pruned->run(image, launch).plan_compiles, 0u);

  // A different mapping is a different key...
  engine::Launch other = launch;
  other.mapping = rt::mapping::round_robin(2);
  EXPECT_EQ(pruned->run(image, other).plan_compiles, 1u);
  // ...and a recompiled image of the same flow is too (new serial).
  const stf::FlowImage again = stf::FlowImage::compile(wl.flow);
  EXPECT_EQ(pruned->run(again, launch).plan_compiles, 1u);
}

TEST(PruningCache, DeadMappingNeverAliasesANewOne) {
  // Mappings are keyed by closure address. Once a Mapping dies, a new one
  // can be allocated at the same address; the cache keeps a copy of each
  // entry's Mapping so that address stays taken, and the single(0) plan is
  // compiled instead of served the round-robin one.
  stf::TaskFlow flow;
  auto d = flow.create_data<int>("d");
  for (int i = 0; i < 8; ++i) flow.add_virtual(1, {stf::readwrite(d)});
  const stf::FlowImage image = stf::FlowImage::compile(flow);
  rt::PrunedPlanCache cache;
  {
    const auto plan = cache.get(image, rt::mapping::round_robin(2), 2);
    EXPECT_EQ(plan->tasks_for(0).size(), 4u);
  }
  {
    const auto plan = cache.get(image, rt::mapping::single(0), 2);
    EXPECT_EQ(plan->tasks_for(0).size(), 8u);
    EXPECT_EQ(plan->tasks_for(1).size(), 0u);
  }
  EXPECT_EQ(cache.compiles(), 2u);
}

TEST(PruningCache, CopiedMappingSharesIdentity) {
  const rt::Mapping a = rt::mapping::round_robin(2);
  const rt::Mapping b = a;  // copies share the closure => same identity
  EXPECT_EQ(a.identity(), b.identity());
  EXPECT_NE(a.identity(), rt::mapping::round_robin(2).identity());

  auto wl = make_equivalence_workload();
  const stf::FlowImage image = stf::FlowImage::compile(wl.flow);
  rt::PrunedPlanCache cache;
  const auto p1 = cache.get(image, a, 2);
  const auto p2 = cache.get(image, b, 2);
  EXPECT_EQ(p1.get(), p2.get());
  EXPECT_EQ(cache.compiles(), 1u);
  cache.get(image, a, 4);  // worker count is part of the key
  EXPECT_EQ(cache.compiles(), 2u);
}

TEST(PruningCache, ImagePlanMatchesFlowPlan) {
  // make_named_flow under round_robin(2):
  //   t0 init      W(a)          -> worker 0
  //   t1 read-both R(a) W(b)     -> worker 1
  //   t2 (virtual) no accesses   -> worker 0
  //   t3 fini      RW(b)         -> worker 1
  // Each access expects the flow's last writer before it and, for writes,
  // the reads since that writer — the values a fully-unrolling worker's
  // local replica would hold.
  // Access k is the image's flat access index:
  //   k0 = t0 W(a), k1 = t1 R(a), k2 = t1 W(b), k3 = t3 RW(b).
  const stf::TaskFlow flow = make_named_flow();
  const stf::FlowImage image = stf::FlowImage::compile(flow);
  const rt::PrunedPlan plan(image, rt::mapping::round_robin(2), 2);
  ASSERT_EQ(plan.total_tasks(), 4u);
  const auto w0 = plan.tasks_for(0);
  const auto w1 = plan.tasks_for(1);
  ASSERT_EQ(w0.size(), 2u);
  ASSERT_EQ(w1.size(), 2u);
  const auto span_of = [&](std::uint32_t i) { return image.spans()[i]; };

  EXPECT_EQ(image.task_id(w0[0]), 0u);
  ASSERT_EQ(span_of(w0[0]).end - span_of(w0[0]).begin, 1u);
  EXPECT_EQ(span_of(w0[0]).begin, 0u);
  EXPECT_EQ(plan.expected_writer(0), rt::kNoWrite);
  EXPECT_EQ(plan.expected_reads(0), 0u);
  EXPECT_EQ(image.task_id(w0[1]), 2u);
  EXPECT_EQ(span_of(w0[1]).begin, span_of(w0[1]).end);

  EXPECT_EQ(image.task_id(w1[0]), 1u);
  ASSERT_EQ(span_of(w1[0]).end - span_of(w1[0]).begin, 2u);
  EXPECT_EQ(span_of(w1[0]).begin, 1u);
  EXPECT_EQ(image.accesses()[1].mode, stf::AccessMode::kRead);
  EXPECT_EQ(plan.expected_writer(1), 0u);  // init wrote a
  EXPECT_EQ(image.accesses()[2].mode, stf::AccessMode::kWrite);
  EXPECT_EQ(plan.expected_writer(2), rt::kNoWrite);
  EXPECT_EQ(plan.expected_reads(2), 0u);

  EXPECT_EQ(image.task_id(w1[1]), 3u);
  ASSERT_EQ(span_of(w1[1]).end - span_of(w1[1]).begin, 1u);
  EXPECT_EQ(span_of(w1[1]).begin, 3u);
  EXPECT_EQ(plan.expected_writer(3), 1u);  // read-both wrote b
  EXPECT_EQ(plan.expected_reads(3), 0u);

  // A read between two writes is counted for the second writer.
  stf::TaskFlow rw;
  auto d = rw.create_data<int>("d");
  rw.add("w", {}, {stf::write(d)});
  rw.add("r1", {}, {stf::read(d)});
  rw.add("r2", {}, {stf::read(d)});
  rw.add("w2", {}, {stf::write(d)});
  const stf::FlowImage rw_image = stf::FlowImage::compile(rw);
  const rt::PrunedPlan rw_plan(rw_image, rt::mapping::single(), 1);
  const auto all = rw_plan.tasks_for(0);
  ASSERT_EQ(all.size(), 4u);
  for (std::uint32_t i = 0; i < 4; ++i)
    ASSERT_EQ(rw_image.spans()[all[i]].begin, i);  // one access per task
  EXPECT_EQ(rw_plan.expected_writer(1), 0u);
  EXPECT_EQ(rw_plan.expected_writer(2), 0u);
  EXPECT_EQ(rw_plan.expected_writer(3), 0u);
  EXPECT_EQ(rw_plan.expected_reads(3), 2u);
}

// ------------------------------------------------------------------- sim ---

TEST(SimImage, FlowAndImageEntryPointsAreBitIdentical) {
  workloads::RandomDepsSpec spec;
  spec.num_tasks = 400;
  spec.num_data = 32;
  spec.body = workloads::BodyKind::kNone;
  auto wl = workloads::make_random_deps(spec);
  const stf::FlowImage image = stf::FlowImage::compile(wl.flow);

  sim::DecentralizedParams dp;
  dp.workers = 4;
  const auto via_flow =
      sim::simulate_decentralized(wl.flow, wl.mapping(4), dp);
  const auto via_image =
      sim::simulate_decentralized(image, wl.mapping(4), dp);
  EXPECT_EQ(via_flow.makespan, via_image.makespan);
  ASSERT_EQ(via_flow.stats.workers.size(), via_image.stats.workers.size());
  for (std::size_t w = 0; w < via_flow.stats.workers.size(); ++w) {
    EXPECT_EQ(via_flow.stats.workers[w].buckets.task_ns,
              via_image.stats.workers[w].buckets.task_ns);
    EXPECT_EQ(via_flow.stats.workers[w].buckets.idle_ns,
              via_image.stats.workers[w].buckets.idle_ns);
    EXPECT_EQ(via_flow.stats.workers[w].buckets.runtime_ns,
              via_image.stats.workers[w].buckets.runtime_ns);
  }

  sim::CentralizedParams cp;
  cp.workers = 4;
  EXPECT_EQ(sim::simulate_centralized(wl.flow, cp).makespan,
            sim::simulate_centralized(image, cp).makespan);
}
