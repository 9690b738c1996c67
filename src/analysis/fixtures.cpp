#include "analysis/fixtures.hpp"

#include "stf/types.hpp"

namespace rio::analysis::fixtures {

using stf::read;
using stf::readwrite;
using stf::write;

stf::TaskFlow bad_uninit_read() {
  stf::TaskFlow flow;
  auto scratch = flow.create_uninitialized_data<double>("scratch", 16);
  auto out = flow.create_data<double>("out", 16);
  // Reads `scratch` before anything has written it — the hazard.
  flow.add_virtual(1, {read(scratch), write(out)}, "consume");
  flow.add_virtual(1, {write(scratch)}, "init-too-late");
  flow.add_virtual(1, {read(scratch), readwrite(out)}, "consume-again");
  return flow;
}

stf::TaskFlow bad_dead_write() {
  stf::TaskFlow flow;
  auto x = flow.create_data<double>("x", 8);
  flow.add_virtual(1, {write(x)}, "wasted-write");   // overwritten below
  flow.add_virtual(1, {write(x)}, "real-write");
  flow.add_virtual(1, {read(x)}, "reader");
  return flow;
}

stf::TaskFlow bad_unused_handle() {
  stf::TaskFlow flow;
  auto used = flow.create_data<double>("used", 4);
  flow.create_data<double>("orphan", 4);  // never accessed
  flow.add_virtual(1, {write(used)}, "producer");
  flow.add_virtual(1, {read(used)}, "consumer");
  return flow;
}

stf::TaskFlow bad_redundant_edge() {
  stf::TaskFlow flow;
  auto a = flow.create_data<double>("a", 4);
  auto b = flow.create_data<double>("b", 4);
  flow.add_virtual(1, {write(a)}, "t0");
  flow.add_virtual(1, {read(a), write(b)}, "t1");
  // Depends on t0 directly (reads a) and through t1 (reads b): the direct
  // edge t0 -> t2 is implied by t0 -> t1 -> t2.
  flow.add_virtual(1, {read(b), read(a)}, "t2");
  return flow;
}

stf::TaskFlow bad_tiny_tasks() {
  // 16 tasks: exactly LintOptions::fusion_min_tasks, so the fixture sits on
  // the smallest flow RF501 is willing to warn about.
  stf::TaskFlow flow;
  auto x = flow.create_data<double>("x", 8);
  flow.add_virtual(5, {write(x)}, "tiny-head");
  for (int i = 0; i < 14; ++i)
    flow.add_virtual(5, {readwrite(x)}, "tiny-link");
  flow.add_virtual(5, {read(x)}, "tiny-tail");
  return flow;
}

namespace {

/// Two-phase body shared by the phase fixtures: producer tasks in a static
/// phase, consumers in a dynamic one, with a real data dependency between
/// the halves.
PhaseFixture two_phase_base() {
  PhaseFixture fx;
  auto x = fx.flow.create_data<double>("x", 4);
  auto y = fx.flow.create_data<double>("y", 4);
  fx.flow.add_virtual(1, {write(x)}, "p0");
  fx.flow.add_virtual(1, {write(y)}, "p1");
  fx.flow.add_virtual(1, {read(x), read(y)}, "c0");
  fx.flow.add_virtual(1, {readwrite(y)}, "c1");
  return fx;
}

}  // namespace

PhaseFixture bad_phase_mapping() {
  PhaseFixture fx = two_phase_base();
  LintPhase st;
  st.first = 0;
  st.count = 2;
  st.is_static = true;
  // Sends task 1 to worker 7 — beyond any sane --workers for this fixture.
  st.mapping = rt::mapping::table({0, 7}, "bad-static");
  LintPhase dyn;
  dyn.first = 2;
  dyn.count = 2;
  fx.phases = {st, dyn};
  return fx;
}

PhaseFixture bad_empty_phase() {
  PhaseFixture fx = two_phase_base();
  LintPhase a;
  a.first = 0;
  a.count = 2;
  a.is_static = true;
  a.mapping = rt::mapping::round_robin(2);
  LintPhase hole;  // zero tasks: two barriers back to back
  hole.first = 2;
  hole.count = 0;
  LintPhase b;
  b.first = 2;
  b.count = 2;
  fx.phases = {a, hole, b};
  return fx;
}

PhaseFixture cross_phase_dep() {
  PhaseFixture fx = two_phase_base();
  LintPhase a;
  a.first = 0;
  a.count = 2;
  a.is_static = true;
  a.mapping = rt::mapping::round_robin(2);
  LintPhase b;
  b.first = 2;
  b.count = 2;
  fx.phases = {a, b};  // c0/c1 read what p0/p1 wrote: edges cross the cut
  return fx;
}

RaceFixture injected_race() {
  RaceFixture fx;
  auto d = fx.flow.create_data<double>("shared", 4);
  fx.flow.add_virtual(10, {write(d)}, "writer-a");
  fx.flow.add_virtual(10, {write(d)}, "writer-b");

  // Disjoint intervals ([0,10) then [20,30)) in dependency order: the
  // interval-overlap validator is satisfied. But the stamps say writer-b
  // acquired (1) BEFORE writer-a released (2): nothing ordered the two
  // bodies — a race the wall clock happened to hide.
  fx.trace.record({/*task=*/0, /*worker=*/0, /*start=*/0, /*end=*/10,
                   /*seq=*/2, /*acquire=*/0});
  fx.trace.record({/*task=*/1, /*worker=*/1, /*start=*/20, /*end=*/30,
                   /*seq=*/3, /*acquire=*/1});
  return fx;
}

}  // namespace rio::analysis::fixtures
