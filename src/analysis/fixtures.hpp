// Known-bad flows for exercising the analyzers.
//
// Each fixture is deliberately minimal: one hazard, a couple of tasks, so a
// test (or `rioflow lint --workload lintfix:<name>`) can assert that the
// analyzer reports exactly the expected finding code. The race fixture also
// carries a hand-built Trace whose wall-clock intervals are disjoint — the
// interval overlap test passes while the happens-before checker, reading
// the same events' acquire/release stamps, must still report the race.
#pragma once

#include <vector>

#include "analysis/flow_lint.hpp"
#include "stf/task_flow.hpp"
#include "stf/trace.hpp"

namespace rio::analysis::fixtures {

/// RF001: a task reads an uninitialized scratch object before any write.
[[nodiscard]] stf::TaskFlow bad_uninit_read();

/// RF002: a write is overwritten with no intervening read.
[[nodiscard]] stf::TaskFlow bad_dead_write();

/// RF003: a data object is registered but never accessed.
[[nodiscard]] stf::TaskFlow bad_unused_handle();

/// RF004: a dependency edge is transitively implied by a two-hop path.
[[nodiscard]] stf::TaskFlow bad_redundant_edge();

/// RF501: a chain of tasks whose median cost sits far below the fusion
/// threshold — the flow `optimize --passes fuse` exists for.
[[nodiscard]] stf::TaskFlow bad_tiny_tasks();

/// RC301 material: two unordered writes whose recorded intervals do not
/// overlap. `trace` passes Trace::validate (the interval test), and its
/// stamps make check_happens_before report the race.
struct RaceFixture {
  stf::TaskFlow flow;
  stf::Trace trace;
};
[[nodiscard]] RaceFixture injected_race();

/// RH4xx material: a flow plus the hybrid phase partition to lint it under.
struct PhaseFixture {
  stf::TaskFlow flow;
  std::vector<LintPhase> phases;
};

/// RH401: a static phase whose mapping sends a task beyond the worker set.
[[nodiscard]] PhaseFixture bad_phase_mapping();

/// RH402: a partition containing a zero-task phase (barrier-only overhead).
[[nodiscard]] PhaseFixture bad_empty_phase();

/// RH403: a dependency edge crossing a phase boundary — serialized by the
/// barrier, not by any runtime protocol. Info, not a bug.
[[nodiscard]] PhaseFixture cross_phase_dep();

}  // namespace rio::analysis::fixtures
