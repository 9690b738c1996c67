#include "analysis/hb_checker.hpp"

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/vector_clock.hpp"

namespace rio::analysis {
namespace {

using Clocks = VectorClocks;

std::string task_ref(const stf::TaskFlow& flow, stf::TaskId t) {
  std::string s = "task " + std::to_string(t);
  const std::string& name = flow.task(t).name;
  if (!name.empty()) s += " '" + name + "'";
  return s;
}

std::string data_ref(const stf::TaskFlow& flow, stf::DataId d) {
  const std::string& name = flow.registry().name(d);
  if (!name.empty()) return "'" + name + "'";
  return "data " + std::to_string(d);
}

}  // namespace

Report check_happens_before(const stf::TaskFlow& flow, const stf::Trace& trace,
                            const HbOptions& opts) {
  Report report;
  if (trace.empty()) {
    report.add("RC302", Severity::kWarning,
               "no trace events recorded; run the engine with "
               "collect_trace enabled");
    return report;
  }

  const std::size_t n_tasks = flow.num_tasks();
  const std::size_t n_data = flow.num_data();

  // Each event contributes two points, its acquire and its release stamp;
  // replay them in stamp order (an acquire before a release on a tie).
  struct Point {
    std::uint64_t stamp;
    bool release;
    const stf::TraceEvent* ev;
  };
  std::vector<Point> points;
  points.reserve(2 * trace.size());
  stf::WorkerId max_worker = 0;
  for (const stf::TraceEvent& ev : trace.events()) {
    if (ev.task >= n_tasks) continue;  // foreign event
    max_worker = std::max(max_worker, ev.worker);
    points.push_back({ev.acquire, false, &ev});
    points.push_back({ev.seq, true, &ev});
  }
  std::sort(points.begin(), points.end(), [](const Point& a, const Point& b) {
    return a.stamp != b.stamp ? a.stamp < b.stamp : !a.release && b.release;
  });
  const std::size_t W = static_cast<std::size_t>(max_worker) + 1;

  // Per-worker current clock; own component starts at 1 so epoch 0 means
  // "never observed".
  Clocks worker_clock(W, W);
  for (std::size_t w = 0; w < W; ++w) worker_clock.row(w)[w] = 1;
  // Per-data join of clocks at write releases / read releases.
  Clocks write_rel(n_data, W);
  Clocks read_rel(n_data, W);
  // Per-task: executing worker, epoch (own-component value while running),
  // and the clock snapshot after its acquires completed.
  std::vector<stf::WorkerId> task_worker(n_tasks, stf::kInvalidWorker);
  std::vector<std::uint64_t> task_epoch(n_tasks, 0);
  Clocks task_acq(n_tasks, W);

  for (const Point& pt : points) {
    const stf::TaskId t = pt.ev->task;
    const std::size_t w = pt.ev->worker;
    const auto& accesses = flow.task(t).accesses;
    if (!pt.release) {
      // The task's acquire opens a fresh epoch on its worker, then
      // synchronizes with the releases its dependency waits could have
      // observed: prior writes of every accessed object always; prior
      // reads too for the objects it writes.
      std::uint64_t* c = worker_clock.row(w);
      ++c[w];
      task_worker[t] = pt.ev->worker;
      task_epoch[t] = c[w];
      for (const stf::Access& a : accesses) {
        worker_clock.join(w, write_rel.row(a.data));
        if (stf::is_write(a.mode)) worker_clock.join(w, read_rel.row(a.data));
      }
      task_acq.assign(t, worker_clock.row(w));
    } else {
      // Releases are stamped after the body: publishing into the per-data
      // clocks here is what lets successors order after this whole task.
      for (const stf::Access& a : accesses) {
        if (stf::is_write(a.mode))
          write_rel.join(a.data, worker_clock.row(w));
        else
          read_rel.join(a.data, worker_clock.row(w));
      }
    }
  }

  // Tasks with accesses that never appeared in the trace cannot be
  // checked; say so rather than silently passing them.
  std::uint64_t missing = 0;
  stf::TaskId first_missing = stf::kInvalidTask;
  for (const stf::Task& t : flow.tasks()) {
    if (t.accesses.empty()) continue;
    if (task_worker[t.id] == stf::kInvalidWorker) {
      if (missing == 0) first_missing = t.id;
      ++missing;
    }
  }
  if (missing > 0)
    report.add("RC304", Severity::kWarning,
               std::to_string(missing) +
                   " task(s) with accesses are absent from the trace "
                   "(first: " +
                   task_ref(flow, first_missing) + "); they were not checked",
               first_missing, stf::kInvalidData, missing);

  // t1 happens-before t2 iff t2's acquire snapshot saw t1's epoch. Releases
  // are post-body, so observing the epoch implies the whole task finished.
  auto ordered = [&](stf::TaskId t1, stf::TaskId t2) {
    return task_epoch[t1] <= task_acq.row(t2)[task_worker[t1]];
  };

  // Group accessors per data object, then scan conflicting pairs.
  struct Accessor {
    stf::TaskId task;
    bool reads = false;
    bool writes = false;
  };
  std::vector<std::vector<Accessor>> by_data(n_data);
  for (const stf::Task& t : flow.tasks()) {
    if (task_worker[t.id] == stf::kInvalidWorker) continue;
    for (const stf::Access& a : t.accesses) {
      auto& v = by_data[a.data];
      if (v.empty() || v.back().task != t.id) v.push_back({t.id});
      v.back().reads |= stf::is_read(a.mode);
      v.back().writes |= stf::is_write(a.mode);
    }
  }

  std::uint64_t checks = 0;
  std::uint64_t races = 0;
  bool truncated = false;
  for (stf::DataId d = 0; d < n_data && !truncated; ++d) {
    const auto& v = by_data[d];
    for (std::size_t i = 0; i < v.size() && !truncated; ++i) {
      for (std::size_t j = i + 1; j < v.size(); ++j) {
        if (!v[i].writes && !v[j].writes) continue;  // read/read never races
        if (++checks > opts.max_pair_checks) {
          truncated = true;
          break;
        }
        const stf::TaskId t1 = v[i].task;
        const stf::TaskId t2 = v[j].task;
        if (ordered(t1, t2) || ordered(t2, t1)) continue;
        ++races;
        if (races <= opts.max_reported_races)
          report.add(
              "RC301", Severity::kError,
              "data race on " + data_ref(flow, d) + ": " +
                  task_ref(flow, t1) + " (" +
                  std::string(v[i].writes ? "write" : "read") + ", worker " +
                  std::to_string(task_worker[t1]) + ") and " +
                  task_ref(flow, t2) + " (" +
                  std::string(v[j].writes ? "write" : "read") + ", worker " +
                  std::to_string(task_worker[t2]) +
                  ") are not ordered by happens-before",
              t1, d);
      }
    }
  }
  if (races > opts.max_reported_races)
    report.add("RC301", Severity::kError,
               std::to_string(races - opts.max_reported_races) +
                   " further race pair(s) not listed",
               stf::kInvalidTask, stf::kInvalidData,
               races - opts.max_reported_races);
  if (truncated)
    report.add("RC303", Severity::kInfo,
               "pair scan stopped after " +
                   std::to_string(opts.max_pair_checks) +
                   " comparisons; later pairs were not checked");

  report.add_metric(std::to_string(points.size() / 2) + " trace events, " +
                    std::to_string(W) + " workers, " +
                    std::to_string(checks) + " conflicting pairs checked, " +
                    std::to_string(races) + " race(s)");
  return report;
}

}  // namespace rio::analysis
