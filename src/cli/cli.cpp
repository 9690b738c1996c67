#include "cli/cli.hpp"

#include <algorithm>
#include <charconv>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <vector>

#include "analysis/analysis.hpp"
#include "coor/coor.hpp"
#include "engine/registry.hpp"
#include "engine/supervisor.hpp"
#include "flowpass/pass.hpp"
#include "metrics/efficiency.hpp"
#include "modelcheck/impl.hpp"
#include "obs/causal.hpp"
#include "obs/export.hpp"
#include "obs/obs.hpp"
#include "rio/rio.hpp"
#include "support/clock.hpp"
#include "support/format.hpp"
#include "support/json.hpp"
#include "support/json_read.hpp"
#include "stf/stf.hpp"
#include "workloads/workloads.hpp"

namespace rio::cli {
namespace {

bool to_u64(const std::string& s, std::uint64_t& out) {
  const char* b = s.data();
  const char* e = b + s.size();
  const auto r = std::from_chars(b, e, out);
  return r.ec == std::errc{} && r.ptr == e;
}

bool to_u32(const std::string& s, std::uint32_t& out) {
  std::uint64_t v = 0;
  if (!to_u64(s, v) || v > 0xFFFFFFFFull) return false;
  out = static_cast<std::uint32_t>(v);
  return true;
}

/// Virtual-time backends never execute bodies, so building counter kernels
/// for them would be wasted setup; every real backend gets real bodies.
workloads::BodyKind body_for(const engine::Backend& backend) {
  return backend.caps().virtual_time ? workloads::BodyKind::kNone
                                     : workloads::BodyKind::kCounter;
}

/// Builds the selected workload with explicit task bodies; returns false +
/// error on unknown names. The chaos sweep passes kFold to get
/// oracle-checkable data, everything else derives the kind from the engine.
bool build_workload(const Options& o, workloads::BodyKind body,
                    workloads::Workload& out, std::string& error) {
  if (o.workload == "independent") {
    workloads::IndependentSpec s;
    s.num_tasks = o.tasks;
    s.task_cost = o.task_size;
    s.body = body;
    s.num_workers = o.workers;
    out = workloads::make_independent(s);
  } else if (o.workload == "random") {
    workloads::RandomDepsSpec s;
    s.num_tasks = o.tasks;
    s.task_cost = o.task_size;
    s.body = body;
    s.seed = o.seed;
    s.num_workers = o.workers;
    out = workloads::make_random_deps(s);
  } else if (o.workload == "chain") {
    workloads::ChainSpec s;
    s.num_tasks = o.tasks;
    s.task_cost = o.task_size;
    s.body = body;
    s.num_workers = o.workers;
    out = workloads::make_chain(s);
  } else if (o.workload == "gemm") {
    workloads::GemmDagSpec s;
    s.tiles = o.tiles;
    s.task_cost = o.task_size;
    s.body = body;
    s.num_workers = o.workers;
    out = workloads::make_gemm_dag(s);
  } else if (o.workload == "lu") {
    workloads::LuDagSpec s;
    s.row_tiles = o.tiles;
    s.col_tiles = o.tiles;
    s.task_cost = o.task_size;
    s.body = body;
    s.num_workers = o.workers;
    out = workloads::make_lu_dag(s);
  } else if (o.workload == "cholesky") {
    workloads::CholeskyDagSpec s;
    s.tiles = o.tiles;
    s.task_cost = o.task_size;
    s.body = body;
    s.num_workers = o.workers;
    out = workloads::make_cholesky_dag(s);
  } else if (o.workload == "stencil") {
    workloads::StencilSpec s;
    s.chunks = o.width;
    s.steps = o.steps;
    s.task_cost = o.task_size;
    s.body = body;
    s.num_workers = o.workers;
    out = workloads::make_stencil_dag(s);
  } else if (o.workload.rfind("taskbench:", 0) == 0) {
    const std::string name = o.workload.substr(10);
    workloads::TaskBenchSpec s;
    bool found = false;
    for (auto p : workloads::kAllTaskBenchPatterns)
      if (name == workloads::to_string(p)) {
        s.pattern = p;
        found = true;
      }
    if (!found) {
      error = "unknown taskbench pattern '" + name + "'";
      return false;
    }
    s.width = o.width;
    s.steps = o.steps;
    s.task_cost = o.task_size;
    s.body = body;
    s.num_workers = o.workers;
    out = workloads::make_taskbench(s);
  } else if (o.workload.rfind("lintfix:", 0) == 0) {
    // Seeded-bad flows from src/analysis — each carries exactly one hazard
    // so `rioflow lint` can demonstrate (and tests can assert) the finding.
    const std::string name = o.workload.substr(8);
    if (name == "uninit-read") {
      out.flow = analysis::fixtures::bad_uninit_read();
    } else if (name == "dead-write") {
      out.flow = analysis::fixtures::bad_dead_write();
    } else if (name == "unused-handle") {
      out.flow = analysis::fixtures::bad_unused_handle();
    } else if (name == "redundant-edge") {
      out.flow = analysis::fixtures::bad_redundant_edge();
    } else if (name == "race") {
      out.flow = analysis::fixtures::injected_race().flow;
    } else if (name == "phase-mapping") {
      out.flow = analysis::fixtures::bad_phase_mapping().flow;
    } else if (name == "empty-phase") {
      out.flow = analysis::fixtures::bad_empty_phase().flow;
    } else if (name == "cross-phase-dep") {
      out.flow = analysis::fixtures::cross_phase_dep().flow;
    } else if (name == "tiny-tasks") {
      out.flow = analysis::fixtures::bad_tiny_tasks();
    } else {
      error = "unknown lint fixture '" + name +
              "' (uninit-read|dead-write|unused-handle|redundant-edge|race|"
              "phase-mapping|empty-phase|cross-phase-dep|tiny-tasks)";
      return false;
    }
    out.name = o.workload;
  } else {
    error = "unknown workload '" + o.workload + "'";
    return false;
  }
  return true;
}

bool pick_mapping(const Options& o, const workloads::Workload& wl,
                  rt::Mapping& out, std::string& error) {
  if (o.mapping == "rr") {
    out = rt::mapping::round_robin(o.workers);
  } else if (o.mapping == "block") {
    out = rt::mapping::block(wl.flow.num_tasks(), o.workers);
  } else if (o.mapping == "owner") {
    out = wl.mapping(o.workers);
  } else {
    error = "unknown mapping '" + o.mapping + "' (rr|block|owner)";
    return false;
  }
  return true;
}

bool pick_policy(const Options& o, support::WaitPolicy& out,
                 std::string& error) {
  if (o.policy == "spin") out = support::WaitPolicy::kSpin;
  else if (o.policy == "yield") out = support::WaitPolicy::kSpinYield;
  else if (o.policy == "block") out = support::WaitPolicy::kBlock;
  else {
    error = "unknown policy '" + o.policy + "' (spin|yield|block)";
    return false;
  }
  return true;
}

bool pick_scheduler(const Options& o, coor::SchedulerKind& out,
                    std::string& error) {
  if (o.scheduler == "fifo") out = coor::SchedulerKind::kFifo;
  else if (o.scheduler == "lifo") out = coor::SchedulerKind::kLifo;
  else if (o.scheduler == "locality") out = coor::SchedulerKind::kLocality;
  else if (o.scheduler == "priority") out = coor::SchedulerKind::kPriority;
  else {
    error = "unknown scheduler '" + o.scheduler + "'";
    return false;
  }
  return true;
}

bool pick_queue(const Options& o, coor::QueueKind& out, std::string& error) {
  if (o.queue == "locked") out = coor::QueueKind::kLocked;
  else if (o.queue == "ring") out = coor::QueueKind::kRing;
  else {
    error = "unknown queue '" + o.queue + "' (locked|ring)";
    return false;
  }
  return true;
}

/// Assembles an engine::Launch from the CLI knobs. Only the string parsing
/// can fail (exit 1); capability mismatches are the registry's job and
/// surface later as one structured UnsupportedLaunch (exit 2).
bool make_launch(const Options& o, const workloads::Workload& wl,
                 engine::Launch& launch, std::string& error) {
  launch.workers = o.workers;
  if (!pick_mapping(o, wl, launch.mapping, error)) return false;
  if (!pick_policy(o, launch.wait_policy, error)) return false;
  if (!pick_scheduler(o, launch.scheduler, error)) return false;
  if (!pick_queue(o, launch.queue, error)) return false;
  return true;
}

bool parse_fail_on(const std::string& s, analysis::Severity& out,
                   std::string& error) {
  if (s == "error") out = analysis::Severity::kError;
  else if (s == "warning") out = analysis::Severity::kWarning;
  else if (s == "info") out = analysis::Severity::kInfo;
  else {
    error = "unknown --fail-on '" + s + "' (error|warning|info)";
    return false;
  }
  return true;
}

/// `rioflow lint`: pure static analysis, nothing executes.
int run_lint(const Options& o, std::ostream& out, std::ostream& err) {
  std::string error;
  analysis::Severity threshold{};
  if (!parse_fail_on(o.fail_on, threshold, error)) {
    err << "rioflow: " << error << "\n";
    return 1;
  }
  workloads::Workload wl;
  // Static analysis: bodies never run, so the kind does not matter.
  if (!build_workload(o, workloads::BodyKind::kCounter, wl, error)) {
    err << "rioflow: " << error << "\n";
    return 1;
  }
  stf::DependencyGraph graph(wl.flow);
  rt::Mapping mapping;
  if (!pick_mapping(o, wl, mapping, error)) {
    err << "rioflow: " << error << "\n";
    return 1;
  }
  analysis::LintOptions lo;
  lo.mapping = &mapping;
  lo.num_workers = o.workers;
  lo.counter_bits = o.counter_bits;
  lo.fusion_threshold = o.fuse_threshold;
  // The phase fixtures carry their hybrid partition with them; regular
  // workloads have no phase structure to lint (RH4xx needs a partition).
  std::vector<analysis::LintPhase> phases;
  if (o.workload == "lintfix:phase-mapping")
    phases = analysis::fixtures::bad_phase_mapping().phases;
  else if (o.workload == "lintfix:empty-phase")
    phases = analysis::fixtures::bad_empty_phase().phases;
  else if (o.workload == "lintfix:cross-phase-dep")
    phases = analysis::fixtures::cross_phase_dep().phases;
  if (!phases.empty()) lo.phases = &phases;
  const analysis::Report report = analysis::lint_flow(wl.flow, graph, lo);
  out << "-- lint: " << wl.name << " --\n";
  report.print(out);
  if (!o.json_path.empty()) {
    std::ofstream f(o.json_path);
    if (!f) {
      err << "rioflow: cannot write " << o.json_path << "\n";
      return 2;
    }
    report.write_json(f, "rio.lint.v1");
    out << "wrote " << o.json_path << "\n";
  }
  return report.count_at_least(threshold) > 0 ? 3 : 0;
}

/// `rioflow check`: execute with sync recording, then validate the trace
/// (interval test) and run the happens-before race checker on top.
int run_check(const Options& o, std::ostream& out, std::ostream& err) {
  std::string error;
  analysis::Severity threshold{};
  if (!parse_fail_on(o.fail_on, threshold, error)) {
    err << "rioflow: " << error << "\n";
    return 1;
  }
  const engine::Backend* backend =
      engine::Registry::instance().find_or_error(o.engine, error);
  if (backend == nullptr) {
    err << "rioflow: " << error << "\n";
    return 1;
  }
  workloads::Workload wl;
  if (!build_workload(o, body_for(*backend), wl, error)) {
    err << "rioflow: " << error << "\n";
    return 1;
  }
  stf::DependencyGraph graph(wl.flow);

  stf::Trace trace;
  bool worker_in_order = false;
  if (o.workload == "lintfix:race") {
    // The injected fixture IS the recorded execution: replay it instead of
    // running (a real run of this flow is correctly ordered).
    auto fx = analysis::fixtures::injected_race();
    trace = std::move(fx.trace);
  } else {
    engine::Launch launch;
    if (!make_launch(o, wl, launch, error)) {
      err << "rioflow: " << error << "\n";
      return 1;
    }
    launch.collect_trace = true;
    const stf::FlowImage image = stf::FlowImage::compile(wl.flow);
    try {
      engine::Outcome outcome = backend->run(image, launch);
      trace = std::move(outcome.trace);
    } catch (const engine::UnsupportedLaunch& e) {
      // One registry-generated error for every "that engine cannot record
      // a trace" case — sims, seq, hybrid alike.
      err << "rioflow: " << e.what() << "\n";
      return 2;
    }
    worker_in_order = backend->caps().in_order;
  }

  out << "-- check: " << wl.name << " --\n";
  const stf::ValidationResult vr =
      trace.validate(wl.flow, graph, worker_in_order);
  if (!vr.ok())
    out << "interval validation: FAILED (" << vr.reason << ")\n";
  else if (!vr.timing_checked)
    out << "interval validation: skipped (" << vr.reason << ")\n";
  else
    out << "interval validation: ok\n";

  const analysis::Report report =
      analysis::check_happens_before(wl.flow, trace);
  report.print(out);
  if (!o.json_path.empty()) {
    std::ofstream f(o.json_path);
    if (!f) {
      err << "rioflow: cannot write " << o.json_path << "\n";
      return 2;
    }
    analysis::Report full = report;
    full.add_metric(std::string("interval validation: ") +
                    (vr.ok() ? (vr.timing_checked ? "ok" : "skipped")
                             : "failed"));
    full.write_json(f, "rio.check.v1");
    out << "wrote " << o.json_path << "\n";
  }
  if (!vr.ok()) return 2;
  return report.count_at_least(threshold) > 0 ? 3 : 0;
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> parts;
  std::string cur;
  for (char c : s) {
    if (c == ',') {
      if (!cur.empty()) parts.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) parts.push_back(cur);
  return parts;
}

/// Parses the "--retry-tasks id=N,id=N" override list into the policy's
/// per-task attempt budgets (support::RetryPolicy::task_attempts).
bool parse_retry_tasks(const std::string& spec, support::RetryPolicy& retry,
                       std::string& error) {
  for (const std::string& part : split_csv(spec)) {
    const auto eq = part.find('=');
    std::uint64_t task = 0;
    std::uint32_t attempts = 0;
    if (eq == std::string::npos || !to_u64(part.substr(0, eq), task) ||
        !to_u32(part.substr(eq + 1), attempts) || attempts == 0) {
      error = "bad --retry-tasks entry '" + part + "' (want id=N, N >= 1)";
      return false;
    }
    retry.task_attempts.emplace_back(task, attempts);
  }
  return true;
}

/// Byte image of every data object in a registry — the oracle comparand.
std::vector<std::vector<std::byte>> data_image(const stf::DataRegistry& reg) {
  std::vector<std::vector<std::byte>> img(reg.size());
  for (std::size_t d = 0; d < reg.size(); ++d) {
    const auto id = static_cast<stf::DataId>(d);
    img[d].resize(reg.bytes(id));
    if (!img[d].empty()) std::memcpy(img[d].data(), reg.raw(id), img[d].size());
  }
  return img;
}

/// `rioflow chaos`: run the selected workloads under a deterministic
/// fault-plan sweep (kinds x seeds x rates x engines) with retry+rollback
/// and the progress watchdog enabled, verifying every surviving run
/// byte-for-byte against the sequential oracle. Crash cells kill workers
/// permanently and run under engine::run_supervised, so the oracle check
/// additionally covers evict-and-remap recovery.
int run_chaos(const Options& o, std::ostream& out, std::ostream& err) {
  std::string error;
  const std::vector<std::string> engines = split_csv(o.engines);
  if (engines.empty()) {
    err << "rioflow: --engines is empty\n";
    return 1;
  }
  std::vector<std::string> kinds;
  if (o.faults == "all") kinds = {"transient", "stall", "crash"};
  else if (o.faults == "transient" || o.faults == "stall" ||
           o.faults == "crash")
    kinds = {o.faults};
  else {
    err << "rioflow: unknown --faults '" << o.faults
        << "' (transient|stall|crash|all)\n";
    return 1;
  }
  const bool crashes =
      std::find(kinds.begin(), kinds.end(), "crash") != kinds.end();
  if (crashes && o.workers < 2) {
    err << "rioflow: --faults crash needs --workers >= 2 (the survivors "
           "absorb the evicted worker's tasks)\n";
    return 1;
  }
  for (const std::string& e : engines) {
    const engine::Backend* b =
        engine::Registry::instance().find_or_error(e, error);
    if (b == nullptr) {
      err << "rioflow: " << error << "\n";
      return 1;
    }
    if (!b->caps().executes_bodies) {
      // The sweep verifies data bytes against the sequential oracle, which
      // is meaningless when task bodies never run (virtual-time backends).
      err << "rioflow: engine '" << e
          << "' cannot run chaos: task bodies never execute "
             "(no executes_bodies capability)\n";
      return 2;
    }
    if (crashes && !b->caps().supports_recovery) {
      err << "rioflow: engine '" << e
          << "' cannot run crash chaos: no supports_recovery capability "
             "(see `rioflow engines`)\n";
      return 2;
    }
  }
  if (o.fault_rate < 0.0 || o.fault_rate > 1.0) {
    err << "rioflow: --fault-rate must be in [0, 1]\n";
    return 1;
  }
  support::RetryPolicy retry{.max_attempts = o.retries};
  if (!o.retry_tasks.empty() &&
      !parse_retry_tasks(o.retry_tasks, retry, error)) {
    err << "rioflow: " << error << "\n";
    return 1;
  }
  support::WaitPolicy policy{};
  coor::SchedulerKind scheduler{};
  if (!pick_policy(o, policy, error) || !pick_scheduler(o, scheduler, error)) {
    err << "rioflow: " << error << "\n";
    return 1;
  }

  const std::vector<std::string> wl_names =
      o.workload_given ? split_csv(o.workload)
                       : std::vector<std::string>{"chain", "cholesky"};
  std::vector<double> rates{o.fault_rate};
  if (!o.quick && o.fault_rate > 0.0)
    rates.push_back(std::min(1.0, o.fault_rate * 2.0));
  const std::uint32_t seeds =
      o.quick ? std::min<std::uint32_t>(o.fault_seeds, 2) : o.fault_seeds;

  std::uint64_t runs = 0, ok = 0, exhausted = 0, stalled = 0, mismatched = 0,
                lost = 0, unexpected = 0, total_throws = 0, total_stalls = 0,
                total_crashes = 0, total_evictions = 0, total_replayed = 0,
                total_retried = 0;

  // One row per (workload, engine, kind, rate, seed) cell for --json.
  struct ChaosCell {
    std::string workload, engine, kind, verdict;
    double rate = 0.0;
    std::uint64_t seed = 0, throws = 0, stalls = 0, crashes = 0,
                  evictions = 0, replayed = 0;
    bool ok = false;
  };
  std::vector<ChaosCell> cells;

  for (const std::string& wname : wl_names) {
    Options wo = o;
    wo.workload = wname;
    if (o.quick) {
      wo.tasks = std::min<std::uint64_t>(wo.tasks, 256);
      wo.tiles = std::min<std::uint32_t>(wo.tiles, 4);
      wo.task_size = std::min<std::uint64_t>(wo.task_size, 200);
    }

    // Sequential oracle: the same flow with fold bodies, executed in flow
    // order — byte-identical to any fault-free dependency-respecting run.
    std::vector<std::vector<std::byte>> oracle;
    {
      workloads::Workload wl;
      if (!build_workload(wo, workloads::BodyKind::kFold, wl, error)) {
        err << "rioflow: " << error << "\n";
        return 1;
      }
      stf::SequentialExecutor{}.run(wl.flow);
      oracle = data_image(wl.flow.registry());
    }

    for (const std::string& ename : engines) {
      const engine::Backend& backend =
          *engine::Registry::instance().find(ename);
      for (const std::string& kind : kinds) {
        for (double rate : rates) {
          for (std::uint32_t s = 0; s < seeds; ++s) {
            // Fresh flow per run: data starts from zero again.
            workloads::Workload wl;
            if (!build_workload(wo, workloads::BodyKind::kFold, wl, error)) {
              err << "rioflow: " << error << "\n";
              return 1;
            }
            engine::Launch launch;
            if (!pick_mapping(wo, wl, launch.mapping, error)) {
              err << "rioflow: " << error << "\n";
              return 1;
            }

            support::FaultPlan plan;
            plan.seed = o.seed + s;
            if (kind == "transient") {
              plan.throw_rate = rate;
            } else if (kind == "stall") {
              // Bounded stall windows well inside the watchdog budget: the
              // run must survive them, not trip the tripwire.
              plan.stall_rate = rate;
              plan.stall_ns = 2'000'000;
              plan.max_stalls = 4;
            } else {
              // Permanent worker deaths, capped so the supervisor always
              // has a survivor left to absorb the evicted worker's tasks.
              plan.crash_rate = rate;
              plan.max_crashes = std::min<std::uint32_t>(o.workers - 1, 2);
            }
            support::FaultInjector injector(plan);

            launch.workers = o.workers;
            launch.wait_policy = policy;
            launch.scheduler = scheduler;
            launch.collect_stats = false;
            launch.retry = retry;
            launch.fault = &injector;
            launch.watchdog_ns = o.watchdog_ms * 1'000'000ull;
            const stf::FlowImage image = stf::FlowImage::compile(wl.flow);

            ++runs;
            bool survived = false;
            std::string verdict;
            engine::Outcome outcome;
            try {
              // Crash cells go through the supervisor: worker loss becomes
              // evict-and-remap + resume instead of a run abort.
              outcome = kind == "crash"
                            ? engine::run_supervised(backend, image, launch)
                            : backend.run(image, launch);
              survived = true;
              verdict = "ok";
            } catch (const engine::UnsupportedLaunch& e) {
              err << "rioflow: " << e.what() << "\n";
              return 2;
            } catch (const stf::WorkerLost& l) {
              ++lost;
              verdict = "WORKER LOST (task " +
                        std::to_string(l.deaths().empty()
                                           ? 0
                                           : l.deaths().front().task) +
                        ", unrecovered)";
            } catch (const stf::StallError&) {
              ++stalled;
              verdict = "STALLED";
            } catch (const stf::TaskFailure& f) {
              ++exhausted;
              verdict = "exhausted (task " + std::to_string(f.report().task) +
                        " after " + std::to_string(f.report().attempts) +
                        " attempts)";
            } catch (const std::exception& e) {
              ++unexpected;
              verdict = std::string("ERROR: ") + e.what();
            }
            if (survived) {
              if (data_image(wl.flow.registry()) == oracle) {
                ++ok;
              } else {
                ++mismatched;
                verdict = "ORACLE MISMATCH";
              }
            }
            const std::uint64_t injected = injector.injected_throws() +
                                           injector.injected_stalls() +
                                           injector.injected_crashes();
            if (injected > 0) ++total_retried;
            total_throws += injector.injected_throws();
            total_stalls += injector.injected_stalls();
            total_crashes += injector.injected_crashes();
            total_evictions += outcome.evictions;
            total_replayed += outcome.tasks_replayed;
            cells.push_back({wname, ename, kind, verdict, rate, plan.seed,
                             injector.injected_throws(),
                             injector.injected_stalls(),
                             injector.injected_crashes(), outcome.evictions,
                             outcome.tasks_replayed, verdict == "ok"});

            out << "chaos: " << wname << " engine=" << ename
                << " kind=" << kind << " rate=" << rate
                << " seed=" << plan.seed
                << " throws=" << injector.injected_throws()
                << " crashes=" << injector.injected_crashes();
            if (outcome.evictions > 0)
              out << " evicted=" << outcome.evictions
                  << " replayed=" << outcome.tasks_replayed;
            out << " -> " << verdict << "\n";
          }
        }
      }
    }
  }

  out << "-- chaos summary --\n"
      << "runs=" << runs << " ok=" << ok << " exhausted=" << exhausted
      << " stalled=" << stalled << " mismatched=" << mismatched
      << " worker-lost=" << lost << " errors=" << unexpected
      << " injected-throws=" << total_throws
      << " injected-stalls=" << total_stalls
      << " injected-crashes=" << total_crashes
      << " evictions=" << total_evictions
      << " tasks-replayed=" << total_replayed
      << " runs-with-faults=" << total_retried << "\n";
  const bool bad = stalled > 0 || mismatched > 0 || lost > 0 || unexpected > 0;
  out << (bad ? "chaos: FAILED\n"
              : "chaos: all surviving runs matched the sequential oracle\n");
  if (!o.json_path.empty()) {
    std::ofstream f(o.json_path);
    if (!f) {
      err << "rioflow: cannot write " << o.json_path << "\n";
      return 2;
    }
    f << "{\n  \"schema\": \"rio.chaos.v2\",\n  \"runs\": [";
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const ChaosCell& c = cells[i];
      f << (i == 0 ? "\n" : ",\n") << "    {\"workload\": "
        << support::json_quote(c.workload)
        << ", \"engine\": " << support::json_quote(c.engine)
        << ", \"kind\": " << support::json_quote(c.kind)
        << ", \"rate\": " << support::json_double(c.rate)
        << ", \"seed\": " << c.seed << ", \"throws\": " << c.throws
        << ", \"stalls\": " << c.stalls << ", \"crashes\": " << c.crashes
        << ", \"evictions\": " << c.evictions
        << ", \"replayed\": " << c.replayed
        << ", \"ok\": " << (c.ok ? "true" : "false")
        << ", \"verdict\": " << support::json_quote(c.verdict) << "}";
    }
    f << (cells.empty() ? "]" : "\n  ]") << ",\n  \"summary\": {\"runs\": "
      << runs << ", \"ok\": " << ok << ", \"exhausted\": " << exhausted
      << ", \"stalled\": " << stalled << ", \"mismatched\": " << mismatched
      << ", \"worker_lost\": " << lost << ", \"errors\": " << unexpected
      << ", \"injected_throws\": " << total_throws
      << ", \"injected_stalls\": " << total_stalls
      << ", \"injected_crashes\": " << total_crashes
      << ", \"evictions\": " << total_evictions
      << ", \"tasks_replayed\": " << total_replayed
      << ", \"runs_with_faults\": " << total_retried
      << "},\n  \"failed\": " << (bad ? "true" : "false") << "\n}\n";
    out << "wrote " << o.json_path << "\n";
  }
  return bad ? 3 : 0;
}

/// Human-readable causal report shared by `rioflow blame` and
/// `rioflow profile --blame`: critical path, blame tables, top stall
/// edges. Long paths elide their middle — --json has the full path.
void print_blame(const obs::causal::Analysis& an, const obs::Hub& hub,
                 std::size_t top_k, bool csv, std::ostream& out) {
  const bool ticks = hub.clock_unit() == obs::ClockUnit::kTicks;
  auto fmt = [ticks](std::uint64_t v) {
    return ticks ? std::to_string(v)
                 : support::format_duration_ns(static_cast<double>(v));
  };
  out << "critical path: " << fmt(an.crit_path) << " of " << fmt(an.makespan)
      << " makespan (" << an.path.size() << " nodes, body "
      << fmt(an.crit_body) << ", wait " << fmt(an.crit_wait) << ")"
      << (an.complete ? "" : "  [recorder dropped events: partial DAG]")
      << "\n";
  out << "wait attribution: " << fmt(an.wait_attributed) << " of "
      << fmt(an.wait_total) << " across " << an.edges.size() << " edges\n";

  if (!an.path.empty()) {
    support::Table pt({"path task", "worker", "body", "wait_in", "via data"});
    const std::size_t np = an.path.size();
    // Long chains would swamp the terminal: keep both ends, elide the rest.
    const std::size_t head = np <= 16 ? np : 8;
    const std::size_t tail = np <= 16 ? 0 : 8;
    const auto emit = [&](const obs::causal::PathNode& n) {
      auto row = pt.row();
      row.integer(static_cast<long long>(n.task));
      row.integer(static_cast<long long>(n.worker));
      row.str(fmt(n.body));
      row.str(n.wait_in == 0 ? "-" : fmt(n.wait_in));
      row.str(n.via_data == obs::kNoCauseData ? "-"
                                              : std::to_string(n.via_data));
    };
    for (std::size_t i = 0; i < head; ++i) emit(an.path[i]);
    if (tail != 0) {
      auto row = pt.row();
      row.str("... " + std::to_string(np - head - tail) + " nodes ...");
      for (int c = 0; c < 4; ++c) row.str("");
      for (std::size_t i = np - tail; i < np; ++i) emit(an.path[i]);
    }
    if (csv)
      pt.print_csv(out);
    else
      pt.print(out);
  }

  if (!an.task_blame.empty()) {
    support::Table tb({"blamed task", "stall caused", "edges"});
    for (std::size_t i = 0; i < std::min(top_k, an.task_blame.size()); ++i) {
      const obs::causal::TaskBlame& b = an.task_blame[i];
      auto row = tb.row();
      row.integer(static_cast<long long>(b.task));
      row.str(fmt(b.blame));
      row.integer(static_cast<long long>(b.edges));
    }
    if (csv)
      tb.print_csv(out);
    else
      tb.print(out);
  }
  if (!an.handle_blame.empty()) {
    support::Table hb({"blamed data", "stall caused", "edges"});
    for (std::size_t i = 0; i < std::min(top_k, an.handle_blame.size());
         ++i) {
      const obs::causal::HandleBlame& b = an.handle_blame[i];
      auto row = hb.row();
      row.integer(static_cast<long long>(b.data));
      row.str(fmt(b.blame));
      row.integer(static_cast<long long>(b.edges));
    }
    if (csv)
      hb.print_csv(out);
    else
      hb.print(out);
  }
  if (!an.edges.empty()) {
    support::Table et(
        {"stall edge", "producer", "data", "worker", "wait", "on path"});
    for (std::size_t i = 0; i < std::min(top_k, an.edges.size()); ++i) {
      const obs::causal::WaitEdge& e = an.edges[i];
      auto row = et.row();
      row.str(e.consumer == obs::kNoTask ? "-" : std::to_string(e.consumer));
      row.str(e.producer == obs::kNoTask ? "-" : std::to_string(e.producer));
      row.str(e.data == obs::kNoCauseData ? "-" : std::to_string(e.data));
      row.integer(static_cast<long long>(e.worker));
      row.str(fmt(e.wait));
      row.str(e.on_path ? "yes" : "");
    }
    if (csv)
      et.print_csv(out);
    else
      et.print(out);
  }
}

/// `rioflow profile`: execute once with the rio::obs telemetry hub attached
/// (docs/observability.md) and report per-worker phase totals, counter
/// totals and the e_p*e_r decomposition. --trace exports the flight
/// recorder as a Perfetto-loadable Chrome trace; --json writes the
/// versioned rio.obs.v1 metrics document; --blame appends the causal
/// analyzer's critical-path and blame report.
int run_profile(const Options& o, std::ostream& out, std::ostream& err) {
  std::string error;
  Options po = o;
  if (o.quick) {
    po.tasks = std::min<std::uint64_t>(po.tasks, 256);
    po.tiles = std::min<std::uint32_t>(po.tiles, 4);
    po.task_size = std::min<std::uint64_t>(po.task_size, 200);
  }
  const engine::Backend* backend =
      engine::Registry::instance().find_or_error(po.engine, error);
  if (backend == nullptr) {
    err << "rioflow: " << error << "\n";
    return 1;
  }
  workloads::Workload wl;
  if (!build_workload(po, body_for(*backend), wl, error)) {
    err << "rioflow: " << error << "\n";
    return 1;
  }
  engine::Launch launch;
  if (!make_launch(po, wl, launch, error)) {
    err << "rioflow: " << error << "\n";
    return 1;
  }

  // The recorder (per-worker event rings) is only paid for when a trace
  // will be exported or the causal analyzer needs the spans; counters and
  // phase totals are always on here. --sample thins the ring 1-in-N.
  obs::HubOptions ho;
  ho.recorder = !o.trace_path.empty() || o.blame;
  ho.sample = o.sample;
  obs::Hub hub(ho);

  const std::uint32_t workers = po.workers;
  launch.obs = &hub;
  support::RunStats stats;
  const stf::FlowImage image = stf::FlowImage::compile(wl.flow);
  try {
    stats = (o.recover ? engine::run_supervised(*backend, image, launch)
                       : backend->run(image, launch))
                .stats;
  } catch (const engine::UnsupportedLaunch& e) {
    err << "rioflow: " << e.what() << "\n";
    return 2;
  }

  const bool ticks = hub.clock_unit() == obs::ClockUnit::kTicks;
  auto fmt = [ticks](std::uint64_t v) {
    return ticks ? std::to_string(v)
                 : support::format_duration_ns(static_cast<double>(v));
  };
  out << "-- profile: " << wl.name << " on " << po.engine << " (" << workers
      << " workers, clock=" << obs::to_string(hub.clock_unit()) << ") --\n";

  std::vector<std::string> header{"worker"};
  for (std::size_t p = 0; p < obs::kNumSpanPhases; ++p)
    header.push_back(obs::to_string(static_cast<obs::Phase>(p)));
  header.emplace_back("tasks");
  support::Table table(header);
  const obs::CounterSnapshot snap = hub.counter_snapshot();
  for (std::size_t w = 0; w < hub.num_workers(); ++w) {
    auto row = table.row();
    row.integer(static_cast<long long>(w));
    const auto& ph = hub.phase_totals(w);
    for (std::size_t p = 0; p < obs::kNumSpanPhases; ++p) row.str(fmt(ph[p]));
    row.integer(static_cast<long long>(
        snap.worker_value(w, obs::Counter::kTasksExecuted)));
  }
  if (o.csv)
    table.print_csv(out);
  else
    table.print(out);

  out << "counters:";
  for (std::size_t c = 0; c < obs::kNumCounters; ++c) {
    const std::uint64_t v = snap.total(static_cast<obs::Counter>(c));
    if (v > 0)
      out << ' ' << obs::counter_name(static_cast<obs::Counter>(c)) << '='
          << v;
  }
  out << "\n";

  const auto e = metrics::decompose_synthetic(stats.cumulative());
  out << "e_p = " << e.e_p << ", e_r = " << e.e_r
      << ", e_p*e_r = " << e.e_p * e.e_r << "\n";
  if (hub.recorder_enabled())
    out << "recorder: " << hub.recorded() << " events retained, "
        << hub.dropped() << " dropped (sample 1-in-" << hub.sample_stride()
        << ")\n";
  if (o.blame)
    print_blame(obs::causal::analyze(hub), hub, o.top_edges, o.csv, out);

  if (!o.trace_path.empty()) {
    std::ofstream f(o.trace_path);
    if (!f) {
      err << "rioflow: cannot write " << o.trace_path << "\n";
      return 2;
    }
    obs::write_perfetto_trace(hub, f);
    out << "wrote " << o.trace_path << "\n";
  }
  if (!o.json_path.empty()) {
    std::ofstream f(o.json_path);
    if (!f) {
      err << "rioflow: cannot write " << o.json_path << "\n";
      return 2;
    }
    obs::ObsJsonMeta meta;
    meta.engine = po.engine;
    meta.workload = wl.name;
    meta.e_p = e.e_p;
    meta.e_r = e.e_r;
    obs::write_obs_json(hub, stats, meta, f);
    out << "wrote " << o.json_path << "\n";
  }
  return 0;
}

/// `rioflow blame`: execute once with the flight recorder forced on, then
/// run the obs::causal analyzer — executed-DAG critical path, per-task and
/// per-handle blame, top stall edges (docs/observability.md). Any
/// supports_obs backend works; the virtual-time simulators give an exact
/// critical path. --recover supervises the run (evict-and-remap on worker
/// loss); --trace writes the Perfetto trace whose dep flow arrows mirror
/// the wait edges; --json writes the versioned rio.blame.v1 document.
int run_blame(const Options& o, std::ostream& out, std::ostream& err) {
  std::string error;
  Options po = o;
  if (o.quick) {
    po.tasks = std::min<std::uint64_t>(po.tasks, 256);
    po.tiles = std::min<std::uint32_t>(po.tiles, 4);
    po.task_size = std::min<std::uint64_t>(po.task_size, 200);
  }
  const engine::Backend* backend =
      engine::Registry::instance().find_or_error(po.engine, error);
  if (backend == nullptr) {
    err << "rioflow: " << error << "\n";
    return 1;
  }
  workloads::Workload wl;
  if (!build_workload(po, body_for(*backend), wl, error)) {
    err << "rioflow: " << error << "\n";
    return 1;
  }
  engine::Launch launch;
  if (!make_launch(po, wl, launch, error)) {
    err << "rioflow: " << error << "\n";
    return 1;
  }

  obs::HubOptions ho;
  ho.recorder = true;  // the analyzer IS the consumer: always record
  ho.sample = o.sample;
  obs::Hub hub(ho);
  launch.obs = &hub;

  support::RunStats stats;
  const stf::FlowImage image = stf::FlowImage::compile(wl.flow);
  try {
    stats = (o.recover ? engine::run_supervised(*backend, image, launch)
                       : backend->run(image, launch))
                .stats;
  } catch (const engine::UnsupportedLaunch& e) {
    err << "rioflow: " << e.what() << "\n";
    return 2;
  }

  out << "-- blame: " << wl.name << " on " << po.engine << " (" << po.workers
      << " workers, clock=" << obs::to_string(hub.clock_unit())
      << ", sample 1-in-" << hub.sample_stride() << ") --\n";
  const obs::causal::Analysis an = obs::causal::analyze(hub);
  print_blame(an, hub, o.top_edges, o.csv, out);

  if (!o.trace_path.empty()) {
    std::ofstream f(o.trace_path);
    if (!f) {
      err << "rioflow: cannot write " << o.trace_path << "\n";
      return 2;
    }
    obs::write_perfetto_trace(hub, f);
    out << "wrote " << o.trace_path << "\n";
  }
  if (!o.json_path.empty()) {
    std::ofstream f(o.json_path);
    if (!f) {
      err << "rioflow: cannot write " << o.json_path << "\n";
      return 2;
    }
    const auto e = metrics::decompose_synthetic(stats.cumulative());
    obs::ObsJsonMeta meta;
    meta.engine = po.engine;
    meta.workload = wl.name;
    meta.e_p = e.e_p;
    meta.e_r = e.e_r;
    obs::causal::write_blame_json(an, hub, meta, o.top_edges, f);
    out << "wrote " << o.json_path << "\n";
  }
  return 0;
}

/// Relative drift in percent; a fresh counter appearing from zero counts
/// as 100% so it can never hide below any threshold.
double pct_delta(double oldv, double newv) {
  if (oldv != 0.0) return (newv - oldv) / oldv * 100.0;
  return newv != 0.0 ? 100.0 : 0.0;
}

/// `rioflow obs-diff old.obs.json new.obs.json`: compare two rio.obs.v1
/// reports — wall time, per-phase totals, counters and the e_p*e_r
/// product. Exit 3 when the new run regressed beyond --threshold: wall
/// grew, a non-body (overhead/stall) phase grew, or the efficiency
/// product dropped. Counters are reported but never gate: their drift is
/// diagnosis, not verdict. --json writes the rio.obsdiff.v1 document.
int run_obs_diff(const Options& o, std::ostream& out, std::ostream& err) {
  if (o.inputs.size() != 2) {
    err << "rioflow: obs-diff needs exactly two rio.obs.v1 files "
           "(old new)\n";
    return 1;
  }
  support::JsonValue docs[2];
  for (int i = 0; i < 2; ++i) {
    std::ifstream f(o.inputs[i]);
    if (!f) {
      err << "rioflow: cannot read " << o.inputs[i] << "\n";
      return 1;
    }
    std::ostringstream ss;
    ss << f.rdbuf();
    std::string perr;
    if (!support::json_parse(ss.str(), docs[i], perr)) {
      err << "rioflow: " << o.inputs[i] << ": " << perr << "\n";
      return 1;
    }
    const support::JsonValue* schema = docs[i].find("schema");
    if (schema == nullptr || schema->str_or("") != "rio.obs.v1") {
      err << "rioflow: " << o.inputs[i]
          << " is not a rio.obs.v1 document\n";
      return 1;
    }
  }
  // Nested numeric lookup; absent members read as 0 (older reports).
  const auto section = [](const support::JsonValue& doc,
                          const char* a,
                          const char* b) -> const support::JsonValue* {
    const support::JsonValue* s = doc.find(a);
    return s == nullptr ? nullptr : s->find(b);
  };
  const auto num_in = [](const support::JsonValue* obj,
                         const char* key) -> double {
    if (obj == nullptr) return 0.0;
    const support::JsonValue* v = obj->find(key);
    return v == nullptr ? 0.0 : v->num_or(0.0);
  };

  struct Row {
    std::string name;
    double oldv = 0.0;
    double newv = 0.0;
    bool regressed = false;
  };
  std::vector<Row> phases;
  std::vector<Row> counters;
  const auto collect = [&](const char* key, std::vector<Row>& rows) {
    const support::JsonValue* po = section(docs[0], "totals", key);
    const support::JsonValue* pn = section(docs[1], "totals", key);
    if (po != nullptr)
      for (const auto& [name, v] : po->members)
        rows.push_back({name, v.num_or(0.0), num_in(pn, name.c_str()), false});
    if (pn != nullptr)
      for (const auto& [name, v] : pn->members) {
        bool seen = false;
        for (const Row& r : rows) seen = seen || r.name == name;
        if (!seen) rows.push_back({name, 0.0, v.num_or(0.0), false});
      }
  };
  collect("phases", phases);
  collect("counters", counters);

  const double wall_old = num_in(&docs[0], "wall_ns");
  const double wall_new = num_in(&docs[1], "wall_ns");
  const double prod_old =
      num_in(docs[0].find("decompose"), "product");
  const double prod_new =
      num_in(docs[1].find("decompose"), "product");

  // The regression gate: more wall time, more overhead/stall time, or a
  // worse efficiency product — each beyond the threshold, and only when
  // the old side actually measured something (a 0 -> x phase on a run
  // that previously recorded nothing is growth from noise, not signal).
  std::vector<std::string> regressions;
  if (wall_old > 0.0 && pct_delta(wall_old, wall_new) > o.threshold)
    regressions.push_back("wall_ns");
  for (Row& r : phases) {
    if (r.name == "body") continue;  // more body = more real work, not stall
    if (r.oldv > 0.0 && pct_delta(r.oldv, r.newv) > o.threshold) {
      r.regressed = true;
      regressions.push_back("phase " + r.name);
    }
  }
  if (prod_old > 0.0 && pct_delta(prod_old, prod_new) < -o.threshold)
    regressions.push_back("e_p*e_r product");

  out << "-- obs-diff: " << o.inputs[0] << " -> " << o.inputs[1]
      << " (threshold " << o.threshold << "%) --\n";
  const auto fmt_pct = [](double d) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%+.2f%%", d);
    return std::string(buf);
  };
  const auto fmt_num = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return std::string(buf);
  };
  support::Table table({"metric", "old", "new", "drift", "gate"});
  const auto metric_row = [&](const std::string& name, double ov, double nv,
                              bool gated, bool bad) {
    auto row = table.row();
    row.str(name);
    row.str(fmt_num(ov));
    row.str(fmt_num(nv));
    row.str(fmt_pct(pct_delta(ov, nv)));
    row.str(bad ? "REGRESSED" : (gated ? "ok" : "info"));
  };
  metric_row("wall_ns", wall_old, wall_new, true,
             wall_old > 0.0 && pct_delta(wall_old, wall_new) > o.threshold);
  metric_row("e_p*e_r", prod_old, prod_new, true,
             prod_old > 0.0 &&
                 pct_delta(prod_old, prod_new) < -o.threshold);
  for (const Row& r : phases)
    metric_row("phase " + r.name, r.oldv, r.newv, r.name != "body",
               r.regressed);
  for (const Row& r : counters)
    if (r.oldv != 0.0 || r.newv != 0.0)
      metric_row(r.name, r.oldv, r.newv, false, false);
  if (o.csv)
    table.print_csv(out);
  else
    table.print(out);

  if (regressions.empty()) {
    out << "no regressions beyond " << o.threshold << "%\n";
  } else {
    out << "regressions (" << regressions.size() << "):";
    for (const std::string& r : regressions) out << ' ' << r;
    out << "\n";
  }

  if (!o.json_path.empty()) {
    std::ofstream f(o.json_path);
    if (!f) {
      err << "rioflow: cannot write " << o.json_path << "\n";
      return 2;
    }
    using support::json_double;
    using support::json_quote;
    const auto metric_json = [&](const char* name, double ov, double nv) {
      f << "  " << json_quote(name) << ": {\"old\": " << json_double(ov)
        << ", \"new\": " << json_double(nv)
        << ", \"drift_pct\": " << json_double(pct_delta(ov, nv)) << "},\n";
    };
    f << "{\n  \"schema\": \"rio.obsdiff.v1\",\n"
      << "  \"old\": " << json_quote(o.inputs[0]) << ",\n"
      << "  \"new\": " << json_quote(o.inputs[1]) << ",\n"
      << "  \"threshold_pct\": " << json_double(o.threshold) << ",\n";
    metric_json("wall_ns", wall_old, wall_new);
    metric_json("product", prod_old, prod_new);
    const auto rows_json = [&](const char* key,
                               const std::vector<Row>& rows, bool gate) {
      f << "  " << json_quote(key) << ": [";
      for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row& r = rows[i];
        f << (i == 0 ? "\n" : ",\n") << "    {\"name\": "
          << json_quote(r.name) << ", \"old\": " << json_double(r.oldv)
          << ", \"new\": " << json_double(r.newv) << ", \"drift_pct\": "
          << json_double(pct_delta(r.oldv, r.newv));
        if (gate)
          f << ", \"regressed\": " << (r.regressed ? "true" : "false");
        f << "}";
      }
      f << (rows.empty() ? "]" : "\n  ]");
    };
    rows_json("phases", phases, true);
    f << ",\n";
    rows_json("counters", counters, false);
    f << ",\n  \"regressions\": [";
    for (std::size_t i = 0; i < regressions.size(); ++i)
      f << (i == 0 ? "" : ", ") << json_quote(regressions[i]);
    f << "],\n  \"regressed\": "
      << (regressions.empty() ? "false" : "true") << "\n}\n";
    out << "wrote " << o.json_path << "\n";
  }
  return regressions.empty() ? 0 : 3;
}

/// `rioflow engines`: list the registered backends with their capability
/// flags. --json writes the versioned rio.engines.v1 document the
/// run_checks.sh smoke gate iterates over.
int run_engines(const Options& o, std::ostream& out, std::ostream& err) {
  const std::vector<const engine::Backend*> backends =
      engine::Registry::instance().all();

  out << "-- engines (" << backends.size() << " registered) --\n";
  support::Table table({"engine", "aliases", "capabilities", "description"});
  for (const engine::Backend* b : backends) {
    std::string caps;
    for (const auto& [flag, on] : engine::capability_list(b->caps())) {
      if (!on) continue;
      if (!caps.empty()) caps += ' ';
      caps += flag;
    }
    std::string aliases;
    for (const std::string& a :
         engine::Registry::instance().aliases_for(b->name())) {
      if (!aliases.empty()) aliases += ' ';
      aliases += a;
    }
    table.row()
        .str(std::string(b->name()))
        .str(aliases)
        .str(caps)
        .str(std::string(b->description()));
  }
  if (o.csv)
    table.print_csv(out);
  else
    table.print(out);

  if (!o.json_path.empty()) {
    std::ofstream f(o.json_path);
    if (!f) {
      err << "rioflow: cannot write " << o.json_path << "\n";
      return 2;
    }
    f << "{\n  \"schema\": \"rio.engines.v1\",\n  \"engines\": [";
    for (std::size_t i = 0; i < backends.size(); ++i) {
      const engine::Backend* b = backends[i];
      f << (i == 0 ? "\n" : ",\n") << "    {\"name\": "
        << support::json_quote(std::string(b->name())) << ", \"aliases\": [";
      bool first_alias = true;
      for (const std::string& a :
           engine::Registry::instance().aliases_for(b->name())) {
        f << (first_alias ? "" : ", ") << support::json_quote(a);
        first_alias = false;
      }
      f << "], \"description\": "
        << support::json_quote(std::string(b->description()))
        << ", \"capabilities\": {";
      bool first = true;
      for (const auto& [flag, on] : engine::capability_list(b->caps())) {
        f << (first ? "" : ", ") << '"' << flag
          << "\": " << (on ? "true" : "false");
        first = false;
      }
      f << "}}";
    }
    f << (backends.empty() ? "]" : "\n  ]") << "\n}\n";
    out << "wrote " << o.json_path << "\n";
  }
  return 0;
}

/// `rioflow verify`: model-check the engine's REAL synchronization code on
/// a small flow (mc::impl). Explores every interleaving of the protocol's
/// shared-word operations (DPOR-reduced unless --naive) and checks STFSpec
/// refinement, the in-order window invariants, deadlock freedom and — under
/// --policy block — lost-wakeup freedom. Violations come with a replayable
/// schedule witness.
int run_verify(const Options& o, std::ostream& out, std::ostream& err) {
  std::string error;

  mc::impl::Options mo;
  if (o.engine == "rio") mo.engine = mc::impl::EngineKind::kRio;
  else if (o.engine == "rio-pruned") mo.engine = mc::impl::EngineKind::kRioPruned;
  else if (o.engine == "coor") mo.engine = mc::impl::EngineKind::kCoor;
  else {
    err << "rioflow: verify supports engines rio|rio-pruned|coor, not '"
        << o.engine << "'\n";
    return 1;
  }

  // The state space is exponential in flow size; default to a flow the
  // checker can exhaust instead of the execution-sized defaults.
  Options wo = o;
  if (!wo.workload_given) wo.workload = "chain";
  if (o.quick) {
    wo.tasks = std::min<std::uint64_t>(wo.tasks, 6);
    wo.tiles = std::min<std::uint32_t>(wo.tiles, 2);
    wo.width = std::min<std::uint32_t>(wo.width, 3);
    wo.steps = std::min<std::uint32_t>(wo.steps, 2);
    wo.workers = std::min<std::uint32_t>(wo.workers, 2);
    mo.max_interleavings = 2'000;
  } else if (wo.workload == "chain" || wo.workload == "independent" ||
             wo.workload == "random") {
    // Synthetic workloads keep their execution-sized default (4096); snap
    // it to the checker's ceiling rather than rejecting the default.
    wo.tasks = std::min<std::uint64_t>(wo.tasks, 16);
  }
  workloads::Workload wl;
  if (!build_workload(wo, workloads::BodyKind::kNone, wl, error)) {
    err << "rioflow: " << error << "\n";
    return 1;
  }
  if (wl.flow.num_tasks() > 64) {
    err << "rioflow: verify explores interleavings exhaustively and handles "
           "at most 64 tasks ("
        << wl.flow.num_tasks()
        << " generated; shrink with --tasks/--tiles or --quick)\n";
    return 1;
  }
  if (wo.workers > 4) {
    err << "rioflow: verify handles at most 4 workers\n";
    return 1;
  }
  for (const stf::Task& t : wl.flow.tasks())
    for (const stf::Access& a : t.accesses)
      if (stf::is_reduction(a.mode)) {
        err << "rioflow: verify does not support reduction accesses (task "
            << t.id << ")\n";
        return 1;
      }

  rt::Mapping mapping;
  if (!pick_mapping(wo, wl, mapping, error)) {
    err << "rioflow: " << error << "\n";
    return 1;
  }
  support::WaitPolicy policy{};
  if (!pick_policy(wo, policy, error)) {
    err << "rioflow: " << error << "\n";
    return 1;
  }
  coor::QueueKind queue{};
  if (!pick_queue(wo, queue, error)) {
    err << "rioflow: " << error << "\n";
    return 1;
  }
  if (queue != coor::QueueKind::kLocked && o.engine != "coor") {
    err << "rioflow: --queue applies to the coor engine only\n";
    return 1;
  }
  mo.workers = wo.workers;
  mo.policy = policy;
  mo.queue = queue;
  mo.dpor = !o.naive;
  mo.max_preemptions = o.max_preemptions;
  if (o.recover) {
    if (wo.workers < 2) {
      err << "rioflow: verify --recover needs --workers >= 2 (one worker "
             "dies and is evicted)\n";
      return 1;
    }
    if (wl.flow.num_tasks() == 0) {
      err << "rioflow: verify --recover needs a non-empty flow\n";
      return 1;
    }
    // Mid-flow crash: deepest frontier variety for the phase-1 sweep.
    mo.recover = true;
    mo.crash_task = wl.flow.num_tasks() / 2;
  }

  const mc::impl::Result r = mc::impl::verify(wl.flow, mapping, mo);

  out << "-- verify: " << wl.name << " on " << o.engine << " ("
      << mo.workers << " workers, " << o.policy << " policy, "
      << (mo.engine == mc::impl::EngineKind::kCoor
              ? std::string(coor::to_string(mo.queue)) + " queue, "
              : std::string())
      << (mo.dpor ? "dpor" : "naive");
  if (mo.max_preemptions >= 0)
    out << ", <=" << mo.max_preemptions << " preemptions";
  out << ") --\n";
  if (mo.recover)
    out << "recovery: worker executing task " << mo.crash_task
        << " dies after its body; phase 1 explores the loss ("
        << r.frontiers << " completion frontiers), phase 2 the resumed "
        << (mo.workers - 1) << "-worker evicted configuration\n";
  out << "interleavings: " << r.explored << " explored, " << r.pruned
      << " pruned, " << r.steps << " scheduling steps, "
      << support::format_duration_ns(r.seconds * 1e9) << "\n";
  if (r.truncated)
    out << "NOTE: exploration truncated (budget reached); the verdict "
           "covers only the explored prefix\n";
  out << "refines-stf:      " << (r.refines_stf ? "ok" : "VIOLATED") << "\n";
  out << "in-order windows: " << (r.in_order ? "ok" : "VIOLATED") << "\n";
  out << "deadlock-free:    " << (r.deadlock_free ? "ok" : "VIOLATED") << "\n";
  out << "lost-wakeup-free: " << (r.lost_wakeup_free ? "ok" : "VIOLATED")
      << "\n";
  if (!r.ok()) {
    out << "violation [" << r.violation_kind << "]: " << r.violation << "\n";
    out << "witness schedule (" << r.witness.size() << " steps):";
    for (std::uint32_t w : r.witness) out << ' ' << w;
    out << "\n";
    if (mo.engine == mc::impl::EngineKind::kCoor)
      out << "(worker " << mo.workers << " is the master)\n";
  }

  if (!o.json_path.empty()) {
    std::ofstream f(o.json_path);
    if (!f) {
      err << "rioflow: cannot write " << o.json_path << "\n";
      return 2;
    }
    f << "{\n  \"schema\": \"rio.verify.v1\",\n"
      << "  \"engine\": " << support::json_quote(o.engine) << ",\n"
      << "  \"workload\": " << support::json_quote(wl.name) << ",\n"
      << "  \"workers\": " << mo.workers << ",\n"
      << "  \"policy\": " << support::json_quote(o.policy) << ",\n"
      << "  \"queue\": " << support::json_quote(coor::to_string(mo.queue))
      << ",\n"
      << "  \"dpor\": " << (mo.dpor ? "true" : "false") << ",\n"
      << "  \"max_preemptions\": " << mo.max_preemptions << ",\n"
      << "  \"recover\": " << (mo.recover ? "true" : "false") << ",\n"
      << "  \"crash_task\": " << (mo.recover
                                      ? std::to_string(mo.crash_task)
                                      : std::string("null")) << ",\n"
      << "  \"frontiers\": " << r.frontiers << ",\n"
      << "  \"explored\": " << r.explored << ",\n"
      << "  \"pruned\": " << r.pruned << ",\n"
      << "  \"steps\": " << r.steps << ",\n"
      << "  \"truncated\": " << (r.truncated ? "true" : "false") << ",\n"
      << "  \"seconds\": " << r.seconds << ",\n"
      << "  \"ok\": " << (r.ok() ? "true" : "false") << ",\n"
      << "  \"properties\": {\"refines_stf\": "
      << (r.refines_stf ? "true" : "false") << ", \"in_order\": "
      << (r.in_order ? "true" : "false") << ", \"deadlock_free\": "
      << (r.deadlock_free ? "true" : "false") << ", \"lost_wakeup_free\": "
      << (r.lost_wakeup_free ? "true" : "false") << "},\n";
    if (r.ok()) {
      f << "  \"violation\": null\n";
    } else {
      f << "  \"violation\": {\"kind\": "
        << support::json_quote(r.violation_kind) << ", \"message\": "
        << support::json_quote(r.violation) << ", \"witness\": [";
      for (std::size_t i = 0; i < r.witness.size(); ++i)
        f << (i == 0 ? "" : ", ") << r.witness[i];
      f << "]}\n";
    }
    f << "}\n";
    out << "wrote " << o.json_path << "\n";
  }
  return r.ok() ? 0 : 3;
}

/// optimize: run the flowpass pipeline over the compiled image, verify the
/// rewrite byte-for-byte against the sequential oracle, and compare
/// optimized vs unoptimized execution on the selected backend.
///
/// Fold bodies mix data bytes non-idempotently, so every measured run needs
/// a fresh flow (data restarts at zero) — the repeat loops rebuild workload
/// + pipeline per repetition and only time the engine run itself.
int run_optimize(const Options& o, std::ostream& out, std::ostream& err) {
  std::string error;
  const engine::Backend* backend =
      engine::Registry::instance().find_or_error(o.engine, error);
  if (backend == nullptr) {
    err << "rioflow: " << error << "\n";
    return 1;
  }

  const std::vector<std::string> pass_names =
      o.passes.empty() ? flowpass::Registry::instance().names()
                       : split_csv(o.passes);
  if (pass_names.empty()) {
    err << "rioflow: --passes is empty (choices: "
        << flowpass::Registry::instance().names_csv() << ")\n";
    return 1;
  }

  flowpass::PassOptions popts;
  popts.workers = o.workers;
  popts.fuse_threshold = o.fuse_threshold;
  popts.tune = o.tune;

  const bool bodies = backend->caps().executes_bodies;
  const workloads::BodyKind body =
      bodies ? workloads::BodyKind::kFold : workloads::BodyKind::kNone;
  const int repeats = std::max(1, o.repeat);

  // Sequential oracle over the SOURCE flow: any semantics-preserving
  // rewrite must reproduce exactly these bytes on a real backend.
  std::vector<std::vector<std::byte>> oracle;
  if (bodies) {
    workloads::Workload wl;
    if (!build_workload(o, workloads::BodyKind::kFold, wl, error)) {
      err << "rioflow: " << error << "\n";
      return 1;
    }
    stf::SequentialExecutor{}.run(wl.flow);
    oracle = data_image(wl.flow.registry());
  }

  std::vector<flowpass::PassReport> reports;
  std::string workload_name;
  double pipeline_s = 0.0;
  std::size_t source_tasks = 0, optimized_tasks = 0;
  bool opt_match = true, unopt_match = true;
  bool virtual_time = false;
  std::uint64_t opt_makespan = 0, unopt_makespan = 0;  // wall ns or ticks

  // ---- optimized executions ----------------------------------------------
  {
    double best_s = 1e300;
    for (int rep = 0; rep < repeats; ++rep) {
      workloads::Workload wl;
      if (!build_workload(o, body, wl, error)) {
        err << "rioflow: " << error << "\n";
        return 1;
      }
      engine::Launch launch;
      if (!make_launch(o, wl, launch, error)) {
        err << "rioflow: " << error << "\n";
        return 1;
      }
      const stf::FlowImage source = stf::FlowImage::compile(wl.flow);
      support::Stopwatch psw;
      flowpass::PipelineResult pipe =
          flowpass::run_pipeline(source, pass_names, popts);
      if (!pipe.ok()) {
        err << "rioflow: " << pipe.error << "\n";
        return 1;
      }
      if (rep == 0) {
        pipeline_s = psw.elapsed_s();
        reports = pipe.passes;
        workload_name = wl.name;
        source_tasks = source.size();
        optimized_tasks = pipe.image.size();
      }
      // A placement pass's product beats the CLI default: this is how
      // `--tune`'s winner reaches the real engine. Non-mapping backends
      // ignore Launch::mapping, so overriding it is always safe.
      if (pipe.mapping.valid()) launch.mapping = pipe.mapping;
      engine::Outcome outcome;
      support::Stopwatch sw;
      try {
        outcome = backend->run(pipe.image, launch);
      } catch (const engine::UnsupportedLaunch& e) {
        err << "rioflow: " << e.what() << "\n";
        return 2;
      }
      best_s = std::min(best_s, sw.elapsed_s());
      virtual_time = outcome.virtual_time;
      if (outcome.virtual_time) opt_makespan = outcome.makespan;
      if (bodies && data_image(wl.flow.registry()) != oracle)
        opt_match = false;
    }
    if (!virtual_time)
      opt_makespan = static_cast<std::uint64_t>(best_s * 1e9);
  }

  // ---- unoptimized baseline, same backend + knobs ------------------------
  {
    double best_s = 1e300;
    for (int rep = 0; rep < repeats; ++rep) {
      workloads::Workload wl;
      if (!build_workload(o, body, wl, error)) {
        err << "rioflow: " << error << "\n";
        return 1;
      }
      engine::Launch launch;
      if (!make_launch(o, wl, launch, error)) {
        err << "rioflow: " << error << "\n";
        return 1;
      }
      const stf::FlowImage image = stf::FlowImage::compile(wl.flow);
      engine::Outcome outcome;
      support::Stopwatch sw;
      try {
        outcome = backend->run(image, launch);
      } catch (const engine::UnsupportedLaunch& e) {
        err << "rioflow: " << e.what() << "\n";
        return 2;
      }
      best_s = std::min(best_s, sw.elapsed_s());
      if (outcome.virtual_time) unopt_makespan = outcome.makespan;
      if (bodies && data_image(wl.flow.registry()) != oracle)
        unopt_match = false;
    }
    if (!virtual_time)
      unopt_makespan = static_cast<std::uint64_t>(best_s * 1e9);
  }

  // ---- report -------------------------------------------------------------
  out << "-- optimize: " << workload_name << " on " << backend->name() << " ("
      << o.workers << " workers, passes ";
  for (std::size_t i = 0; i < pass_names.size(); ++i)
    out << (i == 0 ? "" : ",") << pass_names[i];
  out << (o.tune ? ", tuned" : "") << ") --\n";

  if (o.report) {
    const auto arrow = [](std::uint64_t a, std::uint64_t b) {
      return std::to_string(a) + " -> " + std::to_string(b);
    };
    support::Table table(
        {"pass", "tasks", "edges", "critical path", "balance", "detail"});
    for (const flowpass::PassReport& r : reports) {
      char bal[64];
      std::snprintf(bal, sizeof bal, "%.2f -> %.2f", r.balance_before,
                    r.balance_after);
      table.row()
          .str(r.pass)
          .str(arrow(r.tasks_before, r.tasks_after))
          .str(arrow(r.edges_before, r.edges_after))
          .str(arrow(r.critical_path_before, r.critical_path_after))
          .str(bal)
          .str(r.detail);
    }
    if (o.csv)
      table.print_csv(out);
    else
      table.print(out);
    for (const flowpass::PassReport& r : reports)
      for (const flowpass::TuneStep& t : r.tuning)
        out << "tune[" << r.pass << "]: " << t.candidate << " -> " << t.score
            << (t.chosen ? "  (chosen)" : "") << "\n";
  }

  if (bodies)
    out << "verification: optimized " << (opt_match ? "ok" : "ORACLE MISMATCH")
        << ", unoptimized " << (unopt_match ? "ok" : "ORACLE MISMATCH")
        << " (vs sequential oracle, " << oracle.size() << " data objects)\n";
  else
    out << "verification: skipped (" << backend->name()
        << " is a virtual-time engine; bodies never execute)\n";

  const auto fmt_span = [&](std::uint64_t v) {
    return virtual_time
               ? std::to_string(v) + " ticks (virtual)"
               : support::format_duration_ns(static_cast<double>(v));
  };
  out << "tasks: " << source_tasks << " -> " << optimized_tasks
      << "  unoptimized: " << fmt_span(unopt_makespan)
      << "  optimized: " << fmt_span(opt_makespan);
  if (opt_makespan > 0) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.2fx",
                  static_cast<double>(unopt_makespan) /
                      static_cast<double>(opt_makespan));
    out << "  speedup: " << buf;
  }
  out << "\n";

  if (!o.json_path.empty()) {
    std::ofstream f(o.json_path);
    if (!f) {
      err << "rioflow: cannot write " << o.json_path << "\n";
      return 2;
    }
    f << "{\n  \"schema\": \"rio.optimize.v1\",\n"
      << "  \"workload\": " << support::json_quote(workload_name) << ",\n"
      << "  \"engine\": " << support::json_quote(backend->name()) << ",\n"
      << "  \"workers\": " << o.workers << ",\n"
      << "  \"tune\": " << (o.tune ? "true" : "false") << ",\n"
      << "  \"fuse_threshold\": " << o.fuse_threshold << ",\n"
      << "  \"passes\": [";
    for (std::size_t i = 0; i < reports.size(); ++i) {
      const flowpass::PassReport& r = reports[i];
      f << (i == 0 ? "" : ",") << "\n    {\"name\": "
        << support::json_quote(r.pass)
        << ", \"tasks_before\": " << r.tasks_before
        << ", \"tasks_after\": " << r.tasks_after
        << ", \"edges_before\": " << r.edges_before
        << ", \"edges_after\": " << r.edges_after
        << ", \"critical_path_before\": " << r.critical_path_before
        << ", \"critical_path_after\": " << r.critical_path_after
        << ", \"balance_before\": " << support::json_double(r.balance_before)
        << ", \"balance_after\": " << support::json_double(r.balance_after)
        << ", \"detail\": " << support::json_quote(r.detail)
        << ", \"tuning\": [";
      for (std::size_t t = 0; t < r.tuning.size(); ++t)
        f << (t == 0 ? "" : ", ") << "{\"candidate\": "
          << support::json_quote(r.tuning[t].candidate)
          << ", \"score\": " << r.tuning[t].score << ", \"chosen\": "
          << (r.tuning[t].chosen ? "true" : "false") << "}";
      f << "]}";
    }
    f << "\n  ],\n"
      << "  \"tasks_before\": " << source_tasks << ",\n"
      << "  \"tasks_after\": " << optimized_tasks << ",\n"
      << "  \"verification\": {\"checked\": " << (bodies ? "true" : "false")
      << ", \"optimized_matches_oracle\": "
      << (bodies ? (opt_match ? "true" : "false") : "null")
      << ", \"unoptimized_matches_oracle\": "
      << (bodies ? (unopt_match ? "true" : "false") : "null") << "},\n"
      << "  \"virtual_time\": " << (virtual_time ? "true" : "false") << ",\n"
      << "  \"unoptimized_makespan\": " << unopt_makespan << ",\n"
      << "  \"optimized_makespan\": " << opt_makespan << ",\n"
      << "  \"pipeline_seconds\": " << support::json_double(pipeline_s)
      << "\n}\n";
    out << "wrote " << o.json_path << "\n";
  }
  return (opt_match && unopt_match) ? 0 : 3;
}

}  // namespace

std::string usage() {
  // The engine list is derived from the registry so it can never drift
  // from the code; `rioflow engines` prints the capability matrix.
  const std::string engines =
      engine::Registry::instance().names_csv(" | ");
  return R"(rioflow — run STF workloads on the RIO execution models

usage: rioflow [command] [options]
  commands:
    (none)        generate the workload and execute it on --engine
    lint          static flow analysis only — nothing executes (RF/RM/RP
                  finding codes; see docs/analysis.md)
    check         execute a supports_trace engine recording its trace (one
                  event per task, with acquire/release stamps), then run
                  the interval validator and the happens-before race
                  checker (RC codes)
    chaos         sweep a deterministic fault plan (kinds x seeds x rates x
                  engines) with retry+rollback and the progress watchdog
                  enabled, verifying survivors against the sequential
                  oracle; --faults crash kills workers permanently and
                  recovers by evict-and-remap (engine::run_supervised)
    profile       execute once with the rio::obs telemetry hub attached and
                  report per-worker phase totals, counters and the e_p*e_r
                  decomposition (any supports_obs engine; --trace writes a
                  Perfetto trace, --json the rio.obs.v1 document, --quick
                  shrinks, --blame appends the causal report)
    blame         execute once with the flight recorder on and run the
                  causal analyzer: every acquire_wait span carries what it
                  waited on, so the rings stitch into the *executed* DAG —
                  prints the weighted critical path, per-task / per-handle
                  blame and the top stall edges (--top K; --json writes the
                  rio.blame.v1 document; --trace a Perfetto trace whose dep
                  flow arrows mirror the wait edges; --sample N thins the
                  recorder; simulators give an exact critical path)
    obs-diff      compare two rio.obs.v1 reports (obs-diff old.json
                  new.json): per-phase / per-counter drift and the e_p*e_r
                  product; exit 3 when an overhead phase or wall time grew
                  (or the product dropped) beyond --threshold pct (--json
                  writes the rio.obsdiff.v1 document)
    engines       list registered backends with their capability flags
                  (--json writes the rio.engines.v1 document)
    verify        model-check the REAL protocol code of rio|rio-pruned|coor
                  on a small flow: explore every interleaving of its
                  shared-word operations (DPOR) and check STF refinement,
                  in-order windows, deadlock and lost-wakeup freedom
                  (--json writes the rio.verify.v1 document; violations
                  come with a replayable schedule witness)
    optimize      run the flowpass pipeline (fuse | reorder | partition |
                  map; docs/passes.md) over the compiled image, byte-verify
                  the rewrite against the sequential oracle, then execute
                  optimized vs unoptimized on --engine and compare
                  (--passes selects, --tune scores mappings by simulated
                  makespan, --report prints per-pass metrics, --json writes
                  the rio.optimize.v1 document)

  --workload W    independent | random | chain | gemm | lu | cholesky |
                  stencil |
                  taskbench:<trivial|no_comm|stencil_1d|stencil_1d_periodic|
                             fft|tree|all_to_all|spread> |
                  lintfix:<uninit-read|dead-write|unused-handle|
                           redundant-edge|race|phase-mapping|
                           empty-phase|cross-phase-dep|tiny-tasks>
                                                                [independent]
  --engine E      )" +
         engines + R"(
                  (aliases: pruned, sim; default from RIOFLOW_ENGINE)  [rio]
  --workers N     worker threads / virtual cores                [2])" +
         R"(
  --tasks N       synthetic workloads: task count               [4096]
  --tiles N       tiled workloads: grid dimension               [8]
  --width N       taskbench/stencil width                       [24]
  --steps N       taskbench/stencil steps                       [32]
  --task-size N   counter iterations / virtual instructions     [1000]
  --mapping M     rr | block | owner                            [owner]
  --policy P      spin | yield | block (RIO wait policy)        [yield]
  --scheduler S   fifo | lifo | locality | priority (coor)      [fifo]
  --queue Q       locked | ring (coor central ready queue;
                  ring = wait-free MPMC, fifo/lifo only)        [locked]
  --repeat N      repetitions (best time reported)              [1]
  --seed N        workload seed                                 [42]
  --counter-bits N  lint: protocol counter width for RP2xx       [64]
  --fail-on S     lint/check: exit 3 at error|warning|info       [warning]
  --fault-rate R  chaos: P(injected fault) per (task, attempt)   [0.05]
  --faults K      chaos: fault kinds to sweep — transient | stall |
                  crash (permanent worker death; the run recovers
                  by evict-and-remap + resume) | all        [transient]
  --fault-seeds N chaos: fault-plan seeds per (engine, rate)     [3]
  --retries N     chaos: retry budget (max attempts per task)    [3]
  --retry-tasks S per-task retry overrides "id=N,id=N"           []
  --watchdog-ms N chaos: progress watchdog window, 0 disables    [2000]
  --engines CSV   chaos: executes_bodies engines to sweep
                  (see `rioflow engines`)      [rio,rio-pruned,coor,hybrid]
  --recover       run: supervise the execution — checkpoint the
                  completion frontier and, on worker loss, evict,
                  remap and resume (supports_recovery engines)
                  verify: model the recovery protocol — phase 1
                  explores a mid-flow worker death, phase 2 the
                  resumed evicted configuration
  --max-preemptions N  verify: bound scheduler preemptions     [unbounded]
  --naive         verify: disable DPOR (full naive enumeration)
  --passes CSV    optimize: passes to apply, in order           [all]
  --tune          optimize: score map candidates by sim-rio makespan
  --report        optimize: print the per-pass report table
  --fuse-threshold N  fuse/lint RF501: tiny-task cost cutoff    [1000]
  --blame         profile: also run the causal analyzer
  --sample N      profile/blame: record every Nth span          [1]
  --top K         blame: stall edges printed / kept in --json   [10]
  --threshold P   obs-diff: regression threshold in percent     [5]
  --quick         chaos/profile/blame/verify: shrunk run for CI gates
  --summary       print flow structure summary
  --decompose     print e_p/e_r efficiency decomposition
  --dot FILE      write the dependency DAG as Graphviz DOT
  --trace FILE    write a Chrome trace (real engines; profile: obs trace)
  --json FILE     machine-readable report (profile: rio.obs.v1, blame:
                  rio.blame.v1, obs-diff: rio.obsdiff.v1, chaos:
                  rio.chaos.v2, lint: rio.lint.v1, check: rio.check.v1,
                  optimize: rio.optimize.v1)
  --csv           machine-readable outputs
  --help
)";
}

bool parse(int argc, const char* const* argv, Options& o,
           std::string& error) {
  int first = 1;
  if (argc > 1 && argv[1][0] != '-') {
    const std::string cmd = argv[1];
    if (cmd != "lint" && cmd != "check" && cmd != "chaos" &&
        cmd != "profile" && cmd != "blame" && cmd != "obs-diff" &&
        cmd != "engines" && cmd != "verify" && cmd != "optimize") {
      error = "unknown command '" + cmd +
              "' (lint|check|chaos|profile|blame|obs-diff|engines|verify|"
              "optimize)";
      return false;
    }
    o.command = cmd;
    first = 2;
  }
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    auto need_value = [&](const char* name) -> const char* {
      if (i + 1 >= argc) {
        error = std::string(name) + " needs a value";
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      o.help = true;
      return true;
    } else if (arg == "--summary") {
      o.summary = true;
    } else if (arg == "--decompose") {
      o.decompose = true;
    } else if (arg == "--csv") {
      o.csv = true;
    } else if (arg == "--quick") {
      o.quick = true;
    } else if (arg == "--blame") {
      o.blame = true;
    } else if (arg == "--sample") {
      const char* v = need_value("--sample");
      if (!v) return false;
      if (!to_u64(std::string(v), o.sample) || o.sample == 0) {
        error = std::string("--sample needs an integer >= 1, got '") + v +
                "'";
        return false;
      }
    } else if (arg == "--top") {
      const char* v = need_value("--top");
      if (!v) return false;
      std::uint32_t n = 0;
      if (!to_u32(std::string(v), n)) {
        error = std::string("bad numeric value for --top: '") + v + "'";
        return false;
      }
      o.top_edges = n;
    } else if (arg == "--threshold") {
      const char* v = need_value("--threshold");
      if (!v) return false;
      char* end = nullptr;
      o.threshold = std::strtod(v, &end);
      if (end == v || *end != '\0' || o.threshold < 0.0) {
        error = std::string("bad value for --threshold: '") + v + "'";
        return false;
      }
    } else if (arg == "--recover") {
      o.recover = true;
    } else if (arg == "--naive") {
      o.naive = true;
    } else if (arg == "--max-preemptions") {
      const char* v = need_value("--max-preemptions");
      if (!v) return false;
      std::uint32_t n = 0;
      if (!to_u32(std::string(v), n)) {
        error = std::string("bad numeric value for --max-preemptions: '") +
                v + "'";
        return false;
      }
      o.max_preemptions = static_cast<int>(n);
    } else if (arg == "--workload") {
      const char* v = need_value("--workload");
      if (!v) return false;
      o.workload = v;
      o.workload_given = true;
    } else if (arg == "--fault-rate") {
      const char* v = need_value("--fault-rate");
      if (!v) return false;
      char* end = nullptr;
      o.fault_rate = std::strtod(v, &end);
      if (end == v || *end != '\0') {
        error = std::string("bad numeric value for --fault-rate: '") + v + "'";
        return false;
      }
    } else if (arg == "--engines") {
      const char* v = need_value("--engines");
      if (!v) return false;
      o.engines = v;
    } else if (arg == "--faults") {
      const char* v = need_value("--faults");
      if (!v) return false;
      o.faults = v;
    } else if (arg == "--retry-tasks") {
      const char* v = need_value("--retry-tasks");
      if (!v) return false;
      o.retry_tasks = v;
    } else if (arg == "--engine") {
      const char* v = need_value("--engine");
      if (!v) return false;
      o.engine = v;
      o.engine_given = true;
    } else if (arg == "--passes") {
      const char* v = need_value("--passes");
      if (!v) return false;
      o.passes = v;
    } else if (arg == "--tune") {
      o.tune = true;
    } else if (arg == "--report") {
      o.report = true;
    } else if (arg == "--fuse-threshold") {
      const char* v = need_value("--fuse-threshold");
      if (!v) return false;
      if (!to_u64(std::string(v), o.fuse_threshold)) {
        error = std::string("bad numeric value for --fuse-threshold: '") + v +
                "'";
        return false;
      }
    } else if (arg == "--mapping") {
      const char* v = need_value("--mapping");
      if (!v) return false;
      o.mapping = v;
    } else if (arg == "--policy") {
      const char* v = need_value("--policy");
      if (!v) return false;
      o.policy = v;
    } else if (arg == "--scheduler") {
      const char* v = need_value("--scheduler");
      if (!v) return false;
      o.scheduler = v;
    } else if (arg == "--queue") {
      const char* v = need_value("--queue");
      if (!v) return false;
      o.queue = v;
    } else if (arg == "--dot") {
      const char* v = need_value("--dot");
      if (!v) return false;
      o.dot_path = v;
    } else if (arg == "--trace") {
      const char* v = need_value("--trace");
      if (!v) return false;
      o.trace_path = v;
    } else if (arg == "--json") {
      const char* v = need_value("--json");
      if (!v) return false;
      o.json_path = v;
    } else if (arg == "--fail-on") {
      const char* v = need_value("--fail-on");
      if (!v) return false;
      o.fail_on = v;
    } else if (arg == "--workers" || arg == "--tasks" || arg == "--tiles" ||
               arg == "--width" || arg == "--steps" || arg == "--task-size" ||
               arg == "--repeat" || arg == "--seed" ||
               arg == "--counter-bits" || arg == "--fault-seeds" ||
               arg == "--retries" || arg == "--watchdog-ms") {
      const char* v = need_value(arg.c_str());
      if (!v) return false;
      const std::string value = v;
      bool ok = true;
      if (arg == "--workers") ok = to_u32(value, o.workers);
      else if (arg == "--tasks") ok = to_u64(value, o.tasks);
      else if (arg == "--tiles") ok = to_u32(value, o.tiles);
      else if (arg == "--width") ok = to_u32(value, o.width);
      else if (arg == "--steps") ok = to_u32(value, o.steps);
      else if (arg == "--task-size") ok = to_u64(value, o.task_size);
      else if (arg == "--seed") ok = to_u64(value, o.seed);
      else if (arg == "--counter-bits")
        ok = to_u32(value, o.counter_bits) && o.counter_bits > 0;
      else if (arg == "--fault-seeds")
        ok = to_u32(value, o.fault_seeds) && o.fault_seeds > 0;
      else if (arg == "--retries")
        ok = to_u32(value, o.retries) && o.retries > 0;
      else if (arg == "--watchdog-ms")
        ok = to_u64(value, o.watchdog_ms);
      else {
        std::uint32_t r = 0;
        ok = to_u32(value, r);
        o.repeat = static_cast<int>(r);
      }
      if (!ok) {
        error = "bad numeric value for " + arg + ": '" + value + "'";
        return false;
      }
    } else if (!arg.empty() && arg[0] != '-') {
      if (o.command != "obs-diff") {
        error = "unexpected operand '" + arg +
                "' (only obs-diff takes positional files)";
        return false;
      }
      o.inputs.push_back(arg);
    } else {
      error = "unknown option '" + arg + "'";
      return false;
    }
  }
  if (o.workers == 0) {
    error = "--workers must be >= 1";
    return false;
  }
  if (o.repeat < 1) {
    error = "--repeat must be >= 1";
    return false;
  }
  // Default-engine config: RIOFLOW_ENGINE fills in when --engine was not
  // given. Resolution (and the unknown-name error with its choices list)
  // happens later in the registry, like any other engine name or alias.
  if (!o.engine_given) {
    if (const char* env = std::getenv("RIOFLOW_ENGINE"); env && *env) {
      o.engine = env;
    }
  }
  return true;
}

int run(const Options& o, std::ostream& out, std::ostream& err) {
  if (o.help) {
    out << usage();
    return 0;
  }
  if (o.command == "lint") return run_lint(o, out, err);
  if (o.command == "check") return run_check(o, out, err);
  if (o.command == "chaos") return run_chaos(o, out, err);
  if (o.command == "profile") return run_profile(o, out, err);
  if (o.command == "blame") return run_blame(o, out, err);
  if (o.command == "obs-diff") return run_obs_diff(o, out, err);
  if (o.command == "engines") return run_engines(o, out, err);
  if (o.command == "verify") return run_verify(o, out, err);
  if (o.command == "optimize") return run_optimize(o, out, err);
  std::string error;
  const engine::Backend* backend =
      engine::Registry::instance().find_or_error(o.engine, error);
  if (backend == nullptr) {
    err << "rioflow: " << error << "\n";
    return 1;
  }
  workloads::Workload wl;
  if (!build_workload(o, body_for(*backend), wl, error)) {
    err << "rioflow: " << error << "\n";
    return 1;
  }

  stf::DependencyGraph graph(wl.flow);
  if (o.summary) {
    out << "-- flow: " << wl.name << " --\n";
    stf::print_summary(stf::summarize_flow(wl.flow, graph), out);
  }
  if (!o.dot_path.empty()) {
    std::ofstream f(o.dot_path);
    if (!f) {
      err << "rioflow: cannot write " << o.dot_path << "\n";
      return 2;
    }
    stf::export_dot(wl.flow, graph, f, wl.owners);
    out << "wrote " << o.dot_path << "\n";
  }

  engine::Launch launch;
  if (!make_launch(o, wl, launch, error)) {
    err << "rioflow: " << error << "\n";
    return 1;
  }
  if (!o.retry_tasks.empty() &&
      !parse_retry_tasks(o.retry_tasks, launch.retry, error)) {
    err << "rioflow: " << error << "\n";
    return 1;
  }
  const bool want_trace = !o.trace_path.empty();
  launch.collect_trace = want_trace;

  // A priority scheduler needs priorities: derive them from the dependency
  // graph's bottom levels for any backend that honours a scheduler. Must
  // happen before the image is compiled (the image snapshots priorities).
  if (backend->caps().uses_scheduler &&
      launch.scheduler == coor::SchedulerKind::kPriority) {
    const auto levels = graph.bottom_levels(wl.flow);
    for (stf::TaskId t = 0; t < wl.flow.num_tasks(); ++t)
      wl.flow.set_priority(t, static_cast<std::int32_t>(levels[t]));
  }
  const stf::FlowImage image = stf::FlowImage::compile(wl.flow);

  double best_s = 1e300;
  engine::Outcome outcome;
  for (int rep = 0; rep < o.repeat; ++rep) {
    support::Stopwatch sw;
    try {
      // --recover runs under the supervisor: a checkpointed completion
      // frontier plus evict-and-remap + resume on permanent worker loss.
      outcome = o.recover ? engine::run_supervised(*backend, image, launch)
                          : backend->run(image, launch);
    } catch (const engine::UnsupportedLaunch& e) {
      err << "rioflow: " << e.what() << "\n";
      return 2;
    }
    best_s = std::min(best_s, sw.elapsed_s());
  }
  const support::RunStats& stats = outcome.stats;
  const stf::Trace& trace = outcome.trace;

  // ---- report -------------------------------------------------------------
  support::Table table({"engine", "workload", "tasks", "workers", "time"});
  table.row()
      .str(o.engine)
      .str(wl.name)
      .integer(static_cast<long long>(wl.flow.num_tasks()))
      .integer(o.workers)
      .str(outcome.virtual_time
               ? support::format_duration_ns(
                     static_cast<double>(outcome.makespan)) +
                     " (virtual)"
               : support::format_duration_ns(best_s * 1e9));
  if (o.csv)
    table.print_csv(out);
  else
    table.print(out);

  if (o.recover)
    out << "recovery: " << outcome.evictions << " evictions, "
        << outcome.tasks_replayed << " tasks replayed"
        << (outcome.evictions > 0
                ? ", " + support::format_duration_ns(
                      static_cast<double>(outcome.recovery_wall_ns)) +
                      " recovering"
                : std::string())
        << "\n";

  if (o.decompose) {
    const auto e = metrics::decompose_synthetic(stats.cumulative());
    out << "e_p = " << e.e_p << ", e_r = " << e.e_r
        << ", e_p*e_r = " << e.e_p * e.e_r << "\n";
  }
  if (want_trace) {
    if (trace.size() == 0) {
      err << "rioflow: engine '" << o.engine << "' produced no trace\n";
      return 2;
    }
    std::ofstream f(o.trace_path);
    if (!f) {
      err << "rioflow: cannot write " << o.trace_path << "\n";
      return 2;
    }
    stf::export_chrome_trace(trace, wl.flow, f);
    out << "wrote " << o.trace_path << "\n";
  }
  return 0;
}

}  // namespace rio::cli
