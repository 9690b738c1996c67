// perfbench — registry-path end-to-end benchmark.
//
// One process, one caller thread, closed loop: each engine::Backend::run
// starts after the previous one returned. Engines run interleaved in
// rotating order (round r starts at engine r mod E), so slow drift of the
// host hits every engine alike. Data reset and the byte-oracle check happen
// outside the timed region.
//
//   perfbench --workload <fine|fine-cross> --seed <n>
//             --seconds <s> --trace <0|1> [--out <dir>] [--commit <id>]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the probes, reads
// the obs hub on every other round, writes the span file into --out, and
// prints the per-layer metrics. The last stdout line is the result object;
// the line before it is the run metadata. Exit 1 on any failed run, oracle
// mismatch or blind oracle; exit 2 on bad arguments.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/registry.hpp"
#include "obs/obs.hpp"
#include "oracle.hpp"
#include "rio/mapping.hpp"
#include "rio/pruning.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "stf/flow_image.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/wait.hpp"
#include "workloads/dense.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace rio;
using perfbench::SpanLog;
using support::json_quote;

// 3 workers + the caller; coor's master makes it 4 threads = nproc of the
// 4-vCPU host the bounds were set on.
constexpr std::uint32_t kWorkers = 3;

// fine: Fig. 6-7 counter tasks. kFineChains is a multiple of kWorkers, so
// under round-robin every chain stays on one worker and no task ever waits
// on another worker: the wall time is per-task runtime cost. 256K tasks
// rather than 64K: a run of ~30 ms rides out a hypervisor preemption of a
// few ms, which made 8 ms runs swing by 50% on a shared 4-vCPU host.
constexpr std::uint64_t kFineTasks = 262144;
constexpr std::uint64_t kFineChains = 48;

// fine-cross: the same tasks over 47 chains. 47 is not a multiple of
// kWorkers, so under round-robin each task's chain predecessor ran on
// another worker, 47 tasks earlier: every task reads a value another
// worker released, and waits for it when the workers drift apart.
constexpr std::uint64_t kCrossChains = 47;

// Tile size of the gemm_tile probe (LU's and Fig. 8's tile size).
constexpr std::uint32_t kTileDim = 64;

// Set-up batches: each lasts at least kSetupBatchMs (one build or more);
// kSetupFirstBatches run before the loop.
constexpr double kSetupBatchMs = 20.0;
constexpr int kSetupFirstBatches = 7;

// obs hubs: counters plus a 1-in-8 flight recorder.
constexpr std::uint64_t kObsSample = 8;

// rio-obs is rio with a hub attached to every run: a user who leaves
// telemetry on. It runs in the same rotation as rio, so the two medians see
// the same host; the traced run, where every obs engine carries a hub,
// leaves it out. hybrid runs in the traced run only. Its wall is one pool
// wake-up per phase (16,384 phases on fine), so it follows the host's
// wake-up latency: across 5 processes on a shared 4-vCPU host its median
// had a relative IQR of 0.64, beyond any end-to-end bound. Its numbers are
// per-layer metrics.
const std::vector<std::string> kEngines = {"seq",        "rio",  "rio-obs",
                                           "rio-pruned", "coor", "hybrid"};
const std::vector<std::string> kWorkloads = {"fine", "fine-cross"};

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// ---------------------------------------------------------------------------
// Workloads

/// A workload and the image compiled from it.
struct Instance {
  workloads::Workload wl;
  stf::FlowImage image;
};

/// kFineTasks near-empty fold tasks, round-robin over `chains` chains and
/// over the workers.
workloads::Workload make_fine(const std::string& name, std::uint64_t chains,
                              std::uint64_t seed) {
  workloads::Workload w;
  w.name = name;
  support::Xoshiro256 rng(seed);
  std::vector<stf::DataHandle<std::uint64_t>> chain;
  chain.reserve(chains);
  for (std::uint64_t c = 0; c < chains; ++c) {
    chain.push_back(
        w.flow.create_data<std::uint64_t>("chain" + std::to_string(c)));
    const std::uint64_t v = rng();
    std::memcpy(w.flow.registry().raw(chain.back().id), &v, sizeof v);
  }
  w.owners.reserve(kFineTasks);
  for (std::uint64_t i = 0; i < kFineTasks; ++i) {
    w.flow.submit(workloads::fold_body(0),
                  {stf::readwrite(chain[i % chains])});
    w.owners.push_back(static_cast<stf::WorkerId>(i % kWorkers));
  }
  return w;
}

workloads::Workload generate(const std::string& name, std::uint64_t seed) {
  return make_fine(name, name == "fine" ? kFineChains : kCrossChains, seed);
}

/// Times set-up (generate + compile). A batch builds instances until it
/// has lasted kSetupBatchMs and records their mean. Batches run
/// before the loop and after every round, so the setup_s median samples the
/// host over the whole run as the run_ms medians do. Timed only in a window
/// at the start, it moved 25% between processes on a shared 4-vCPU host
/// where run_ms moved 6%.
struct Setup {
  std::string name;
  std::uint64_t seed = 0;
  std::vector<double> generate_ms, compile_ms, total_s;  // per instance

  /// One batch; returns its last instance.
  std::unique_ptr<Instance> batch(SpanLog& spans) {
    const SpanLog::Scope s(spans, "setup");
    std::unique_ptr<Instance> inst;
    double gen = 0.0, comp = 0.0;
    int reps = 0;
    const auto t_batch = std::chrono::steady_clock::now();
    do {
      inst.reset();
      inst = std::make_unique<Instance>();
      {
        const SpanLog::Scope g(spans, "setup.generate");
        const auto t0 = std::chrono::steady_clock::now();
        inst->wl = generate(name, seed);
        gen += ms_since(t0);
      }
      {
        const SpanLog::Scope c(spans, "setup.compile");
        const auto t0 = std::chrono::steady_clock::now();
        inst->image = stf::FlowImage::compile(inst->wl.flow);
        comp += ms_since(t0);
      }
      ++reps;
    } while (ms_since(t_batch) < kSetupBatchMs);
    generate_ms.push_back(gen / reps);
    compile_ms.push_back(comp / reps);
    total_s.push_back((gen + comp) / reps * 1e-3);
    return inst;
  }
};

// ---------------------------------------------------------------------------
// Engines and the closed loop

struct PhaseSample {
  double acquire_wait_ms, body_ms, release_ms, mgmt_ms, residual_ms;
  double protocol_waits, spin_iters, wakeups_issued;  // per task
  double recorded, dropped_frac;                      // recorder
};

struct Engine {
  std::string name;
  const engine::Backend* backend = nullptr;
  engine::Launch launch;
  std::unique_ptr<obs::Hub> hub;        // every run of rio-obs
  std::unique_ptr<obs::Hub> trace_hub;  // traced runs
  std::vector<double> wall_ms;          // untraced samples
  std::vector<double> traced_wall_ms;
  std::vector<PhaseSample> phases;
  std::uint64_t plan_compiles = 0;
  std::uint64_t runs = 0;
};

std::unique_ptr<obs::Hub> make_hub() {
  return std::make_unique<obs::Hub>(
      obs::HubOptions{.recorder = true, .sample = kObsSample});
}

struct Gate {
  const stf::DataRegistry* reg = nullptr;
  perfbench::Snapshot initial, oracle;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;

  void fail(const std::string& what) {
    ++failed;
    if (errors.size() < 8) errors.push_back(what);
  }
};

PhaseSample read_hub(obs::Hub& hub, double wall_ms, double tasks) {
  PhaseSample s{};
  double sum_ns = 0.0;
  const auto phase_ms = [&](obs::Phase p) {
    return static_cast<double>(hub.phase_total(p)) * 1e-6;
  };
  for (std::size_t p = 0; p < obs::kNumSpanPhases; ++p)
    sum_ns += static_cast<double>(hub.phase_total(static_cast<obs::Phase>(p)));
  s.acquire_wait_ms = phase_ms(obs::Phase::kAcquireWait);
  s.body_ms = phase_ms(obs::Phase::kBody);
  s.release_ms = phase_ms(obs::Phase::kRelease);
  s.mgmt_ms = phase_ms(obs::Phase::kMgmt);
  // Every thread that reports phases (workers, plus coor's master) owns
  // wall_ms of time; what no phase claims is launch, unroll/declare and
  // teardown.
  s.residual_ms =
      static_cast<double>(hub.num_workers()) * wall_ms - sum_ns * 1e-6;
  const obs::CounterSnapshot c = hub.counter_snapshot();
  s.protocol_waits =
      static_cast<double>(c.total(obs::Counter::kProtocolWaits)) / tasks;
  s.spin_iters = static_cast<double>(c.total(obs::Counter::kSpinIters)) / tasks;
  s.wakeups_issued =
      static_cast<double>(c.total(obs::Counter::kWakeupsIssued)) / tasks;
  // The recorder counts sampled-out pushes as dropped too; only events the
  // 1-in-k sample selected and a full ring then overwrote are lost here.
  std::uint64_t selected = 0, recorded = 0;
  for (std::size_t w = 0; w < hub.num_workers(); ++w) {
    const obs::EventRing* ring = hub.ring(w);
    if (ring == nullptr) continue;
    selected += (ring->pushed() + ring->stride() - 1) / ring->stride();
    recorded += ring->recorded();
  }
  s.recorded = static_cast<double>(recorded) / tasks;
  s.dropped_frac = selected == 0 ? 0.0
                                 : static_cast<double>(selected - recorded) /
                                       static_cast<double>(selected);
  return s;
}

/// Median of one field over an engine's traced runs (0 when there are none).
double median_of(const std::vector<PhaseSample>& runs, double PhaseSample::*f) {
  std::vector<double> v;
  for (const PhaseSample& r : runs) v.push_back(r.*f);
  return v.empty() ? 0.0 : perfbench::median(v);
}

/// One checked run: reset data, time Backend::run, compare with the oracle.
void run_once(Engine& e, const stf::FlowImage& image, Gate& gate, bool traced,
              SpanLog& spans) {
  perfbench::restore(*gate.reg, gate.initial);
  obs::Hub* hub = traced ? e.trace_hub.get() : e.hub.get();
  if (hub != nullptr) hub->reset();
  e.launch.obs = hub;
  ++gate.attempted;
  ++e.runs;
  bool ok = true;
  double wall = 0.0;
  {
    const SpanLog::Scope s(spans, "run." + e.name);
    try {
      const auto t0 = std::chrono::steady_clock::now();
      const engine::Outcome out = e.backend->run(image, e.launch);
      wall = ms_since(t0);
      e.plan_compiles += out.plan_compiles;
    } catch (const std::exception& ex) {
      ok = false;
      gate.fail(e.name + ": " + ex.what());
    }
  }
  {
    const SpanLog::Scope s(spans, "oracle." + e.name);
    if (ok) {
      if (const auto bad = perfbench::first_mismatch(*gate.reg, gate.oracle)) {
        ok = false;
        gate.fail(e.name + ": data object " + std::to_string(*bad) +
                  " differs from the sequential oracle");
      }
    }
  }
  if (!ok) return;
  (traced ? e.traced_wall_ms : e.wall_ms).push_back(wall);
  if (traced && hub != nullptr)
    e.phases.push_back(read_hub(*hub, wall, static_cast<double>(image.size())));
}

// ---------------------------------------------------------------------------
// Probes (traced run only), each timed from outside through public calls.

/// Wall times of `fn` over at least `min_reps` calls and `min_ms`, capped.
std::vector<double> probe_ms(const std::function<void()>& fn, int min_reps,
                             double min_ms, int max_reps) {
  std::vector<double> v;
  const auto t_all = std::chrono::steady_clock::now();
  while (static_cast<int>(v.size()) < max_reps &&
         (static_cast<int>(v.size()) < min_reps || ms_since(t_all) < min_ms)) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    v.push_back(ms_since(t0));
  }
  return v;
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name, unit;
  double value = 0.0;
  std::size_t samples = 0;
};

std::string json_num(double v) {
  return std::isfinite(v) ? support::json_double(v) : "null";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// System-wide CPU time counters from the first line of /proc/stat.
struct CpuTimes {
  std::uint64_t total = 0, steal = 0;
};

CpuTimes cpu_times() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  CpuTimes t;
  if (!(f >> cpu) || cpu != "cpu") return t;
  for (int i = 0; i < 8; ++i) {
    std::uint64_t v = 0;
    if (!(f >> v)) return CpuTimes{};
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

/// Share of CPU time the hypervisor stole since `since` (the steal column
/// of /proc/stat), in percent; -1 where the file is unreadable. Recorded
/// with every result: it is the main outside source of run-to-run spread
/// on a shared virtual machine.
double steal_pct(const CpuTimes& since) {
  const CpuTimes now = cpu_times();
  if (now.total <= since.total) return -1.0;
  return 100.0 * static_cast<double>(now.steal - since.steal) /
         static_cast<double>(now.total - since.total);
}

std::string hostname() {
  char buf[256] = {};
  if (gethostname(buf, sizeof buf - 1) != 0) return "unknown";
  return buf;
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <fine|fine-cross> "
               "--seed <n> --seconds <s> --trace <0|1> [--out <dir>] "
               "[--commit <id>]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, out_dir = ".", commit = "unknown";
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    try {
      if (a == "--workload") workload = v;
      else if (a == "--seed") seed = std::stoull(v);
      else if (a == "--seconds") seconds = std::stod(v);
      else if (a == "--trace") trace = std::stoi(v);
      else if (a == "--out") out_dir = v;
      else if (a == "--commit") commit = v;
      else usage("unknown option " + a);
    } catch (const std::logic_error&) {
      usage("bad value for " + a + ": " + v);
    }
  }
  if (std::find(kWorkloads.begin(), kWorkloads.end(), workload) ==
      kWorkloads.end())
    usage("unknown workload '" + workload + "'");
  if (seconds <= 0.0) usage("--seconds must be positive");
  if (trace != 0 && trace != 1) usage("--trace must be 0 or 1");
  const bool traced_mode = trace == 1;

  SpanLog spans(traced_mode);
  const auto t_start = std::chrono::steady_clock::now();

  // -- set-up ---------------------------------------------------------------
  Setup su;
  su.name = workload;
  su.seed = seed;
  std::unique_ptr<Instance> inst;
  for (int b = 0; b < kSetupFirstBatches; ++b) {
    inst.reset();
    inst = su.batch(spans);
  }
  const stf::FlowImage& image = inst->image;
  const rt::Mapping mapping = inst->wl.mapping(kWorkers);

  Gate gate;
  gate.reg = &image.registry();
  gate.initial = perfbench::snapshot(*gate.reg);

  std::vector<Engine> engines;
  for (const std::string& name : kEngines) {
    if (name == (traced_mode ? "rio-obs" : "hybrid")) continue;
    Engine e;
    e.name = name;
    e.backend =
        engine::Registry::instance().find(name == "rio-obs" ? "rio" : name);
    e.launch.workers = kWorkers;
    if (e.backend->caps().needs_mapping) e.launch.mapping = mapping;
    if (name == "rio-obs") e.hub = make_hub();
    if (traced_mode && e.backend->caps().supports_obs)
      e.trace_hub = make_hub();
    engines.push_back(std::move(e));
  }

  // The oracle: one sequential run (engines.front() is seq) from the
  // initial bytes.
  bool gate_ok = true;
  try {
    (void)engines.front().backend->run(image, engines.front().launch);
    gate.oracle = perfbench::snapshot(*gate.reg);
  } catch (const std::exception& ex) {
    std::cerr << "perfbench: sequential oracle run failed: " << ex.what()
              << "\n";
    return 1;
  }
  // The gate must be able to fail: flip one byte and expect a mismatch.
  if (!perfbench::self_check(*gate.reg, gate.oracle)) {
    gate_ok = false;
    gate.errors.push_back("oracle self-check: a flipped byte went unseen");
  }

  // -- warm-up round (checked, not timed) ----------------------------------
  for (Engine& e : engines) run_once(e, image, gate, false, spans);
  for (Engine& e : engines) {
    e.wall_ms.clear();
    e.plan_compiles = 0;
    e.runs = 0;
  }

  // -- probes (traced run only) --------------------------------------------
  std::vector<Metric> layer;
  if (traced_mode) {
    layer.push_back({"workloads.generate_ms", "ms",
                     perfbench::median(su.generate_ms), su.generate_ms.size()});
    layer.push_back({"stf.image_compile_ms", "ms",
                     perfbench::median(su.compile_ms), su.compile_ms.size()});
    {
      const SpanLog::Scope s(spans, "probe.plan_compile");
      const std::vector<double> ms = probe_ms(
          [&] {
            const rt::PrunedPlan plan(image, mapping, kWorkers);
            if (plan.total_tasks() != image.size()) std::abort();
          },
          5, 200.0, 51);
      layer.push_back(
          {"rio.plan_compile_ms", "ms", perfbench::median(ms), ms.size()});
    }
    {
      // One fold task on one object: what every Backend::run pays before
      // and after the work itself.
      const SpanLog::Scope s(spans, "probe.launch");
      stf::TaskFlow one;
      const auto h = one.create_data<std::uint64_t>("x");
      one.submit(workloads::fold_body(0), {stf::readwrite(h)});
      const stf::FlowImage one_img = stf::FlowImage::compile(one);
      for (Engine& e : engines) {
        engine::Launch l = e.launch;
        l.obs = nullptr;
        if (l.mapping.valid()) l.mapping = rt::mapping::round_robin(kWorkers);
        const SpanLog::Scope se(spans, "probe.launch." + e.name);
        const std::vector<double> ms = probe_ms(
            [&] { (void)e.backend->run(one_img, l); }, 30, 150.0, 400);
        layer.push_back({e.name + ".launch_us", "us",
                         perfbench::median(ms) * 1e3, ms.size()});
      }
    }
    {
      const SpanLog::Scope s(spans, "probe.gemm_tile");
      const std::size_t n = kTileDim;
      std::vector<double> a(n * n), b(n * n), c(n * n, 0.0);
      support::Xoshiro256 rng(seed);
      for (double& x : a) x = rng.uniform() - 0.5;
      for (double& x : b) x = rng.uniform() - 0.5;
      constexpr int kPerBatch = 16;
      const std::vector<double> batches = probe_ms(
          [&] {
            for (int k = 0; k < kPerBatch; ++k)
              workloads::gemm_tile(c.data(), a.data(), b.data(), n);
          },
          11, 200.0, 201);
      const double ms = perfbench::median(batches);
      if (c[0] != c[0]) std::abort();  // keeps the kernel's result live
      const double flops = workloads::gemm_flops(n) * kPerBatch;
      layer.push_back({"workloads.gemm_tile_gflops", "GFLOP/s",
                       flops / (ms * 1e-3) * 1e-9, batches.size()});
      // Computed, not measured: 2 n^3 flops over C read + write, A, B.
      layer.push_back({"workloads.gemm_tile_flops_per_byte", "flop/B",
                       workloads::gemm_flops(n) /
                           (4.0 * static_cast<double>(n * n) * sizeof(double)),
                       0});
    }
  }

  // -- the measured closed loop --------------------------------------------
  // Traced mode alternates untraced and traced rounds so both see the same
  // host; trace.overhead_pct compares them.
  const auto t_loop = std::chrono::steady_clock::now();
  const CpuTimes cpu_loop = cpu_times();
  std::uint64_t round = 0;
  const std::size_t ne = engines.size();
  while (ms_since(t_loop) < seconds * 1e3 || round < 2) {
    const bool traced = traced_mode && (round % 2 == 1);
    const SpanLog::Scope s(spans, traced ? "round.traced" : "round");
    for (std::size_t k = 0; k < ne; ++k)
      run_once(engines[(round + k) % ne], image, gate, traced, spans);
    (void)su.batch(spans);
    ++round;
  }
  const double loop_steal_pct = steal_pct(cpu_loop);
  perfbench::restore(*gate.reg, gate.initial);

  // -- metrics -------------------------------------------------------------
  const auto med = [](const std::vector<double>& v) {
    return v.empty() ? 0.0 : perfbench::median(v);
  };
  const auto find = [&](const std::string& n) -> Engine& {
    for (Engine& e : engines)
      if (e.name == n) return e;
    std::abort();
  };
  std::vector<Metric> e2e;
  if (!traced_mode) {
    e2e.push_back({"setup_s", "s", perfbench::median(su.total_s),
                   su.total_s.size()});
    for (const Engine& e : engines)
      e2e.push_back({e.name + ".run_ms", "ms", med(e.wall_ms),
                     e.wall_ms.size()});
    e2e.push_back({"peak_rss_mb", "MB", peak_rss_mb(), 1});
  } else {
    // From the untraced rounds: reported, but too host-sensitive to gate.
    const Engine& hybrid = find("hybrid");
    layer.push_back({"hybrid.run_ms", "ms", med(hybrid.wall_ms),
                     hybrid.wall_ms.size()});
    for (const char* n : {"rio", "rio-pruned", "coor"}) {
      const Engine& e = find(n);
      layer.push_back({e.name + ".run_ms_p90", "ms",
                       e.wall_ms.empty() ? 0.0
                                         : perfbench::percentile(e.wall_ms, 90),
                       e.wall_ms.size()});
    }
    const Engine& pruned = find("rio-pruned");
    layer.push_back({"rio-pruned.plan_compiles_per_run", "count",
                     pruned.runs == 0
                         ? 0.0
                         : static_cast<double>(pruned.plan_compiles) /
                               static_cast<double>(pruned.runs),
                     pruned.runs});
    std::vector<double> recorded, dropped;
    for (const Engine& e : engines) {
      if (!e.trace_hub) continue;
      const std::size_t ns = e.phases.size();
      const std::pair<const char*, double PhaseSample::*> fields[] = {
          {"acquire_wait_ms", &PhaseSample::acquire_wait_ms},
          {"body_ms", &PhaseSample::body_ms},
          {"release_ms", &PhaseSample::release_ms},
          {"mgmt_ms", &PhaseSample::mgmt_ms},
          {"residual_ms", &PhaseSample::residual_ms},
          {"protocol_waits_per_task", &PhaseSample::protocol_waits},
          {"spin_iters_per_task", &PhaseSample::spin_iters},
          {"wakeups_issued_per_task", &PhaseSample::wakeups_issued}};
      for (const auto& [suffix, f] : fields) {
        const std::string s = suffix;
        // Only a master thread does management work (coor, hybrid).
        if (s == "mgmt_ms" && !e.backend->caps().has_master) continue;
        // Phases are summed over threads: thread-milliseconds per run.
        layer.push_back({e.name + "." + s,
                         s.ends_with("_ms") ? "thread-ms" : "count/task",
                         median_of(e.phases, f), ns});
      }
      for (const PhaseSample& p : e.phases) {
        recorded.push_back(p.recorded);
        dropped.push_back(p.dropped_frac);
      }
    }
    layer.push_back({"obs.recorded_per_task", "count/task", med(recorded),
                     recorded.size()});
    layer.push_back({"obs.dropped_frac", "ratio", med(dropped),
                     dropped.size()});

    // Simulator check: sim-rio speedup (1 worker vs p) against the
    // measured seq/rio speedup of this run's untraced rounds.
    {
      const SpanLog::Scope s(spans, "probe.sim");
      const engine::Backend* sim = engine::Registry::instance().find("sim-rio");
      engine::Launch l1;
      l1.workers = 1;
      l1.mapping = rt::mapping::round_robin(1);
      engine::Launch lp;
      lp.workers = kWorkers;
      lp.mapping = mapping;
      const double m1 = static_cast<double>(sim->run(image, l1).makespan);
      const double mp = static_cast<double>(sim->run(image, lp).makespan);
      const double rio_ms = med(find("rio").wall_ms);
      const double measured =
          rio_ms > 0.0 ? med(find("seq").wall_ms) / rio_ms : 0.0;
      layer.push_back({"sim-rio.speedup_err", "ratio",
                       measured > 0.0 ? std::abs((m1 / mp) / measured - 1.0)
                                      : 0.0,
                       find("rio").wall_ms.size()});
    }
    double plain = 0.0, with_trace = 0.0;
    std::size_t n_pairs = 0;
    for (const Engine& e : engines) {
      plain += med(e.wall_ms);
      with_trace += med(e.traced_wall_ms);
      n_pairs += e.traced_wall_ms.size();
    }
    layer.push_back({"trace.overhead_pct", "%",
                     plain > 0.0 ? (with_trace / plain - 1.0) * 100.0 : 0.0,
                     n_pairs});
  }
  const std::vector<Metric>& metrics = traced_mode ? layer : e2e;

  // -- span file -----------------------------------------------------------
  std::string spans_path;
  if (traced_mode) {
    std::filesystem::create_directories(out_dir);
    spans_path = out_dir + "/spans-" + workload + "-seed" +
                 std::to_string(seed) + ".json";
    std::ofstream os(spans_path);
    spans.write_json(os);
  }

  // -- report --------------------------------------------------------------
  const bool correct = gate_ok && gate.failed == 0;
  const double fail_frac =
      static_cast<double>(gate.failed) /
      static_cast<double>(std::max<std::uint64_t>(gate.attempted, 1));
  std::cerr << "perfbench " << workload << " seed=" << seed
            << (traced_mode ? " (traced)" : "") << ": " << image.size()
            << " tasks, " << round << " rounds in "
            << json_num(ms_since(t_loop) / 1e3).substr(0, 6) << " s, "
            << gate.failed << "/" << gate.attempted
            << " runs failed, host steal " << loop_steal_pct
            << "% (fail_frac " << fail_frac << ")\n";
  for (const Metric& m : metrics)
    std::fprintf(stderr, "  %-40s %14.6g %-10s (n=%zu)\n", m.name.c_str(),
                 m.value, m.unit.c_str(), m.samples);
  if (traced_mode) {
    std::cerr << "  waterfall (ms of thread time per run: threads x wall = "
                 "acquire_wait + body + release + mgmt + residual):\n";
    for (const Engine& e : engines) {
      if (e.phases.empty()) continue;
      const auto m = [&](double PhaseSample::*f) {
        return median_of(e.phases, f);
      };
      std::fprintf(stderr,
                   "    %-11s %3zu x %9.3f = %9.3f + %9.3f + %9.3f + %9.3f + "
                   "%9.3f\n",
                   e.name.c_str(), e.trace_hub->num_workers(),
                   perfbench::median(e.traced_wall_ms),
                   m(&PhaseSample::acquire_wait_ms), m(&PhaseSample::body_ms),
                   m(&PhaseSample::release_ms), m(&PhaseSample::mgmt_ms),
                   m(&PhaseSample::residual_ms));
    }
    std::cerr << "  spans: " << spans_path << "\n";
  }
  for (const std::string& err : gate.errors)
    std::cerr << "  FAILURE: " << err << "\n";

  std::string order = "round r runs engines[(r+k) mod " +
                      std::to_string(engines.size()) + "] over ";
  for (std::size_t i = 0; i < engines.size(); ++i)
    order += (i ? "," : "") + engines[i].name;
  std::ostringstream meta;
  meta << "{\"perfbench_meta\": {\"workload\": " << json_quote(workload)
       << ", \"seed\": " << seed << ", \"trace\": " << trace
       << ", \"host\": " << json_quote(hostname())
       << ", \"nproc\": " << std::thread::hardware_concurrency()
       << ", \"compiler\": " << json_quote(std::string("g++ ") + __VERSION__)
       << ", \"commit\": " << json_quote(commit) << ", \"p\": " << kWorkers
       << ", \"wait_policy\": "
       << json_quote(support::to_string(engine::Launch{}.wait_policy))
       << ", \"pinning\": \"none (Launch::pin_workers=false, process "
          "unpinned)\""
       << ", \"engine_order\": " << json_quote(order)
       << ", \"steal_pct\": " << json_num(loop_steal_pct)
       << ", \"tasks\": " << image.size() << ", \"rounds\": " << round
       << ", \"wall_s\": " << json_num(ms_since(t_start) / 1e3)
       << ", \"fail_frac\": "
       << json_num(fail_frac)
       << ", \"spans_file\": " << json_quote(spans_path)
       << ", \"gemm_tile_flops_per_byte\": \"computed, not measured\""
       << ", \"samples\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    meta << (i ? ", " : "") << json_quote(metrics[i].name) << ": "
         << metrics[i].samples;
  // Median plus interval: the quartiles of each engine's wall samples.
  meta << "}, \"wall_ms_q1_q3\": {";
  bool first = true;
  for (const Engine& e : engines) {
    if (e.wall_ms.size() < 2) continue;
    const std::array<double, 3> q = perfbench::quartiles(e.wall_ms);
    meta << (first ? "" : ", ") << json_quote(e.name) << ": [" << json_num(q[0])
         << ", " << json_num(q[2]) << "]";
    first = false;
  }
  meta << "}, \"wall_ms\": {";
  for (std::size_t i = 0; i < engines.size(); ++i) {
    meta << (i ? ", " : "") << json_quote(engines[i].name) << ": [";
    for (std::size_t k = 0; k < engines[i].wall_ms.size(); ++k) {
      char buf[24];
      std::snprintf(buf, sizeof buf, "%.3f", engines[i].wall_ms[k]);
      meta << (k ? ", " : "") << buf;
    }
    meta << "]";
  }
  meta << "}, \"errors\": [";
  for (std::size_t i = 0; i < gate.errors.size(); ++i)
    meta << (i ? ", " : "") << json_quote(gate.errors[i]);
  meta << "]}}";
  // The full record (every sample) goes to a file; stdout gets it without
  // the raw samples.
  std::string meta_line = meta.str();
  {
    std::filesystem::create_directories(out_dir);
    std::ofstream(out_dir + "/result-" + workload + "-seed" +
                  std::to_string(seed) + "-trace" + std::to_string(trace) +
                  ".json")
        << meta_line << "\n";
  }
  const std::size_t cut = meta_line.find(", \"wall_ms\": {");
  std::cout << meta_line.substr(0, cut) << meta_line.substr(
                   meta_line.find(", \"errors\": ["))
            << "\n";

  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << gate.attempted
            << ", \"failed\": " << gate.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::cout << (i ? ", " : "") << json_quote(metrics[i].name)
              << ": {\"value\": " << json_num(metrics[i].value)
              << ", \"unit\": " << json_quote(metrics[i].unit) << "}";
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}
