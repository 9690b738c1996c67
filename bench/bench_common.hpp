// Shared plumbing for the figure-reproduction binaries.
//
// Every bench prints (a) a header identifying the experiment and the
// parameters used, (b) a human-readable aligned table whose rows mirror the
// series of the paper's figure, and (c) optionally the same data as CSV
// (--csv) or a structured JSON report (--json, written to BENCH_<id>.json
// in the current directory — see docs/perf.md). --quick shrinks problem
// sizes for smoke runs. Unknown flags are an error: a typo'd flag silently
// running the full-size experiment wastes minutes before anyone notices.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "engine/registry.hpp"
#include "support/clock.hpp"
#include "support/format.hpp"
#include "stf/flow_image.hpp"

namespace rio::bench {

/// Launches registry backend `name` on `image` — the bench-side consumer of
/// the engine seam (docs/engines.md). needs_mapping backends whose Launch
/// carries no mapping get round-robin over launch.workers, so a bench can
/// sweep engines by name with zero per-engine dispatch. An unknown name
/// aborts the bench with the registry's structured error (exit 2); a knob
/// the backend lacks propagates as engine::UnsupportedLaunch.
inline engine::Outcome run_backend(const std::string& name,
                                   const stf::FlowImage& image,
                                   engine::Launch launch = {}) {
  std::string error;
  const engine::Backend* backend =
      engine::Registry::instance().find_or_error(name, error);
  if (backend == nullptr) {
    std::cerr << error << "\n";
    std::exit(2);
  }
  if (backend->caps().needs_mapping && !launch.mapping.valid())
    launch.mapping = rt::mapping::round_robin(launch.workers);
  return backend->run(image, launch);
}

/// Best-of-`reps` wall time of `run()` in milliseconds — the one timing
/// loop every micro bench shares (min-of-reps: the least-disturbed run).
template <typename RunFn>
double min_wall_ms(int reps, RunFn&& run) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    support::Stopwatch sw;
    run();
    best = std::min(best, static_cast<double>(sw.elapsed_ns()) * 1e-6);
  }
  return best;
}

struct Options {
  bool csv = false;
  bool quick = false;
  bool json = false;

  /// Parses the common flags. `extra` lists additional flags the CALLING
  /// bench handles itself (e.g. fig6's --real) so they pass validation;
  /// anything else prints usage and exits non-zero.
  static Options parse(int argc, char** argv,
                       const std::vector<std::string>& extra = {}) {
    Options o;
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--csv") == 0) {
        o.csv = true;
      } else if (std::strcmp(argv[i], "--quick") == 0) {
        o.quick = true;
      } else if (std::strcmp(argv[i], "--json") == 0) {
        o.json = true;
      } else if (std::strcmp(argv[i], "--help") == 0 ||
                 std::strcmp(argv[i], "-h") == 0) {
        std::cout << usage(extra);
        std::exit(0);
      } else {
        bool known = false;
        for (const std::string& e : extra)
          if (e == argv[i]) known = true;
        if (!known) {
          std::cerr << "unknown option: " << argv[i] << "\n" << usage(extra);
          std::exit(2);
        }
      }
    }
    return o;
  }

  static std::string usage(const std::vector<std::string>& extra) {
    std::string u =
        "options: --csv (machine-readable) --quick (small sizes) "
        "--json (write BENCH_<id>.json)";
    for (const std::string& e : extra) u += " " + e;
    u += "\n";
    return u;
  }
};

inline void header(const std::string& id, const std::string& what) {
  std::cout << "==========================================================\n"
            << id << ": " << what << "\n"
            << "==========================================================\n";
}

/// Accumulates the tables a bench emits and writes them as one JSON report
/// BENCH_<id>.json: {"bench": id, "quick": ..., "sections": {name: [row
/// objects keyed by column]}, "notes": {...}}. Cells that parse as numbers
/// are emitted raw so downstream tooling gets real numerics. Inactive
/// (records nothing, writes nothing) unless the bench ran with --json.
class JsonReporter {
 public:
  JsonReporter(std::string id, const Options& opt)
      : id_(std::move(id)), active_(opt.json), quick_(opt.quick) {}

  void add(const std::string& section, const support::Table& table) {
    if (active_) sections_.emplace_back(section, table);
  }

  void note(const std::string& key, const std::string& value) {
    if (active_) notes_.emplace_back(key, value);
  }

  /// Writes BENCH_<id>.json into the current directory; returns the file
  /// name (empty when inactive).
  std::string write() const {
    if (!active_) return {};
    const std::string path = "BENCH_" + id_ + ".json";
    std::ofstream os(path);
    os << "{\n  \"bench\": " << quote(id_) << ",\n"
       << "  \"quick\": " << (quick_ ? "true" : "false") << ",\n"
       << "  \"notes\": {";
    for (std::size_t i = 0; i < notes_.size(); ++i)
      os << (i ? ", " : "") << quote(notes_[i].first) << ": "
         << cell(notes_[i].second);
    os << "},\n  \"sections\": {\n";
    for (std::size_t s = 0; s < sections_.size(); ++s) {
      const auto& [name, table] = sections_[s];
      os << "    " << quote(name) << ": [\n";
      const auto& cols = table.header();
      const auto& rows = table.rows();
      for (std::size_t r = 0; r < rows.size(); ++r) {
        os << "      {";
        for (std::size_t c = 0; c < cols.size() && c < rows[r].size(); ++c)
          os << (c ? ", " : "") << quote(cols[c]) << ": " << cell(rows[r][c]);
        os << "}" << (r + 1 < rows.size() ? "," : "") << "\n";
      }
      os << "    ]" << (s + 1 < sections_.size() ? "," : "") << "\n";
    }
    os << "  }\n}\n";
    return path;
  }

 private:
  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (char ch : s) {
      switch (ch) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
          if (static_cast<unsigned char>(ch) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", ch);
            out += buf;
          } else {
            out += ch;
          }
      }
    }
    out += '"';
    return out;
  }

  /// Numbers pass through raw (so JSON consumers get numerics), everything
  /// else is quoted.
  static std::string cell(const std::string& s) {
    if (!s.empty()) {
      char* end = nullptr;
      std::strtod(s.c_str(), &end);
      if (end == s.c_str() + s.size()) return s;
    }
    return quote(s);
  }

  std::string id_;
  bool active_ = false;
  bool quick_ = false;
  std::vector<std::pair<std::string, support::Table>> sections_;
  std::vector<std::pair<std::string, std::string>> notes_;
};

inline void emit(const support::Table& table, const Options& opt) {
  if (opt.csv)
    table.print_csv(std::cout);
  else
    table.print(std::cout);
  std::cout << std::endl;
}

/// Print AND record under `section` in the JSON report.
inline void emit(const support::Table& table, const Options& opt,
                 JsonReporter& json, const std::string& section) {
  emit(table, opt);
  json.add(section, table);
}

/// Writes the report (if --json) and tells the user where it went.
inline void finish(const JsonReporter& json) {
  const std::string path = json.write();
  if (!path.empty()) std::cout << "json report: " << path << "\n";
}

}  // namespace rio::bench
