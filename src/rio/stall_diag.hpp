// Stall diagnostic rendering for the decentralized engines (full + pruned).
//
// When the progress watchdog fires, this builds the evidence string carried
// by stf::StallError: one line per worker showing what it was doing, and —
// for waiting workers — WHICH data object it waits on with the expected vs
// live-observed protocol counters. That pair is exactly what a protocol
// bug, a lost wakeup or an injected stall leaves behind.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>

#include "support/watchdog.hpp"
#include "rio/data_object.hpp"

namespace rio::rt {

namespace detail {
inline std::string fmt_task_id(std::uint64_t id) {
  return id == static_cast<std::uint64_t>(kNoWrite) ? "none"
                                                    : std::to_string(id);
}
}  // namespace detail

/// Renders the per-worker lines (stf::WorkerHarness prints the header)
/// from the probes plus the live shared protocol words. Called on the
/// watchdog thread while workers are still stuck — relaxed/acquire reads
/// only, no locks.
inline std::string stall_diagnostic(const support::WorkerProbe* probes,
                                    std::uint32_t num_workers,
                                    const SharedDataState* shared,
                                    std::size_t num_data) {
  std::ostringstream os;
  for (std::uint32_t w = 0; w < num_workers; ++w) {
    const support::WorkerProbe& pr = probes[w];
    const support::ProbeState st = pr.get_state();
    os << "  worker " << w << ": " << support::to_string(st)
       << ", executed=" << pr.progress.load(std::memory_order_relaxed);
    const std::uint64_t task = pr.task.load(std::memory_order_relaxed);
    if (st == support::ProbeState::kWaiting ||
        st == support::ProbeState::kExecuting) {
      os << ", task=" << detail::fmt_task_id(task);
    }
    if (st == support::ProbeState::kWaiting) {
      const std::uint32_t d = pr.data.load(std::memory_order_relaxed);
      if (d < num_data) {
        const SharedDataState& s = shared[d];
        os << ", waiting on data " << d << " (expected writer="
           << detail::fmt_task_id(
                  pr.expected_writer.load(std::memory_order_relaxed))
           << ", observed="
           << detail::fmt_task_id(s.last_executed_write.value.load(
                  std::memory_order_acquire))
           << "; expected reads="
           << pr.expected_reads.load(std::memory_order_relaxed)
           << ", observed="
           << s.nb_reads_since_write.value.load(std::memory_order_acquire)
           << ")";
      }
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace rio::rt
