// Order statistics for the benchmark's reports.
//
// Every timing the benchmark prints is a median or a percentile of many
// closed-loop samples, reported with the quartiles around it. quartiles()
// follows Python's statistics.quantiles(data, n=4) (its default
// "exclusive" method), so the benchmark's interquartile ranges are the
// numbers an outside checker computes from the same samples.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// Linear-interpolation percentile (q in [0, 100]) between closest ranks:
/// rank = q/100 * (n-1). q = 50 is the median. Throws on an empty sample.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) throw std::invalid_argument("percentile of no samples");
  if (q < 0.0 || q > 100.0) throw std::invalid_argument("q outside [0, 100]");
  std::sort(v.begin(), v.end());
  const double rank = q / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double median(std::vector<double> v) {
  return percentile(std::move(v), 50.0);
}

/// Q1, Q2, Q3 by the exclusive method of Python's statistics.quantiles:
/// with m = n + 1, cut i sits at position i*m/4 (1-based) of the sorted
/// sample, interpolated between its neighbours. Needs at least 2 samples.
inline std::array<double, 3> quartiles(std::vector<double> v) {
  if (v.size() < 2) throw std::invalid_argument("quartiles need 2 samples");
  std::sort(v.begin(), v.end());
  const auto n = static_cast<long long>(v.size());
  const long long m = n + 1;
  std::array<double, 3> out{};
  for (long long i = 1; i <= 3; ++i) {
    // Python clamps j into [1, n-1] first, so both neighbours exist and
    // delta may fall outside [0, 4] (linear extrapolation for tiny n).
    const long long j = std::clamp(i * m / 4, 1LL, n - 1);
    const long long delta = i * m - j * 4;
    out[static_cast<std::size_t>(i - 1)] =
        (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
         v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
        4.0;
  }
  return out;
}

}  // namespace perfbench
