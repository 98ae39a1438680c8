// Order statistics and the clock every perfbench timing uses.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "trace/recorder.h"

namespace perfbench {

/// Nanoseconds on the trace plane's monotonic clock, so the benchmark's
/// own timestamps and the spans it decodes from a trace file compare
/// directly.
inline std::uint64_t now_ns() noexcept { return staleflow::trace::now_ns(); }

/// Nearest-rank quantile: the smallest sample with at least q of the
/// samples at or below it. 0 for an empty sample.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

/// Runs `body` `reps` times; each run performs `calls` calls of the
/// function under test. Returns the median nanoseconds per call.
template <typename Body>
double per_call_ns(std::size_t reps, std::size_t calls, Body&& body) {
  std::vector<double> samples;
  samples.reserve(reps);
  for (std::size_t r = 0; r < reps; ++r) {
    const std::uint64_t begin = now_ns();
    body();
    samples.push_back(static_cast<double>(now_ns() - begin) /
                      static_cast<double>(calls));
  }
  return median(samples);
}

/// Keeps a computed value alive so the optimizer cannot drop the work
/// that produced it.
template <typename T>
inline void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

}  // namespace perfbench
