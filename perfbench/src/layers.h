// Per-layer figures: microbenchmarks of each layer's public functions at
// a workload's real shapes, and the span totals of a decoded trace.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "session.h"

namespace perfbench {

/// One reported figure. `base` says what it was measured over (call
/// counts and sizes); it is printed beside the value, not in the JSON.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::string base;
};

/// Times the service, exec, recovery, trace and util layers' public
/// functions at the shapes of `workload` under `seed`: path and commodity
/// counts of its instances, the serve-node count of its largest epoch
/// (`warm.peak_queries` per tenant), its client and thread counts.
/// `tmp_dir` receives the scratch trace file of the emit microbench.
std::vector<Metric> layer_microbenches(const Workload& workload,
                                       std::uint64_t seed,
                                       const Session& warm,
                                       const std::string& tmp_dir);

/// Span totals of one decoded trace file (trace_reader API).
struct TraceFigures {
  std::uint64_t events = 0;
  std::uint64_t dropped = 0;
  std::size_t subbatches = 0;
  double subbatch_ns = 0.0;  // sum of kSubBatchSpan durations
  std::uint64_t subbatch_queries = 0;
  double subbatch_p50_us = 0.0;
  double subbatch_p99_us = 0.0;
  std::size_t graphs = 0;
  double graph_ns = 0.0;  // sum of kGraphSpan durations
  std::size_t wal_appends = 0;
  double wal_ns = 0.0;  // sum of kWalAppend durations
};

TraceFigures analyze_trace(const std::string& path);

}  // namespace perfbench
