// Per-epoch live telemetry of the route service.
//
// Every epoch produces one EpochSummary. The fields split into two
// classes: *deterministic* outcomes of the dynamics (queries, migrations,
// Wardrop gap, board latency, and the route-latency quantiles extracted
// from the epoch's merged LogHistogram — functions of seed and
// configuration only) and one *wall-clock* figure, throughput, that
// varies run to run. The CSV writer can restrict itself to the
// deterministic columns so replay runs diff byte-for-byte regardless of
// worker-thread count, and the digest pins those columns for golden
// tests.
//
// The route-latency distribution is a log-bucket histogram
// (util/log_histogram.h), not a sampled vector: each epoch's is built
// from the per-path served counts the ledger folds (the board is frozen
// for the epoch, so a path's count is its latency's count), epochs merge
// exactly into per-run distributions, and quantiles are extracted from
// counts — mergeable across epochs and (in the sweep engine) whole cells.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

namespace staleflow {

struct EpochSummary {
  std::uint64_t epoch = 0;     // board epoch that served these queries
  double start_time = 0.0;     // epoch * T
  double end_time = 0.0;

  // Deterministic outcome of the dynamics.
  std::size_t queries = 0;
  std::size_t migrations = 0;
  double migration_rate = 0.0;  // migrations / queries (0 when idle)
  double wardrop_gap = 0.0;     // gap of the folded flow at the boundary
  double board_latency = 0.0;   // flow-weighted avg latency on the board

  // Route-latency quantiles: the board latency of the path each query's
  // client is routed on after its decision, over the epoch's per-path
  // served counts. Deterministic (board values, not wall clock);
  // zero when the epoch served no queries.
  double route_p50 = 0.0;
  double route_p99 = 0.0;
  double route_p999 = 0.0;

  // The one wall-clock figure: queries over the wall seconds of the
  // graph that served the epoch; zero when latency recording is off.
  double queries_per_second = 0.0;
};

/// Writes one row per epoch. With include_timing == false only the
/// deterministic columns are emitted — the replay-diff format.
void write_epoch_csv(const std::string& path,
                     std::span<const EpochSummary> epochs,
                     bool include_timing);

/// FNV-1a digest over the deterministic fields of every epoch (bit
/// patterns of the doubles, not their decimal rendering), including the
/// route-latency quantiles. The CI smoke test pins this value for a fixed
/// configuration.
std::uint64_t telemetry_digest(std::span<const EpochSummary> epochs);

/// Folds one epoch's deterministic fields into a running FNV state:
/// telemetry_digest(epochs) == the fold of all epochs in order, starting
/// from fnv::kOffsetBasis. The recovery WAL keeps its digest-so-far field
/// this way, without rescanning the run every epoch.
std::uint64_t telemetry_digest_accumulate(std::uint64_t h,
                                          const EpochSummary& epoch);

}  // namespace staleflow
