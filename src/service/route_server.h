// The online stale-routing engine: the paper's bulletin-board dynamics
// run as a service.
//
// A RouteServer runs one EpochEngine, which owns a client Population, the
// current BoardSnapshot and a sharded FlowLedger. Each epoch of length T
// it answers a batch of RouteQuery requests against the *current* (stale)
// board — sample a candidate path with the policy's precomputed CDF,
// migrate with probability mu(l_P, l_Q) — while per-shard accumulators
// record the flow movement. At the phase boundary the shards are folded
// into the master flow and the next BoardSnapshot is built from it, so
// served traffic IS the flow that determines the next board, exactly
// Eq. (3)'s loop.
//
// Determinism contract (mirrors the sweep engine): clients are
// partitioned over a FIXED number of logical shards (client % shards);
// each epoch the execution layer pre-computes a deterministic sub-batch
// plan — every shard's query batch splits into ceil(arrivals /
// sub_batch_queries) sub-batches (clamped to the shard's client count),
// each owning a contiguous slice of the shard's client list — and derives
// one Rng per sub-batch by walking (shard, sub-batch) order with
// Rng::split(). Split points depend only on batch sizes, NEVER on thread
// count or scheduling; sub-batches share no mutable state (per-sub-batch
// ledger slots, disjoint client slices); folding walks the canonical
// plan order. Every dynamics outcome is therefore
// bit-identical for any worker-thread count — only the wall-clock
// telemetry differs. With the default sub_batch_queries, batches below
// the split threshold reproduce the PR-2/PR-3 per-shard dynamics exactly.
//
// Each epoch is one task graph (src/exec/): serve nodes feed a fold node,
// which feeds BOTH the next board's build (post and every commodity's
// CDF, one node) and the telemetry summary node, so the board build
// overlaps the summary instead of serializing after it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/policy.h"
#include "net/flow.h"
#include "net/instance.h"
#include "service/checkpoint.h"
#include "service/telemetry.h"
#include "service/workload.h"
#include "util/log_histogram.h"

namespace staleflow {

namespace faults {
class FaultSchedule;
}

/// One routing request: client `client` asks which path to use next.
struct RouteQuery {
  std::uint32_t client = 0;
};

struct RouteServerOptions {
  /// Bulletin-board period T. Must be finite and > 0 (the service
  /// boundary enforces the same contract as the simulators).
  double update_period = 0.1;
  std::size_t epochs = 100;

  /// Virtual client fleet size (>= commodities; each carries
  /// demand_i / N_i flow, as in the finite-population simulator). Must
  /// fit uint32, and the fleet's state (Population::kBytesPerClient each)
  /// must fit the host's physical memory.
  std::size_t num_clients = 10'000;

  /// Logical shards the clients are partitioned over. Part of the
  /// determinism contract — results depend on the shard count, never on
  /// `threads`. Must satisfy 1 <= shards <= num_clients.
  std::size_t shards = 16;

  /// Worker threads of the executor RouteServer::run builds for the run;
  /// 0 = hardware concurrency, 1 = inline. Ignored by a TenantRegistry,
  /// which serves on the executor handed to its run().
  std::size_t threads = 1;

  /// Maximum queries one serving task handles: a shard whose epoch batch
  /// exceeds this splits into ceil(batch / sub_batch_queries) sub-batches
  /// (clamped to the shard's client count). Part of the determinism
  /// contract — the split depends on this value and the batch size only,
  /// never on threads — so changing it changes the dynamics digest, like
  /// changing `shards`. Must be >= 1 (ignored when sub_batch_auto is on).
  std::size_t sub_batch_queries = 16384;

  /// Adaptive split ("--sub-batch auto"): derive each epoch's split
  /// threshold from that epoch's total arrivals via
  /// auto_sub_batch_target(), keeping the task count stable across load
  /// levels. Still scheduling-independent (a function of the
  /// deterministic arrival sequence only), so 1-vs-N-thread runs stay
  /// byte-identical — but a different dynamics configuration than any
  /// fixed sub_batch_queries, with its own digest.
  bool sub_batch_auto = false;

  /// Ignored; kept only because perfbench/ sets it; the next benchmark
  /// change deletes it.
  bool pipeline = false;

  std::uint64_t seed = 1;

  /// Materialized fault schedule (src/faults/), nullptr = healthy world.
  /// A runtime pointer — never serialized into the WAL header (the
  /// `--faults` SPEC is; resume re-materializes from it).
  /// Brownout windows deterministically shed this server's arrivals
  /// (digest-changing, for this tenant only); slowdown / stall /
  /// drop-telemetry windows burn wall clock or suppress traces and are
  /// digest-neutral; a crash clause _Exit(137)s the process right after
  /// the matching commit point. Must outlive run().
  const faults::FaultSchedule* faults = nullptr;

  /// Report the per-epoch and run `queries_per_second` and the run's
  /// `wall_seconds`. The host loop times each epoch graph and the run
  /// either way; off leaves these fields 0 (deterministic replay mode:
  /// every telemetry field is reproducible bit-for-bit). The serve loop
  /// itself reads no clock: per-query serve time is the kSubBatchSpan
  /// trace span divided by its queries.
  bool record_latency = true;
};

struct RouteServerResult {
  FlowVector final_flow;
  std::vector<EpochSummary> epochs;
  std::size_t total_queries = 0;
  std::size_t total_migrations = 0;
  double final_gap = 0.0;

  /// Deterministic route-latency distribution of the whole run: the board
  /// latency of the path each query's client was routed on, built per
  /// epoch from the ledger's per-path served counts and merged over every
  /// epoch in order. Mergeable further (e.g.
  /// across sweep cells) because every server uses the same default
  /// histogram configuration.
  LogHistogram route_latency;

  // Wall-clock (non-deterministic; zero in replay mode).
  double wall_seconds = 0.0;
  double queries_per_second = 0.0;
};

/// Called at every phase boundary with the finished epoch's summary.
using EpochObserver = std::function<void(const EpochSummary&)>;

class RouteServer {
 public:
  /// The instance, policy and workload must outlive the server.
  RouteServer(const Instance& instance, const Policy& policy,
              const WorkloadGenerator& workload);

  /// Serves `options.epochs` epochs starting from the feasible flow
  /// `initial`. Throws std::invalid_argument on a non-positive update
  /// period, zero epochs, a shard/client mismatch or an infeasible start.
  /// The run is a one-tenant registry: its engine is served by
  /// serve_rounds() (tenant.h) at weight 1, so rounds, cuts and crash
  /// points are exactly a one-tenant TenantRegistry's.
  ///
  /// Recovery hooks: `cuts`, when set, is called after every finished
  /// epoch with that epoch's EngineCheckpoint (the WAL write path);
  /// `resume`, when nonempty, must be the checkpoints of epochs 0..n-1 of
  /// an identically configured run — the server restores them and serves
  /// only the remaining epochs, and the result (telemetry digest, final
  /// flow, route histogram) is byte-identical to the uninterrupted run.
  /// The round count resumes where a one-tenant registry's WAL would
  /// stand: n.
  RouteServerResult run(const FlowVector& initial,
                        const RouteServerOptions& options,
                        const EpochObserver& observer = nullptr,
                        const CutObserver& cuts = nullptr,
                        std::span<const EngineCheckpoint> resume = {});

 private:
  const Instance* instance_;
  const Policy* policy_;
  const WorkloadGenerator* workload_;
};

}  // namespace staleflow
