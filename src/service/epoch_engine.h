// The per-epoch serving pipeline of one route-service instance, factored
// out of RouteServer so a host can drive epochs one at a time.
//
// An EpochEngine owns everything one serving instance mutates — its
// client Population, master flow, sharded FlowLedger, sub-batch contexts,
// RNG streams, accumulating result and its boards: the one it serves and
// the one it builds for the next epoch. The host drives the epoch cycle
// explicitly:
//
//   EpochEngine engine(instance, policy, workload);
//   engine.begin(initial, options);
//   while (!engine.done()) {
//     TaskGraph graph;
//     engine.add_epoch(graph);        // plan + append this epoch's nodes
//     executor.run(graph);            // serve -> fold -> {board, summary}
//     engine.finish_epoch(seconds, observer);  // swap boards, record
//   }
//   RouteServerResult result = engine.finish(wall_seconds);
//
// The one host that drives this cycle is serve_rounds() (tenant.h): each
// scheduler round it appends the epochs of several engines to ONE
// combined graph — TenantRegistry::run over every tenant,
// RouteServer::run over its one engine. The engines share no mutable
// state (each node touches only its own engine), so co-scheduled tenants
// execute on one shared Executor while every tenant's dynamics stay
// byte-identical to a solo run — the multi-tenant isolation contract.
//
// Determinism: add_epoch derives this epoch's RNG streams and sub-batch
// plan host-side, in canonical order, before any node is dispatched
// (see route_server.h for the full contract). Nothing an engine computes
// depends on which threads run its nodes or on what other engines' nodes
// are interleaved with them.
//
// One schedule: serve×B -> fold -> {board, summary}, B + 3 nodes. The
// board node builds the next epoch's BoardSnapshot (post and every
// commodity's CDF) from the folded flow while the summary node reads the
// served board; finish_epoch, on the host thread after the graph ran,
// swaps the new board in. Every reader of a board sits in the engine's
// own graph, ordered by its edges, so a board needs no lock. A run takes
// exactly `epochs` graphs, every graph closes the epoch it serves, and
// checkpoint() reads the engine's live state at the boundary that graph
// closed — the recovery WAL's cut.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "agents/population.h"
#include "net/flow.h"
#include "service/checkpoint.h"
#include "service/ledger.h"
#include "service/route_server.h"
#include "service/snapshot.h"
#include "util/log_histogram.h"
#include "util/rng.h"

namespace staleflow {

class TaskGraph;

namespace detail {
/// Everything one serving task needs for an epoch: which shard it belongs
/// to, its contiguous slice of that shard's client list, its arrival
/// quota and its own Rng stream. What it serves goes to its FlowLedger
/// slot. Sub-batches never touch each other's context; the alignment
/// keeps neighbouring contexts off the same cache line (the serve loop
/// draws from a local copy of the stream and writes it back once per
/// batch).
struct alignas(64) SubBatchContext {
  std::size_t shard = 0;
  std::size_t client_begin = 0;  // offset into the shard's client list
  std::size_t client_count = 0;
  std::size_t arrivals = 0;
  Rng rng{0};
};
}  // namespace detail

class EpochEngine {
 public:
  /// The instance, policy and workload must outlive the engine.
  EpochEngine(const Instance& instance, const Policy& policy,
              const WorkloadGenerator& workload);

  /// Ignored; kept only because perfbench/ uses it; the next benchmark
  /// change deletes it.
  EpochEngine(const Instance& instance, const Policy& policy,
              const WorkloadGenerator& workload, SnapshotStore&)
      : EpochEngine(instance, policy, workload) {}

  /// Validates the options (the RouteServer::run contract: positive
  /// period, at least one epoch, shards in [1, num_clients], client state
  /// within physical memory, feasible start, ...; `threads` is ignored —
  /// the host supplies execution) and builds the epoch-0 board.
  /// Must be called exactly once, before any epoch.
  void begin(const FlowVector& initial, const RouteServerOptions& options);

  std::size_t epochs_total() const noexcept { return options_.epochs; }
  std::size_t epochs_done() const noexcept { return epochs_.size(); }
  bool done() const noexcept { return epochs_done() >= epochs_total(); }

  /// Plans the next epoch (workload arrivals, the deterministic sub-batch
  /// plan, one Rng stream per sub-batch in canonical order) and appends
  /// its serve -> fold -> next-board nodes to `graph`, plus its summary
  /// node after fold. The appended nodes touch only this engine, so
  /// several engines may append to the same graph.
  /// Exactly one graph may be in flight per engine: add_epoch / run /
  /// finish_epoch, in order.
  void add_epoch(TaskGraph& graph);

  /// Completes the epoch the last add_epoch's graph served (the graph must
  /// have run): makes the board it built current, merges its route
  /// histogram into the run result and records its summary (calling
  /// `observer` if set). `epoch_seconds` is the wall-clock the host
  /// measured for the graph; the epoch's queries_per_second (when
  /// latency recording is on) divides by it. A multi-tenant host passes
  /// the whole round's wall time, so per-epoch qps then reads "queries
  /// per round-second".
  void finish_epoch(double epoch_seconds, const EpochObserver& observer);

  /// Finalizes and returns the run result (final flow and gap, wall-clock
  /// aggregates from `wall_seconds`). The engine is spent afterwards.
  RouteServerResult finish(double wall_seconds);

  /// Ignored; kept only because perfbench/ sets it; the next benchmark
  /// change deletes it.
  void set_cut_capture(bool) noexcept {}

  /// Snapshot of the dynamics state at the last finished epoch's boundary
  /// — the recovery WAL's cut record, read from the live state. Requires
  /// at least one finished epoch and no epoch in flight. Restoring the
  /// returned cut (plus its predecessors) into a fresh engine continues
  /// the run bit-identically.
  EngineCheckpoint checkpoint() const;

  /// Tags this engine's trace events with a tenant id (a TenantRegistry
  /// passes the tenant index; solo servers stay 0). Pure telemetry
  /// labelling — never read by the dynamics.
  void set_trace_tenant(std::uint32_t tenant) noexcept {
    trace_tenant_ = tenant;
  }

  /// Restores a run prefix: the summaries of epochs 0..n-1 (contiguous
  /// summary.epoch values) and the state at the boundary after epoch n-1
  /// (checkpoint.h). Must be called after begin() and before any epoch is
  /// served; builds the epoch-n board so serving continues exactly where
  /// the checkpointed run stood, and takes the run histogram as given. A
  /// resume without epochs changes nothing.
  /// Throws std::invalid_argument on non-contiguous summaries, more
  /// epochs than the budget, a boundary state of another epoch, or state
  /// that does not fit this configuration (wrong path count, an
  /// infeasible flow, wrong client count, or an out-of-range client
  /// path).
  /// Wall-clock telemetry is not restored — it is not replayable state —
  /// so resumed runs report wall figures for the new process only.
  void restore(const EngineResume& resume);

 private:
  /// Everything the in-flight epoch stages: its sub-batch contexts, the
  /// fold totals, the board it builds and its telemetry accumulators. It
  /// keeps the last finished epoch's route histogram until the next
  /// add_epoch (checkpoint() reads it). The trace fields are wall-clock
  /// labelling only — trace_drop is true while a drop-telemetry fault
  /// window covers the epoch (the engine then emits no spans; the
  /// kFaultSpan marker itself still fires).
  struct EpochStage {
    std::vector<detail::SubBatchContext> ctx;  // high-water pool
    std::size_t batches = 0;  // sub-batches planned for this epoch
    FlowLedger::Totals totals;
    std::unique_ptr<BoardSnapshot> next;
    EpochSummary summary;
    LogHistogram epoch_route;  // board latency of each served path, by
                               // the fold's per-path served counts
    std::uint64_t trace_epoch = 0;
    std::uint64_t trace_begin_ns = 0;
    bool trace_drop = false;
  };

  /// The summary node: the epoch's telemetry from the fold totals, the
  /// folded flow and the served board.
  void summarize();
  void serve_sub_batch(std::size_t b);

  const Instance* instance_;
  const Policy* policy_;
  const WorkloadGenerator* workload_;

  RouteServerOptions options_;
  Rng master_{0};
  std::unique_ptr<Population> clients_;
  std::vector<double> flow_;
  std::unique_ptr<FlowLedger> ledger_;
  std::vector<std::size_t> shard_clients_;  // clients per logical shard
  std::unique_ptr<BoardSnapshot> board_;    // the board being served

  EpochStage stage_;
  bool epoch_in_flight_ = false;

  std::uint32_t trace_tenant_ = 0;

  // Accumulating run outcome (assembled into a RouteServerResult by
  // finish(); FlowVector has no default state, so the pieces live here).
  std::vector<EpochSummary> epochs_;
  std::size_t total_queries_ = 0;
  std::size_t total_migrations_ = 0;
  LogHistogram run_route_;
};

}  // namespace staleflow
