// The per-epoch serving pipeline of one route-service instance, factored
// out of RouteServer so a host can drive epochs one at a time.
//
// An EpochEngine owns everything one serving instance mutates — its
// client Population, master flow, sharded FlowLedger, sub-batch contexts,
// RNG streams and accumulating result — and borrows the SnapshotStore it
// publishes to. The host drives the epoch cycle explicitly:
//
//   EpochEngine engine(instance, policy, workload, store);
//   engine.begin(initial, options);
//   while (!engine.done()) {
//     TaskGraph graph;
//     engine.add_epoch(graph);        // plan + append this epoch's nodes
//     executor.run(graph);            // serve -> fold -> {snapshot, summary}
//     engine.finish_epoch(seconds, observer);  // merge, record
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
// One schedule, one decision point. Every epoch's graph holds its serve
// nodes, the fold, the next board's post and per-commodity CDF nodes and
// an in-graph publish after them; the only thing the schedule decides is
// where the epoch's summary/telemetry node goes. Under the reference
// schedule (options.pipeline off, or a feedback workload such as
// closed-loop-lat, whose arrivals read the previous summary) it joins
// the epoch's own graph after fold. Pipelined (options.pipeline on, a
// feedback-free workload) it is deferred into the NEXT add_epoch's
// graph, where it runs as a root in parallel with epoch e+1's serve
// nodes, which already read the fresh board. fold(e+1) depends on
// summary(e) (summary reads the pre-fold master flow for its Wardrop
// gap) and the two epochs stage into alternating slots, so nothing is
// shared between overlapping epochs. The host loop is the same
// while (!done()) { add_epoch; run; finish_epoch } either way; a
// pipelined run simply takes epochs+1 iterations (the last one drains
// the final summary). Every value is derived from the same streams in
// the same order, so digests are byte-identical under both schedules.
//
// The recovery WAL's cuts are the same bytes under both schedules. While
// the engine has planned past its last finished epoch, its live state
// runs one epoch ahead, so with set_cut_capture(true) add_epoch
// snapshots the boundary state of the epoch it defers (RNG cursor, flow,
// client paths; host-side, no graph in flight) into that stage's
// PendingCut, and checkpoint() hands it out one graph later. Cuts
// therefore trail the serving frontier by one epoch; restore() works
// unchanged, and the first pipelined add_epoch after a resume primes the
// double-buffer exactly as a fresh begin() does.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
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
/// quota, its own Rng stream and its route-latency histogram. Sub-batches
/// never touch each other's context; the alignment keeps neighbouring
/// contexts off the same cache line (the rng state is written on every
/// query).
struct alignas(64) SubBatchContext {
  std::size_t shard = 0;
  std::size_t client_begin = 0;  // offset into the shard's client list
  std::size_t client_count = 0;
  std::size_t arrivals = 0;
  Rng rng{0};
  LogHistogram route_hist;  // board latency of the served path (exact)
};
}  // namespace detail

class EpochEngine {
 public:
  /// The instance, policy, workload and store must outlive the engine.
  EpochEngine(const Instance& instance, const Policy& policy,
              const WorkloadGenerator& workload, SnapshotStore& store);

  /// Validates the options (the RouteServer::run contract: positive
  /// period, at least one epoch, shards in [1, num_clients], client state
  /// within physical memory, feasible start, ...; `threads` is ignored —
  /// the host supplies execution) and publishes the epoch-0 snapshot.
  /// Must be called exactly once, before any epoch.
  void begin(const FlowVector& initial, const RouteServerOptions& options);

  std::size_t epochs_total() const noexcept { return options_.epochs; }
  std::size_t epochs_done() const noexcept { return epochs_.size(); }
  bool done() const noexcept { return epochs_done() >= epochs_total(); }

  /// True when the summary is deferred into the next graph: options.pipeline
  /// was set AND the workload is feedback-free (a closed-loop-lat tenant
  /// serves the reference schedule: its arrivals need the previous
  /// summary).
  bool pipelined() const noexcept { return pipelined_; }

  /// Plans the next epoch (workload arrivals, the deterministic sub-batch
  /// plan, one Rng stream per sub-batch in canonical order) and appends
  /// its serve -> fold -> board post -> per-commodity CDF -> publish nodes
  /// to `graph`, plus its summary node after fold. Pipelined, the summary
  /// is instead deferred: the graph holds the PREVIOUS epoch's summary (as
  /// a root) and the final call appends only the last summary. The appended nodes touch only this engine, so several
  /// engines may append to the same graph.
  /// Exactly one graph may be in flight per engine: add_epoch / run /
  /// finish_epoch, in order.
  void add_epoch(TaskGraph& graph);

  /// Completes the epoch whose summary node ran in the last add_epoch's
  /// graph (the graph must have run): merges that epoch's route histogram
  /// into the run result and records the summary (calling `observer` if set);
  /// the first pipelined call completes nothing. `epoch_seconds` is the
  /// wall-clock the host measured for the graph. It is booked on the
  /// epoch the graph served, whose queries_per_second (when latency
  /// recording is on) divides by it, even when that epoch is summarized
  /// one graph later. A multi-tenant host passes the whole round's wall
  /// time, so per-epoch qps then reads "queries per round-second".
  void finish_epoch(double epoch_seconds, const EpochObserver& observer);

  /// Finalizes and returns the run result (final flow and gap, wall-clock
  /// aggregates from `wall_seconds`). The engine is spent afterwards.
  RouteServerResult finish(double wall_seconds);

  /// Tells the engine whether a host observer will ask for checkpoint()s.
  /// A pipelined engine's boundary state is transient — by the time epoch
  /// e's summary exists the engine has already planned (and possibly
  /// folded) epoch e+1 — so with capture on, add_epoch snapshots the
  /// PendingCut (RNG cursor, flow, client paths) at the overlap boundary
  /// before planning further. Off by default: un-logged runs pay nothing.
  /// Under the reference schedule nothing is ever deferred, so the flag
  /// has no effect. Set before the first add_epoch.
  void set_cut_capture(bool capture) noexcept { capture_cuts_ = capture; }

  /// Snapshot of the dynamics state at the last finished epoch's boundary
  /// — the recovery WAL's cut record. Requires at least one finished
  /// epoch and no epoch in flight. Reads the live state, unless the
  /// engine has planned past that epoch: then it returns the PendingCut
  /// add_epoch captured at the one-epoch overlap boundary (requires
  /// set_cut_capture(true) before the epoch was planned, else throws) —
  /// same bytes, one graph later. Restoring the returned cut (plus its predecessors) into a
  /// fresh engine continues the run bit-identically, under either
  /// schedule.
  EngineCheckpoint checkpoint() const;

  /// Tags this engine's trace events with a tenant id (a TenantRegistry
  /// passes the tenant index; solo servers stay 0). Pure telemetry
  /// labelling — never read by the dynamics.
  void set_trace_tenant(std::uint32_t tenant) noexcept {
    trace_tenant_ = tenant;
  }

  /// Restores a run prefix: `cuts` must be the checkpoints of epochs
  /// 0..n-1 in order (contiguous summary.epoch values). Must be called
  /// after begin() and before any epoch is served; publishes the epoch-n
  /// board so serving continues exactly where the checkpointed run stood.
  /// Throws std::invalid_argument on non-contiguous cuts, more cuts than
  /// the epoch budget, or state that does not fit this configuration
  /// (wrong path count, client count, or an out-of-range client path).
  /// Wall-clock telemetry is not restored — it is not replayable state —
  /// so resumed runs report wall figures for the new process only.
  void restore(std::span<const EngineCheckpoint> cuts);

 private:
  /// An epoch's checkpointable boundary state (RNG cursor, flow, client
  /// paths). add_epoch captures it into a stage at the instant that
  /// stage's epoch is the engine frontier (post-fold, post-serve,
  /// pre-plan of the next epoch) when the summary is deferred, and
  /// checkpoint() hands it out one graph later, once the summary has
  /// drained; otherwise checkpoint() captures the live state.
  struct PendingCut {
    std::array<std::uint64_t, 4> rng_state{};
    std::vector<double> flow;
    std::vector<std::uint32_t> client_paths;
    bool valid = false;
  };

  /// Everything one in-flight epoch stages: its sub-batch contexts, the
  /// snapshot it served against, the fold totals, the board it builds and
  /// its telemetry accumulators. Two slots alternate by epoch parity so a
  /// pipelined run can overlap epoch e+1's serving with epoch e's summary
  /// without sharing a byte; the reference schedule uses the same slots
  /// one at a time. The trace fields are wall-clock labelling only —
  /// trace_drop is true while a drop-telemetry fault window covers the
  /// epoch (the engine then emits no spans; the kFaultSpan marker itself
  /// still fires).
  struct EpochStage {
    std::vector<detail::SubBatchContext> ctx;  // high-water pool
    std::size_t batches = 0;  // sub-batches planned for this epoch
    SnapshotPtr served;       // the board this epoch served against
    FlowLedger::Totals totals;
    std::shared_ptr<BoardSnapshot> next;
    EpochSummary summary;
    LogHistogram epoch_route;  // this epoch's merged route latencies
    double serve_seconds = 0.0;  // wall seconds of the graph that served it
    PendingCut cut;            // deferred summary: boundary state for the WAL
    std::uint64_t trace_epoch = 0;
    std::uint64_t trace_begin_ns = 0;
    bool trace_drop = false;
  };

  /// "No epoch" sentinel for pending_finish_ and serving_.
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  /// Plans epoch `e` into `stage` and appends its serve -> fold -> post ->
  /// CDF -> publish nodes; `extra_fold_dep` (a deferred summary node) is
  /// added to fold's dependencies when not kNone. Returns the fold node's
  /// id.
  std::size_t plan_epoch(TaskGraph& graph, EpochStage& stage,
                         std::uint64_t e, std::size_t extra_fold_dep);
  /// Appends `stage`'s summary/telemetry node with the given deps.
  std::size_t add_summary_node(TaskGraph& graph, EpochStage& stage,
                               std::initializer_list<std::size_t> deps);
  void serve_sub_batch(EpochStage& stage, std::size_t b);
  /// Copies the engine's current boundary state (RNG cursor, flow, client
  /// paths) into `out`. Host-side only, with no graph in flight.
  void capture_boundary(PendingCut& out) const;

  const Instance* instance_;
  const Policy* policy_;
  const WorkloadGenerator* workload_;
  SnapshotStore* store_;

  RouteServerOptions options_;
  Rng master_{0};
  std::unique_ptr<Population> clients_;
  std::vector<double> flow_;
  std::unique_ptr<FlowLedger> ledger_;
  std::vector<std::size_t> shard_clients_;  // clients per logical shard

  EpochStage stages_[2];  // epoch e stages in stages_[e % 2]
  bool epoch_in_flight_ = false;
  bool pipelined_ = false;
  bool capture_cuts_ = false;  // snapshot deferred epochs' PendingCuts
  std::size_t planned_ = 0;         // epochs planned so far (plan frontier)
  std::size_t pending_finish_ = kNone;  // epoch the next finish_epoch records
  std::size_t serving_ = kNone;         // epoch the in-flight graph serves

  std::uint32_t trace_tenant_ = 0;

  // Accumulating run outcome (assembled into a RouteServerResult by
  // finish(); FlowVector has no default state, so the pieces live here).
  std::vector<EpochSummary> epochs_;
  std::size_t total_queries_ = 0;
  std::size_t total_migrations_ = 0;
  LogHistogram run_route_;
};

}  // namespace staleflow
