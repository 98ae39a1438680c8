#include "service/epoch_engine.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/policy.h"
#include "equilibrium/metrics.h"
#include "exec/executor.h"
#include "faults/fault_plan.h"
#include "service/workload.h"
#include "trace/metrics.h"
#include "trace/recorder.h"

namespace staleflow {
namespace {

/// The host's physical memory in bytes; SIZE_MAX when sysconf cannot
/// tell.
std::size_t physical_memory_bytes() {
  const long pages = sysconf(_SC_PHYS_PAGES);
  const long page_size = sysconf(_SC_PAGESIZE);
  if (pages <= 0 || page_size <= 0) {
    return std::numeric_limits<std::size_t>::max();
  }
  return static_cast<std::size_t>(pages) *
         static_cast<std::size_t>(page_size);
}

}  // namespace

EpochEngine::EpochEngine(const Instance& instance, const Policy& policy,
                         const WorkloadGenerator& workload)
    : instance_(&instance), policy_(&policy), workload_(&workload) {}

void EpochEngine::begin(const FlowVector& initial,
                        const RouteServerOptions& options) {
  if (clients_ != nullptr) {
    throw std::logic_error("EpochEngine::begin: already begun");
  }
  if (!std::isfinite(options.update_period) ||
      !(options.update_period > 0.0)) {
    throw std::invalid_argument(
        "RouteServer::run: update period must be finite and > 0");
  }
  if (options.epochs == 0) {
    throw std::invalid_argument("RouteServer::run: need at least one epoch");
  }
  if (options.shards == 0 || options.shards > options.num_clients) {
    throw std::invalid_argument(
        "RouteServer::run: shards must be in [1, num_clients]");
  }
  if (options.num_clients >
      std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument(
        "RouteServer::run: num_clients must fit a uint32 client id");
  }
  if (const std::size_t memory = physical_memory_bytes();
      options.num_clients > memory / Population::kBytesPerClient) {
    throw std::invalid_argument(
        "RouteServer::run: num_clients x " +
        std::to_string(Population::kBytesPerClient) +
        " B per client exceeds the host's physical memory (" +
        std::to_string(memory >> 20) + " MB)");
  }
  if (!options.sub_batch_auto && options.sub_batch_queries == 0) {
    throw std::invalid_argument(
        "RouteServer::run: sub_batch_queries must be >= 1");
  }
  if (!is_feasible(*instance_, initial.values(), 1e-7)) {
    throw std::invalid_argument("RouteServer::run: infeasible start");
  }

  options_ = options;
  master_ = Rng(options.seed);
  clients_ = std::make_unique<Population>(*instance_, options.num_clients,
                                          initial.values());

  // Master flow: starts at the client fleet's empirical flow, advanced
  // only by ledger folds at phase boundaries.
  flow_.assign(clients_->empirical_flow().begin(),
               clients_->empirical_flow().end());
  ledger_ =
      std::make_unique<FlowLedger>(instance_->path_count(), options.shards);
  board_ = std::make_unique<BoardSnapshot>(*instance_, *policy_,
                                           /*epoch=*/0, /*now=*/0.0, flow_);

  // Shard s owns clients {s, s + shards, s + 2*shards, ...}.
  shard_clients_.resize(options.shards);
  for (std::size_t s = 0; s < options.shards; ++s) {
    shard_clients_[s] = options.num_clients / options.shards +
                        (s < options.num_clients % options.shards ? 1 : 0);
  }
}

void EpochEngine::serve_sub_batch(std::size_t b) {
  detail::SubBatchContext& sub = stage_.ctx[b];
  const std::size_t s = sub.shard;
  const std::size_t shards = options_.shards;
  // Span over the whole batch, recorded from the worker thread that runs
  // it. arg packs (shard, index): bits 32-47 the shard, low bits the
  // sub-batch index; bits 48+ stay 0 (see kSubBatchSpan). A
  // drop-telemetry fault window silences the span for this epoch.
  std::optional<trace::Span> trace_span;
  if (!stage_.trace_drop) {
    trace_span.emplace(
        trace::EventKind::kSubBatchSpan, trace_tenant_, stage_.trace_epoch,
        (static_cast<std::uint64_t>(s & 0xFFFF) << 32) |
            static_cast<std::uint64_t>(b & 0xFFFFFFFF));
    trace_span->value(sub.arrivals);
  }
  // Injected shard slowdown: burn wall clock on this worker before
  // serving. Wall-clock only — the dynamics below never see it.
  if (options_.faults != nullptr) {
    const std::uint64_t slow_us =
        options_.faults->slowdown_us(trace_tenant_, s, stage_.trace_epoch);
    if (slow_us != 0) {
      static trace::Counter& slowdowns_counter =
          trace::MetricsRegistry::global().counter("faults.slowdowns");
      slowdowns_counter.inc();
      faults::busy_wait_us(slow_us);
    }
  }
  // Everything a query reads except its client's path is constant for
  // the batch, so it lives in locals the compiler keeps in registers
  // across the loop's stores and the rule's call: the client paths, the
  // ledger slot, the client-index base and the bounded draw over the
  // slice, the commodity map and the lanes of the frozen board.
  const MigrationRule& rule = policy_->migration();
  const Population& clients = *clients_;
  std::uint32_t* const client_path = clients_->local_paths().data();
  const Population::CommodityMap commodity_of = clients.commodity_map();
  const BoardSnapshot::Lane* const lanes = board_->lanes().data();
  const FlowLedger::Slot slot = ledger_->slot(b);
  const std::size_t base = s + shards * sub.client_begin;
  const BoundedDraw draw(sub.client_count);
  const std::size_t arrivals = sub.arrivals;
  // The stream stays in a local for the whole batch and is written back
  // once, after the last query; so is the migration count.
  Rng rng = sub.rng;
  std::uint64_t migrations = 0;
  for (std::size_t q = 0; q < arrivals; ++q) {
    const std::size_t client = base + shards * draw(rng);
    const std::size_t c = commodity_of(client);
    const BoardSnapshot::Lane lane = lanes[c];

    // Step (1): sample a candidate from the precomputed CDF.
    const std::size_t sampled = lane.cdf.index_of(rng.uniform());

    // Step (2): migrate with probability mu(l_P, l_Q). Every rule is
    // selfish (mu == 0 unless l_Q < l_P, see MigrationRule), and
    // bernoulli(0) draws nothing, so one comparison gates the rule: a
    // query whose candidate does not look strictly better (its own path
    // included) makes no call and no draw, exactly as mu == 0 would.
    std::size_t served = client_path[client];
    if (lane.latency[sampled] < lane.latency[served]) {
      const double mu =
          rule.probability(lane.latency[served], lane.latency[sampled]);
      if (rng.bernoulli(mu)) {
        const double moved = clients.flow_per_client(CommodityId{c});
        slot.delta[lane.paths[served].index()] -= moved;
        slot.delta[lane.paths[sampled].index()] += moved;
        ++migrations;
        client_path[client] = static_cast<std::uint32_t>(sampled);
        served = sampled;
      }
    }
    // The board is frozen for the epoch, so the path alone fixes the
    // latency this query's client experiences; the summary turns the
    // folded counts into the route-latency histogram.
    ++slot.served[lane.paths[served].index()];
  }
  *slot.migrations += migrations;
  sub.rng = rng;
}

void EpochEngine::add_epoch(TaskGraph& graph) {
  if (clients_ == nullptr) {
    throw std::logic_error("EpochEngine::add_epoch: begin() first");
  }
  if (epoch_in_flight_) {
    throw std::logic_error(
        "EpochEngine::add_epoch: previous epoch not finished");
  }
  if (done()) {
    throw std::logic_error("EpochEngine::add_epoch: all epochs served");
  }
  epoch_in_flight_ = true;

  const std::uint64_t e = epochs_done();
  EpochStage& stage = stage_;
  const double T = options_.update_period;
  const std::size_t shards = options_.shards;
  stage.trace_epoch = e;
  if (trace::active()) stage.trace_begin_ns = trace::now_ns();

  // Derive this epoch's streams in canonical order: one for the
  // workload, then one per sub-batch in (shard, sub-batch) order.
  // Depends only on (seed, e) and the batch sizes — never on threads.
  Rng epoch_rng = master_.split();
  Rng arrivals_rng = epoch_rng.split();
  LoadFeedback feedback;
  if (!epochs_.empty()) {
    feedback.has_previous = true;
    feedback.route_p50 = epochs_.back().route_p50;
  }
  std::size_t total = workload_->arrivals(
      e, static_cast<double>(e) * T, T, feedback, arrivals_rng);

  // Fault windows for this (tenant, epoch). Brownout sheds arrivals
  // BEFORE the sub-batch plan is derived, so the shed run is simply a
  // different (still fully deterministic) load level: floor(total * shed)
  // queries are turned away at admission. drop-telemetry only sets the
  // emission gate; slowdowns are applied per sub-batch task.
  const faults::FaultSchedule* fault_plan = options_.faults;
  stage.trace_drop = fault_plan != nullptr &&
                     fault_plan->telemetry_dropped(trace_tenant_, e);
  std::size_t shed_queries = 0;
  if (fault_plan != nullptr) {
    const double shed = fault_plan->brownout_shed(trace_tenant_, e);
    if (shed > 0.0) {
      shed_queries = std::min(
          total, static_cast<std::size_t>(static_cast<double>(total) * shed));
      total -= shed_queries;
      static trace::Counter& shed_counter =
          trace::MetricsRegistry::global().counter("faults.shed_queries");
      shed_counter.add(shed_queries);
    }
    if (trace::active()) {
      // One kFaultSpan marker per engine-level fault active this epoch —
      // emitted even inside a drop-telemetry window, so the offline
      // analyzer can attribute the dark window (and any latency shift)
      // to its cause.
      for (const faults::ActiveFault& fault : fault_plan->faults()) {
        const faults::FaultKind kind = fault.clause.kind;
        if (kind != faults::FaultKind::kShardSlowdown &&
            kind != faults::FaultKind::kDropTelemetry &&
            kind != faults::FaultKind::kBrownout)
          continue;
        if (fault.clause.tenant != trace_tenant_ || !fault.covers(e)) continue;
        const std::uint64_t magnitude =
            kind == faults::FaultKind::kShardSlowdown ? fault.clause.slow_us
            : kind == faults::FaultKind::kBrownout    ? shed_queries
                                                      : 0;
        trace::instant(trace::EventKind::kFaultSpan, trace_tenant_, e,
                       static_cast<std::uint64_t>(kind), magnitude);
      }
    }
  }

  // The split threshold: fixed, or (auto mode) derived from this epoch's
  // total arrivals — either way a function of the configuration and the
  // deterministic arrival sequence only.
  const std::size_t target = options_.sub_batch_auto
                                 ? auto_sub_batch_target(total, shards)
                                 : options_.sub_batch_queries;

  // The deterministic sub-batch plan: a shard whose batch exceeds the
  // target splits into balanced sub-batches over disjoint client
  // slices. One sub-batch per shard minimum keeps the stream layout
  // aligned with the unsplit (PR-2/PR-3) dynamics when nothing splits.
  std::size_t planned = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    const std::size_t batch = total / shards + (s < total % shards ? 1 : 0);
    const std::size_t pieces =
        sub_batch_count(batch, target, shard_clients_[s]);
    if (stage.ctx.size() < planned + pieces) {
      stage.ctx.resize(planned + pieces);
    }
    for (std::size_t piece = 0; piece < pieces; ++piece) {
      detail::SubBatchContext& sub = stage.ctx[planned + piece];
      const SubRange slice = sub_range(shard_clients_[s], pieces, piece);
      sub.shard = s;
      sub.client_begin = slice.begin;
      sub.client_count = slice.count;
      sub.arrivals = sub_range(batch, pieces, piece).count;
      sub.rng = epoch_rng.split();
    }
    planned += pieces;
  }
  stage.batches = planned;
  ledger_->ensure_slots(stage.batches);

  // The epoch task graph: serve -> fold -> {next board, summary}. Both
  // nodes after fold read the folded flow and write only their own
  // stage fields — and nothing outside this engine at all, so epochs of
  // distinct engines coexist in one graph.
  stage.totals = FlowLedger::Totals{};
  stage.summary = EpochSummary{};

  std::vector<TaskGraph::NodeId> serve_nodes;
  serve_nodes.reserve(stage.batches);
  for (std::size_t b = 0; b < stage.batches; ++b) {
    serve_nodes.push_back(graph.add([this, b] { serve_sub_batch(b); }));
  }
  const TaskGraph::NodeId fold = graph.add(
      [this] { stage_.totals = ledger_->fold_into(flow_, stage_.batches); },
      std::span<const TaskGraph::NodeId>(serve_nodes));
  graph.add(
      [this, e, T] {
        stage_.next = std::make_unique<BoardSnapshot>(
            *instance_, *policy_, e + 1, static_cast<double>(e + 1) * T,
            flow_);
      },
      {fold});
  graph.add([this] { summarize(); }, {fold});
}

void EpochEngine::summarize() {
  EpochStage& stage = stage_;
  const std::uint64_t e = stage.trace_epoch;
  const double T = options_.update_period;
  stage.summary.epoch = e;
  stage.summary.start_time = static_cast<double>(e) * T;
  stage.summary.end_time = static_cast<double>(e + 1) * T;
  stage.summary.queries = stage.totals.queries;
  stage.summary.migrations = stage.totals.migrations;
  stage.summary.migration_rate =
      stage.totals.queries > 0
          ? static_cast<double>(stage.totals.migrations) /
                static_cast<double>(stage.totals.queries)
          : 0.0;
  stage.summary.wardrop_gap = wardrop_gap(*instance_, flow_);
  double board_latency = 0.0;
  double board_volume = 0.0;
  const BulletinBoard& board = board_->board();
  for (std::size_t p = 0; p < instance_->path_count(); ++p) {
    board_latency += board.path_flow()[p] * board.path_latency()[p];
    board_volume += board.path_flow()[p];
  }
  stage.summary.board_latency =
      board_volume > 0.0 ? board_latency / board_volume : 0.0;

  // This epoch's route-latency distribution: every query served on path
  // p saw the frozen board's l_p, and the fold this node follows wrote
  // this epoch's per-path served counts.
  stage.epoch_route.reset();
  const std::span<const std::uint64_t> served = ledger_->served();
  const std::span<const double> latency = board.path_latency();
  for (std::size_t p = 0; p < served.size(); ++p) {
    if (served[p] != 0) stage.epoch_route.record(latency[p], served[p]);
  }
  if (!stage.epoch_route.empty()) {
    stage.summary.route_p50 = stage.epoch_route.quantile(0.5);
    stage.summary.route_p99 = stage.epoch_route.quantile(0.99);
    stage.summary.route_p999 = stage.epoch_route.quantile(0.999);
  }
}

void EpochEngine::finish_epoch(double epoch_seconds,
                               const EpochObserver& observer) {
  if (!epoch_in_flight_) {
    throw std::logic_error("EpochEngine::finish_epoch: no epoch in flight");
  }
  epoch_in_flight_ = false;
  EpochStage& stage = stage_;

  // Phase boundary: the summary and the next board were built inside the
  // graph; serve the new board from the next epoch on and record this one.
  board_.swap(stage.next);
  if (trace::active() && !stage.trace_drop) {
    trace::instant(trace::EventKind::kSnapshotPublish, trace_tenant_,
                   stage.trace_epoch + 1, /*arg=*/0, /*value=*/0);
  }
  run_route_.merge(stage.epoch_route);
  if (options_.record_latency) {
    stage.summary.queries_per_second =
        epoch_seconds > 0.0
            ? static_cast<double>(stage.totals.queries) / epoch_seconds
            : 0.0;
  }

  total_queries_ += stage.totals.queries;
  total_migrations_ += stage.totals.migrations;
  epochs_.push_back(stage.summary);
  if (observer) observer(stage.summary);

  static trace::Counter& epochs_counter =
      trace::MetricsRegistry::global().counter("engine.epochs");
  static trace::Counter& queries_counter =
      trace::MetricsRegistry::global().counter("engine.queries");
  static trace::Counter& migrations_counter =
      trace::MetricsRegistry::global().counter("engine.migrations");
  epochs_counter.inc();
  queries_counter.add(stage.totals.queries);
  migrations_counter.add(stage.totals.migrations);

  if (trace::active() && !stage.trace_drop) {
    trace::TraceEvent epoch_event;
    epoch_event.kind = trace::EventKind::kEpochSpan;
    epoch_event.tenant = trace_tenant_;
    epoch_event.epoch = stage.trace_epoch;
    epoch_event.arg = stage.batches;
    epoch_event.begin_ns = stage.trace_begin_ns;
    epoch_event.end_ns = trace::now_ns();
    epoch_event.value = stage.totals.queries;
    trace::emit(epoch_event);
  }
}

EngineCheckpoint EpochEngine::checkpoint() const {
  if (epoch_in_flight_ || epochs_.empty()) {
    throw std::logic_error(
        "EpochEngine::checkpoint: need a finished epoch and none in "
        "flight");
  }
  EngineCheckpoint cut;
  cut.summary = epochs_.back();
  cut.rng_state = master_.state();
  cut.flow = flow_;
  const std::span<const std::uint32_t> paths = clients_->local_paths();
  cut.client_paths.assign(paths.begin(), paths.end());
  cut.route_hist = stage_.epoch_route;
  return cut;
}

void EpochEngine::restore(const EngineResume& resume) {
  if (clients_ == nullptr) {
    throw std::logic_error("EpochEngine::restore: begin() first");
  }
  if (!epochs_.empty() || epoch_in_flight_) {
    throw std::logic_error(
        "EpochEngine::restore: engine has already served epochs");
  }
  const std::span<const EpochSummary> epochs = resume.epochs;
  if (epochs.empty()) return;
  if (epochs.size() > options_.epochs) {
    throw std::invalid_argument(
        "EpochEngine::restore: more epochs than the epoch budget");
  }
  if (resume.at == nullptr ||
      resume.at->cut.summary.epoch + 1 != epochs.size()) {
    throw std::invalid_argument(
        "EpochEngine::restore: the boundary state does not close the last "
        "restored epoch");
  }
  const EngineCheckpoint& last = resume.at->cut;
  // The tolerance begin() applies to the start: a WAL cut carries an
  // FNV checksum and no MAC, so its flow is outside input.
  if (!is_feasible(*instance_, last.flow, 1e-7)) {
    throw std::invalid_argument(
        "EpochEngine::restore: infeasible flow (wrong path count, "
        "negative, non-finite or not summing to each commodity's demand)");
  }
  if (last.client_paths.size() != clients_->size()) {
    throw std::invalid_argument(
        "EpochEngine::restore: client paths do not match num_clients");
  }

  for (std::size_t i = 0; i < epochs.size(); ++i) {
    if (epochs[i].epoch != i) {
      throw std::invalid_argument(
          "EpochEngine::restore: summaries are not the contiguous epochs "
          "0..n-1");
    }
    epochs_.push_back(epochs[i]);
    total_queries_ += epochs[i].queries;
    total_migrations_ += epochs[i].migrations;
  }
  run_route_ = resume.at->route_latency;

  flow_ = last.flow;
  master_ = Rng::from_state(last.rng_state);
  for (std::size_t i = 0; i < instance_->commodity_count(); ++i) {
    const CommodityId c{i};
    const std::size_t path_count = instance_->commodity(c).paths.size();
    const std::size_t first = clients_->first_client(c);
    for (std::size_t client = first; client < first + clients_->clients_of(c);
         ++client) {
      const std::size_t path = last.client_paths[client];
      if (path >= path_count) {
        throw std::invalid_argument(
            "EpochEngine::restore: client path out of its commodity's "
            "range");
      }
      clients_->reassign(client, path);
    }
  }

  // Rebuild the board the checkpointed process was serving against: the
  // epoch-n post of the restored flow — the same bits the board node
  // built, because the flow doubles round-tripped exactly.
  const auto n = static_cast<std::uint64_t>(epochs.size());
  board_ = std::make_unique<BoardSnapshot>(
      *instance_, *policy_, n,
      static_cast<double>(n) * options_.update_period, flow_);
}

RouteServerResult EpochEngine::finish(double wall_seconds) {
  if (clients_ == nullptr || epoch_in_flight_ || epochs_.empty()) {
    throw std::logic_error(
        "EpochEngine::finish: run at least one epoch to completion first");
  }
  const double final_gap = epochs_.back().wardrop_gap;
  RouteServerResult result{
      .final_flow = FlowVector(*instance_, std::move(flow_)),
      .epochs = std::move(epochs_),
      .total_queries = total_queries_,
      .total_migrations = total_migrations_,
      .final_gap = final_gap,
      .route_latency = run_route_};
  if (options_.record_latency) {
    result.wall_seconds = wall_seconds;
    result.queries_per_second =
        wall_seconds > 0.0
            ? static_cast<double>(result.total_queries) / wall_seconds
            : 0.0;
  }
  return result;
}

}  // namespace staleflow
