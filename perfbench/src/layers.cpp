#include "layers.h"

#include <chrono>
#include <filesystem>
#include <memory>
#include <sstream>
#include <thread>
#include <utility>

#include "core/policy.h"
#include "equilibrium/metrics.h"
#include "exec/executor.h"
#include "net/flow.h"
#include "recovery/run_log.h"
#include "service/epoch_engine.h"
#include "service/ledger.h"
#include "service/snapshot.h"
#include "service/telemetry.h"
#include "stats.h"
#include "trace/recorder.h"
#include "trace/trace_reader.h"
#include "util/log_histogram.h"
#include "util/rng.h"

namespace perfbench {

using namespace staleflow;

namespace {

constexpr std::size_t kReps = 15;  // timed repetitions per microbench

std::size_t share(std::size_t total, std::size_t parts, std::size_t part) {
  return total / parts + (part < total % parts ? 1 : 0);
}

/// One tenant of the workload, built as a session builds it, with the
/// serve-node count of its largest epoch.
struct Fixture {
  const TenantShape* shape = nullptr;
  std::uint64_t seed = 0;
  Host host;
  std::size_t slots = 0;
  std::vector<double> flow;  // uniform start flow

  std::size_t paths() const { return host.instance.path_count(); }
  std::size_t commodities() const { return host.instance.commodity_count(); }
};

std::vector<Fixture> make_fixtures(const Workload& workload,
                                   std::uint64_t seed, const Session& warm) {
  std::vector<Fixture> fixtures;
  for (std::size_t i = 0; i < workload.tenants.size(); ++i) {
    const TenantShape& shape = workload.tenants[i];
    const std::uint64_t s = tenant_seed(seed, i);
    Host host = make_host(shape, s);
    const FlowVector uniform = FlowVector::uniform(host.instance);
    std::vector<double> flow(uniform.values().begin(), uniform.values().end());
    // The deterministic sub-batch plan of the tenant's largest epoch.
    const std::size_t arrivals = warm.peak_queries.at(i);
    std::size_t slots = 0;
    for (std::size_t shard = 0; shard < shape.shards; ++shard) {
      slots += sub_batch_count(share(arrivals, shape.shards, shard),
                               workload.sub_batch,
                               share(shape.clients, shape.shards, shard));
    }
    fixtures.push_back(
        Fixture{&shape, s, std::move(host), slots, std::move(flow)});
  }
  return fixtures;
}

/// "grid 20p x 8 slots + layer ..." — the per-tenant sizes a summed
/// figure was measured at.
template <typename Describe>
std::string per_tenant(const std::vector<Fixture>& fixtures,
                       Describe&& describe) {
  std::ostringstream out;
  for (std::size_t i = 0; i < fixtures.size(); ++i) {
    if (i > 0) out << " + ";
    const std::string& name = fixtures[i].shape->name;
    out << (name.empty() ? fixtures[i].shape->scenario : name) << " "
        << describe(fixtures[i]);
  }
  return out.str();
}

std::string calls(std::size_t reps, std::size_t per_rep) {
  return "median of " + std::to_string(reps) + " x " +
         std::to_string(per_rep) + " calls";
}

/// Board latencies of the fixture's start flow, one per path.
std::vector<double> path_latencies(const Fixture& f) {
  const BoardSnapshot snapshot(f.host.instance, f.host.policy, 0, 0.0, f.flow);
  const std::span<const double> latency = snapshot.board().path_latency();
  return {latency.begin(), latency.end()};
}

/// A sub-batch's route-latency histogram: `queries` queries spread over
/// the fixture's path latencies, as the serve loop records them.
LogHistogram route_histogram(const std::vector<double>& latencies,
                             std::size_t queries) {
  LogHistogram hist;
  const std::size_t per_path =
      std::max<std::size_t>(1, queries / latencies.size());
  for (const double latency : latencies) hist.record(latency, per_path);
  return hist;
}

/// A sub-batch's sampled service-time histogram (us), spread like the
/// 0.1 us clock-resolution readings the serve loop takes.
LogHistogram wall_histogram(std::size_t samples) {
  LogHistogram hist;
  const double readings[] = {0.05, 0.1, 0.1, 0.2, 0.4, 1.5};
  for (std::size_t i = 0; i < samples; ++i) hist.record(readings[i % 6]);
  return hist;
}

Metric fold_metric(const std::vector<Fixture>& fixtures) {
  constexpr std::size_t kCalls = 200;
  double total = 0.0;
  for (const Fixture& f : fixtures) {
    FlowLedger ledger(f.paths(), f.slots);
    for (std::size_t s = 0; s < f.slots; ++s) {
      for (std::size_t p = 0; p < f.paths(); ++p) {
        ledger.add(s, p, 1e-9 * static_cast<double>(p + s));
      }
    }
    std::vector<double> flow = f.flow;
    total += per_call_ns(kReps, kCalls, [&] {
      for (std::size_t i = 0; i < kCalls; ++i) {
        keep(ledger.fold_into(flow, f.slots));
      }
    });
  }
  return {"service.fold_us", "us", total * 1e-3,
          "FlowLedger::fold_into, " + calls(kReps, kCalls) + "; " +
              per_tenant(fixtures, [](const Fixture& f) {
                return std::to_string(f.paths()) + " paths x " +
                       std::to_string(f.slots) + " slots";
              })};
}

Metric snapshot_metric(const std::vector<Fixture>& fixtures) {
  constexpr std::size_t kCalls = 20;
  double total = 0.0;
  for (const Fixture& f : fixtures) {
    total += per_call_ns(kReps, kCalls, [&] {
      for (std::size_t i = 0; i < kCalls; ++i) {
        BoardSnapshot snapshot(BoardSnapshot::DeferCdf{}, f.host.instance,
                               f.host.policy, 1, kPeriod, f.flow);
        for (std::size_t c = 0; c < f.commodities(); ++c) {
          snapshot.build_cdf(CommodityId{c});
        }
        keep(snapshot);
      }
    });
  }
  return {"service.snapshot_build_us", "us", total * 1e-3,
          "BoardSnapshot(DeferCdf) + build_cdf per commodity, " +
              calls(kReps, kCalls) + "; " +
              per_tenant(fixtures, [](const Fixture& f) {
                return std::to_string(f.paths()) + " paths, " +
                       std::to_string(f.commodities()) + " commodities";
              })};
}

Metric summary_metric(const std::vector<Fixture>& fixtures) {
  constexpr std::size_t kCalls = 20;
  double total = 0.0;
  for (const Fixture& f : fixtures) {
    const std::vector<double> latencies = path_latencies(f);
    const std::size_t per_slot =
        std::max<std::size_t>(1, 4000 / std::max<std::size_t>(1, f.slots));
    std::vector<LogHistogram> route(f.slots, route_histogram(latencies, per_slot));
    std::vector<LogHistogram> wall(f.slots, wall_histogram(per_slot / 32 + 1));
    LogHistogram epoch_route;
    LogHistogram epoch_wall;
    total += per_call_ns(kReps, kCalls, [&] {
      for (std::size_t i = 0; i < kCalls; ++i) {
        keep(wardrop_gap(f.host.instance, f.flow));
        epoch_route.reset();
        epoch_wall.reset();
        for (std::size_t b = 0; b < f.slots; ++b) {
          epoch_route.merge(route[b]);
          epoch_wall.merge(wall[b]);
        }
        keep(epoch_route.quantile(0.5) + epoch_route.quantile(0.99) +
             epoch_route.quantile(0.999) + epoch_wall.quantile(0.5) +
             epoch_wall.quantile(0.99) + epoch_wall.quantile(0.999));
      }
    });
  }
  return {"service.summary_us", "us", total * 1e-3,
          "wardrop_gap + route/wall histogram merges + 2x3 quantiles, " +
              calls(kReps, kCalls) + "; " +
              per_tenant(fixtures, [](const Fixture& f) {
                return std::to_string(f.slots) + " batches";
              })};
}

/// Drives a fresh engine of the fixture through its first two epochs
/// (pipelined, cut capture on, as a logged run serves) on an inline
/// executor.
struct DrivenEngine {
  SnapshotStore store;
  std::unique_ptr<EpochEngine> engine;
};

std::unique_ptr<DrivenEngine> drive_engine(const Workload& workload,
                                           const Fixture& f) {
  auto driven = std::make_unique<DrivenEngine>();
  driven->engine = std::make_unique<EpochEngine>(
      f.host.instance, f.host.policy, *f.host.workload, driven->store);
  RouteServerOptions options = server_options(workload, *f.shape, f.seed, true);
  options.epochs = 4;
  driven->engine->begin(FlowVector::uniform(f.host.instance), options);
  driven->engine->set_cut_capture(true);
  Executor inline_executor(1);
  while (driven->engine->epochs_done() < 2) {
    TaskGraph graph;
    driven->engine->add_epoch(graph);
    inline_executor.run(graph);
    driven->engine->finish_epoch(0.0, nullptr);
  }
  return driven;
}

std::vector<Metric> engine_metrics(const Workload& workload,
                                   const std::vector<Fixture>& fixtures) {
  constexpr std::size_t kCalls = 10;
  constexpr std::size_t kBegins = 7;
  double checkpoint_ns = 0.0;
  double encode_ns = 0.0;
  double begin_ns = 0.0;
  for (std::size_t i = 0; i < fixtures.size(); ++i) {
    const Fixture& f = fixtures[i];
    const std::unique_ptr<DrivenEngine> driven = drive_engine(workload, f);
    checkpoint_ns += per_call_ns(kReps, kCalls, [&] {
      for (std::size_t c = 0; c < kCalls; ++c) keep(driven->engine->checkpoint());
    });
    const EngineCheckpoint cut = driven->engine->checkpoint();
    encode_ns += per_call_ns(kReps, kCalls, [&] {
      for (std::size_t c = 0; c < kCalls; ++c) {
        keep(recovery::encode_epoch_cut(static_cast<std::uint32_t>(i), cut,
                                        0x5eed));
      }
    });

    const RouteServerOptions options =
        server_options(workload, *f.shape, f.seed, true);
    std::vector<double> begins;
    for (std::size_t r = 0; r < kBegins; ++r) {
      SnapshotStore store;
      EpochEngine engine(f.host.instance, f.host.policy, *f.host.workload,
                         store);
      const FlowVector initial = FlowVector::uniform(f.host.instance);
      const std::uint64_t begin = now_ns();
      engine.begin(initial, options);
      begins.push_back(static_cast<double>(now_ns() - begin));
    }
    begin_ns += median(begins);
  }
  const auto clients = [](const Fixture& f) {
    return std::to_string(f.shape->clients) + " clients";
  };
  return {
      {"service.checkpoint_us", "us", checkpoint_ns * 1e-3,
       "EpochEngine::checkpoint (pipelined, cut capture), " +
           calls(kReps, kCalls) + "; " + per_tenant(fixtures, clients)},
      {"service.begin_ms", "ms", begin_ns * 1e-6,
       "EpochEngine::begin, median of " + std::to_string(kBegins) +
           " fresh engines; " + per_tenant(fixtures, clients)},
      {"recovery.encode_us", "us", encode_ns * 1e-3,
       "encode_epoch_cut, " + calls(kReps, kCalls) + "; " +
           per_tenant(fixtures, [](const Fixture& f) {
             return std::to_string(f.shape->clients) + " client paths, " +
                    std::to_string(f.paths()) + " flows";
           })},
  };
}

Metric node_overhead_metric(const Workload& workload,
                            const std::vector<Fixture>& fixtures) {
  // One round's nodes: per tenant, its serve nodes plus fold, board post,
  // one CDF node per commodity, in-graph publish and summary.
  std::size_t nodes = 0;
  for (const Fixture& f : fixtures) nodes += f.slots + f.commodities() + 4;
  TaskGraph graph;
  std::vector<TaskGraph::NodeId> roots;
  for (std::size_t n = 0; n + 1 < nodes; ++n) roots.push_back(graph.add([] {}));
  graph.add([] {}, std::span<const TaskGraph::NodeId>(roots));
  Executor executor(workload.threads);
  constexpr std::size_t kGraphs = 20;
  const double per_graph = per_call_ns(kReps, kGraphs, [&] {
    for (std::size_t g = 0; g < kGraphs; ++g) executor.run(graph);
  });
  return {"exec.node_overhead_us", "us",
          per_graph * 1e-3 / static_cast<double>(nodes),
          "empty " + std::to_string(nodes) + "-node TaskGraph (" +
              std::to_string(nodes - 1) + " roots + 1 join) through "
              "Executor::run at " + std::to_string(workload.threads) +
              " threads, " + calls(kReps, kGraphs) + " (graphs)"};
}

/// The random-links-32 tenant every workload has: the 32-path CDF.
const Fixture& links_fixture(const std::vector<Fixture>& fixtures) {
  for (const Fixture& f : fixtures) {
    if (f.shape->scenario == "random-links-32") return f;
  }
  return fixtures.front();
}

std::vector<Metric> util_metrics(const std::vector<Fixture>& fixtures,
                                 std::uint64_t seed) {
  const Fixture& f = links_fixture(fixtures);
  const BoardSnapshot snapshot(f.host.instance, f.host.policy, 0, 0.0, f.flow);
  const std::span<const double> cdf = snapshot.cdf(CommodityId{std::size_t{0}});
  constexpr std::size_t kSamples = 1 << 16;
  Rng rng(seed);
  const double sample_ns = per_call_ns(kReps, kSamples, [&] {
    std::size_t sum = 0;
    for (std::size_t i = 0; i < kSamples; ++i) sum += sample_from_cdf(cdf, rng);
    keep(sum);
  });

  const std::vector<double> latencies = path_latencies(f);
  std::vector<double> values(4096);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = latencies[i % latencies.size()];
  }
  LogHistogram recorded;
  const double record_ns = per_call_ns(kReps, kSamples, [&] {
    for (std::size_t i = 0; i < kSamples; ++i) {
      recorded.record(values[i & (values.size() - 1)]);
    }
  });

  constexpr std::size_t kMerges = 2000;
  const LogHistogram source = route_histogram(latencies, 6250);
  LogHistogram target;
  const double merge_ns = per_call_ns(kReps, kMerges, [&] {
    for (std::size_t i = 0; i < kMerges; ++i) target.merge(source);
  });
  keep(target);
  return {
      {"service.cdf_sample_ns", "ns", sample_ns,
       "sample_from_cdf over a " + std::to_string(cdf.size()) +
           "-path CDF, " + calls(kReps, kSamples)},
      {"util.hist_record_ns", "ns", record_ns,
       "LogHistogram::record of " + std::to_string(latencies.size()) +
           " board latencies, " + calls(kReps, kSamples)},
      {"util.hist_merge_ns", "ns", merge_ns,
       "LogHistogram::merge of a " + std::to_string(latencies.size()) +
           "-value route histogram (default config), " +
           calls(kReps, kMerges)},
  };
}

Metric emit_metric(const std::string& tmp_dir) {
  constexpr std::size_t kEvents = 4096;  // a quarter of one ring
  const std::string path = tmp_dir + "/emit.trace";
  trace::start(path, "perfbench emit");
  trace::TraceEvent event;
  event.kind = trace::EventKind::kSubBatchSpan;
  std::vector<double> samples;
  for (std::size_t r = 0; r < kReps; ++r) {
    const std::uint64_t begin = now_ns();
    for (std::size_t i = 0; i < kEvents; ++i) {
      event.begin_ns = i;
      trace::emit(event);
    }
    samples.push_back(static_cast<double>(now_ns() - begin) /
                      static_cast<double>(kEvents));
    // Let the drainer empty the ring before the next burst.
    std::this_thread::sleep_for(std::chrono::milliseconds(3 * trace::kFlushPeriodMs));
  }
  trace::stop();
  std::filesystem::remove(path);
  return {"trace.emit_ns", "ns", median(samples),
          "trace::emit while recording, median of " + std::to_string(kReps) +
              " bursts of " + std::to_string(kEvents) + " events"};
}

}  // namespace

std::vector<Metric> layer_microbenches(const Workload& workload,
                                       std::uint64_t seed,
                                       const Session& warm,
                                       const std::string& tmp_dir) {
  const std::vector<Fixture> fixtures = make_fixtures(workload, seed, warm);
  std::vector<Metric> metrics;
  metrics.push_back(fold_metric(fixtures));
  metrics.push_back(snapshot_metric(fixtures));
  metrics.push_back(summary_metric(fixtures));
  for (Metric& m : engine_metrics(workload, fixtures)) {
    metrics.push_back(std::move(m));
  }
  metrics.push_back(node_overhead_metric(workload, fixtures));
  for (Metric& m : util_metrics(fixtures, seed)) metrics.push_back(std::move(m));
  metrics.push_back(emit_metric(tmp_dir));
  return metrics;
}

TraceFigures analyze_trace(const std::string& path) {
  const trace::LoadedTrace loaded = trace::load_trace(path);
  TraceFigures figures;
  figures.events = loaded.trailer_events;
  figures.dropped = loaded.trailer_dropped;
  std::vector<double> subbatch_us;
  for (const trace::LoadedEvent& loaded_event : loaded.events) {
    const trace::TraceEvent& e = loaded_event.event;
    const double ns = static_cast<double>(e.end_ns - e.begin_ns);
    switch (e.kind) {
      case trace::EventKind::kSubBatchSpan:
        ++figures.subbatches;
        figures.subbatch_ns += ns;
        figures.subbatch_queries += e.value;
        subbatch_us.push_back(ns * 1e-3);
        break;
      case trace::EventKind::kGraphSpan:
        ++figures.graphs;
        figures.graph_ns += ns;
        break;
      case trace::EventKind::kWalAppend:
        ++figures.wal_appends;
        figures.wal_ns += ns;
        break;
      default:
        break;
    }
  }
  figures.subbatch_p50_us = quantile(subbatch_us, 0.5);
  figures.subbatch_p99_us = quantile(subbatch_us, 0.99);
  return figures;
}

}  // namespace perfbench
