// Tests for the route service engine: board snapshots, sharded ledger,
// client population, workload generators, the RouteServer pipeline and
// its thread-count determinism contract, plus the BulletinBoard edge
// cases at the simulator/service boundary.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "agents/agent_simulator.h"
#include "agents/population.h"
#include "core/bulletin_board.h"
#include "core/fluid_simulator.h"
#include "core/migration.h"
#include "core/policy.h"
#include "core/sampling.h"
#include "equilibrium/metrics.h"
#include "exec/exec.h"
#include "latency/functions.h"
#include "net/flow.h"
#include "net/generators.h"
#include "service/service.h"
#include "util/rng.h"

namespace staleflow {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// --------------------------------------------------------------- Population

TEST(Population, AllocatesAtLeastOneClientPerCommodity) {
  const Instance instance = shared_bottleneck();
  const FlowVector initial = FlowVector::uniform(instance);
  const Population population(instance, 5, initial.values());
  EXPECT_EQ(population.size(), 5u);
  std::vector<std::size_t> per_commodity(instance.commodity_count(), 0);
  for (std::size_t client = 0; client < population.size(); ++client) {
    ++per_commodity[population.commodity_of(client).index()];
  }
  for (std::size_t c = 0; c < per_commodity.size(); ++c) {
    EXPECT_GE(per_commodity[c], 1u);
    EXPECT_EQ(per_commodity[c], population.clients_of(CommodityId{c}));
  }
}

TEST(Population, RejectsFewerClientsThanCommodities) {
  const Instance instance = shared_bottleneck();  // 2 commodities
  const FlowVector initial = FlowVector::uniform(instance);
  EXPECT_THROW(Population(instance, 1, initial.values()),
               std::invalid_argument);
}

TEST(Population, EmpiricalFlowIsFeasibleAndTracksMigrations) {
  const Instance instance = braess(true);
  const FlowVector initial = FlowVector::uniform(instance);
  Population population(instance, 999, initial.values());
  EXPECT_TRUE(is_feasible(instance, population.empirical_flow(), 1e-9));

  const std::size_t before = population.local_path(0);
  const std::size_t target = before == 0 ? 1 : 0;
  const Commodity& commodity =
      instance.commodity(population.commodity_of(0));
  const double flow_before =
      population.empirical_flow()[commodity.paths[before].index()];
  population.migrate(0, target);
  EXPECT_EQ(population.local_path(0), target);
  EXPECT_TRUE(is_feasible(instance, population.empirical_flow(), 1e-9));
  EXPECT_NEAR(
      population.empirical_flow()[commodity.paths[before].index()],
      flow_before - population.flow_per_client(population.commodity_of(0)),
      1e-12);
}

// Three commodities s_i -> t over 2, 3 and 2 parallel links, with uneven
// demands 0.6 / 0.3 / 0.1.
Instance uneven_commodities() {
  Graph g(4);
  const VertexId t{3};
  const std::size_t links[] = {2, 3, 2};
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < links[i]; ++j) g.add_edge(VertexId{i}, t);
  }
  InstanceBuilder builder(std::move(g));
  for (std::size_t e = 0; e < 7; ++e) {
    builder.set_latency(EdgeId{e},
                        affine(0.1 * static_cast<double>(e), 1.0));
  }
  builder.add_commodity(VertexId{0}, t, 0.6);
  builder.add_commodity(VertexId{1}, t, 0.3);
  builder.add_commodity(VertexId{2}, t, 0.1);
  return std::move(builder).build();
}

static_assert(Population::kBytesPerClient == 4);

TEST(Population, DerivesEachClientsCommodityFromOffsets) {
  const Instance instance = uneven_commodities();
  const FlowVector initial = FlowVector::uniform(instance);
  const Population population(instance, 1003, initial.values());
  const std::size_t k = instance.commodity_count();
  ASSERT_EQ(k, 3u);

  // Client ids enumerate commodities in order: commodity_of starts at 0,
  // ends at k - 1 and steps up by one exactly where a range ends.
  std::vector<std::size_t> tally(k, 0);
  std::size_t previous = 0;
  for (std::size_t client = 0; client < population.size(); ++client) {
    const std::size_t c = population.commodity_of(client).index();
    ASSERT_LT(c, k);
    ASSERT_TRUE(c == previous || c == previous + 1) << "client " << client;
    previous = c;
    ++tally[c];
  }
  EXPECT_EQ(population.commodity_of(0).index(), 0u);
  EXPECT_EQ(population.commodity_of(population.size() - 1).index(), k - 1);

  std::size_t total = 0;
  for (std::size_t c = 0; c < k; ++c) {
    const CommodityId id{c};
    const std::size_t first = population.first_client(id);
    const std::size_t count = population.clients_of(id);
    EXPECT_EQ(tally[c], count);
    EXPECT_EQ(first, total);
    EXPECT_EQ(population.commodity_of(first), id);
    EXPECT_EQ(population.commodity_of(first + count - 1), id);
    total += count;
  }
  EXPECT_EQ(total, population.size());
  // Uneven demand, uneven ranges.
  EXPECT_GT(population.clients_of(CommodityId{0}),
            population.clients_of(CommodityId{1}));
  EXPECT_GT(population.clients_of(CommodityId{1}),
            population.clients_of(CommodityId{2}));

  // The derived commodity rebuilds the constructor's empirical flow.
  std::vector<double> rebuilt(instance.path_count(), 0.0);
  for (std::size_t client = 0; client < population.size(); ++client) {
    const CommodityId c = population.commodity_of(client);
    const PathId path =
        instance.commodity(c).paths[population.local_path(client)];
    rebuilt[path.index()] += population.flow_per_client(c);
  }
  for (std::size_t p = 0; p < rebuilt.size(); ++p) {
    EXPECT_NEAR(rebuilt[p], population.empirical_flow()[p], 1e-12);
  }
}

TEST(Population, OneCommodityMapsEveryClientToCommodityZero) {
  const Instance instance = braess(true);
  const FlowVector initial = FlowVector::uniform(instance);
  const Population population(instance, 999, initial.values());
  for (std::size_t client = 0; client < population.size(); ++client) {
    ASSERT_EQ(population.commodity_of(client), CommodityId{0});
  }
  EXPECT_EQ(population.first_client(CommodityId{0}), 0u);
  EXPECT_EQ(population.clients_of(CommodityId{0}), population.size());
}

// ------------------------------------------------------------ BoardSnapshot

TEST(BoardSnapshot, CdfIsMonotoneAndEndsAtOne) {
  const Instance instance = uniform_parallel_links(8, 0.5, 1.0);
  const Policy policy = make_replicator_policy(instance);
  const FlowVector flow = FlowVector::uniform(instance);
  const BoardSnapshot snapshot(instance, policy, 0, 0.0, flow.values());
  const std::span<const double> cdf = snapshot.cdf(CommodityId{std::size_t{0}});
  ASSERT_EQ(cdf.size(), 8u);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i], cdf[i - 1]);
  }
  EXPECT_GE(cdf.back(), 1.0);
}

// ----------------------------------------------------------------- FlowLedger

TEST(FlowLedger, FoldsShardsInOrderAndResets) {
  FlowLedger ledger(3, 4);
  std::vector<double> flow = {1.0, 2.0, 3.0};
  ledger.add(0, 0, +0.5);
  ledger.add(3, 0, -0.25);
  ledger.add(1, 2, +1.0);
  ledger.count_served(0, 1);
  ledger.count_migration(0);
  ledger.count_served(3, 2);

  const FlowLedger::Totals totals = ledger.fold_into(flow, 4);
  EXPECT_EQ(totals.queries, 2u);
  EXPECT_EQ(totals.migrations, 1u);
  EXPECT_DOUBLE_EQ(flow[0], 1.25);
  EXPECT_DOUBLE_EQ(flow[1], 2.0);
  EXPECT_DOUBLE_EQ(flow[2], 4.0);

  // Folding again is a no-op: the ledger reset.
  const FlowLedger::Totals empty = ledger.fold_into(flow, 4);
  EXPECT_EQ(empty.queries, 0u);
  EXPECT_DOUBLE_EQ(flow[0], 1.25);
}

// The serving summary's route histogram reads these counts: each fold
// overwrites served() with the per-path sums of the folded slots, which
// it resets, and Totals::queries is their sum.
TEST(FlowLedger, FoldsServedCountsPerPathAndResets) {
  FlowLedger ledger(10, 2);  // 10 paths: each slot's block spans two lines
  ledger.ensure_slots(3);
  ASSERT_EQ(ledger.served().size(), 10u);
  for (const std::uint64_t count : ledger.served()) EXPECT_EQ(count, 0u);
  ledger.count_served(0, 9);
  ledger.count_served(0, 9);
  ledger.count_served(1, 0);
  ledger.count_served(2, 9);
  ledger.count_served(2, 4);
  std::vector<double> flow(10, 0.0);

  // Only slots 0 and 1 are active; slot 2 waits for a wider fold.
  FlowLedger::Totals totals = ledger.fold_into(flow, 2);
  const std::vector<std::uint64_t> first = {1, 0, 0, 0, 0, 0, 0, 0, 0, 2};
  EXPECT_TRUE(std::ranges::equal(ledger.served(), first));
  EXPECT_EQ(totals.queries, 3u);
  EXPECT_EQ(totals.migrations, 0u);

  totals = ledger.fold_into(flow, 3);
  const std::vector<std::uint64_t> second = {0, 0, 0, 0, 1, 0, 0, 0, 0, 1};
  EXPECT_TRUE(std::ranges::equal(ledger.served(), second));
  EXPECT_EQ(totals.queries, 2u);

  totals = ledger.fold_into(flow, 3);
  for (const std::uint64_t count : ledger.served()) EXPECT_EQ(count, 0u);
  EXPECT_EQ(totals.queries, 0u);
  for (const double f : flow) EXPECT_EQ(f, 0.0);
}

TEST(FlowLedger, RejectsZeroShards) {
  EXPECT_THROW(FlowLedger(3, 0), std::invalid_argument);
}

// ------------------------------------------------------------------ Workloads

TEST(Workload, PoissonIsDeterministicWithMeanNearRate) {
  const WorkloadPtr workload = poisson_workload(1000.0);
  Rng rng_a(5);
  Rng rng_b(5);
  const LoadFeedback none;
  double total = 0.0;
  for (std::uint64_t e = 0; e < 200; ++e) {
    const std::size_t a = workload->arrivals(e, 0.0, 0.1, none, rng_a);
    EXPECT_EQ(a, workload->arrivals(e, 0.0, 0.1, none, rng_b));
    total += static_cast<double>(a);
  }
  // Mean 100 per epoch; the average over 200 epochs concentrates.
  EXPECT_NEAR(total / 200.0, 100.0, 5.0);
}

TEST(Workload, PoissonDrawSmallAndLargeMeans) {
  Rng rng(11);
  double small = 0.0;
  double large = 0.0;
  for (int i = 0; i < 4000; ++i) {
    small += static_cast<double>(poisson_draw(2.0, rng));
    large += static_cast<double>(poisson_draw(400.0, rng));
  }
  EXPECT_NEAR(small / 4000.0, 2.0, 0.15);
  EXPECT_NEAR(large / 4000.0, 400.0, 4.0);
  EXPECT_EQ(poisson_draw(0.0, rng), 0u);
}

TEST(Workload, PoissonDrawRejectsUnrepresentableMeans) {
  // A draw past 2^63 cannot be rounded to an integer count, and a
  // non-finite mean has no draw at all: both are errors, never a hang.
  Rng rng(11);
  EXPECT_THROW(poisson_draw(1e29, rng), std::invalid_argument);
  EXPECT_THROW(poisson_draw(std::numeric_limits<double>::infinity(), rng),
               std::invalid_argument);
  EXPECT_THROW(poisson_draw(std::numeric_limits<double>::quiet_NaN(), rng),
               std::invalid_argument);
  EXPECT_GT(poisson_draw(1e12, rng), 0u);
}

TEST(Workload, BurstyAlternatesRates) {
  const WorkloadPtr workload = bursty_workload(10000.0, 0.0, 2, 3);
  Rng rng(1);
  const LoadFeedback none;
  for (std::uint64_t e = 0; e < 10; ++e) {
    const std::size_t n = workload->arrivals(e, 0.0, 1.0, none, rng);
    if (e % 5 < 2) {
      EXPECT_GT(n, 0u) << "epoch " << e;
    } else {
      EXPECT_EQ(n, 0u) << "epoch " << e;
    }
  }
}

TEST(Workload, DiurnalPeaksMidDay) {
  const WorkloadPtr workload = diurnal_workload(1000.0, 0.9, 4.0);
  Rng rng(3);
  const LoadFeedback none;
  // Peak of sin at t = day/4 = 1.0; trough at t = 3.0.
  const std::size_t peak = workload->arrivals(0, 0.95, 0.1, none, rng);
  const std::size_t trough = workload->arrivals(0, 2.95, 0.1, none, rng);
  EXPECT_GT(peak, trough);
}

TEST(Workload, ClosedLoopIsConstant) {
  const WorkloadPtr workload = closed_loop_workload(123);
  Rng rng(1);
  const LoadFeedback none;
  for (std::uint64_t e = 0; e < 5; ++e) {
    EXPECT_EQ(workload->arrivals(e, 0.0, 0.1, none, rng), 123u);
  }
}

TEST(Workload, ClosedLoopLatencyShedsLoadUnderCongestion) {
  // 1000 clients, base think time 0.5: the first epoch (no served
  // latency yet) offers 1000 * 0.1 / 0.5 = 200 queries; a served median
  // of 0.5 halves the rate; rising latency sheds further load. No rng
  // draws — the feedback loop is fully deterministic.
  const WorkloadPtr workload = closed_loop_latency_workload(1000, 0.5);
  Rng rng(1);
  LoadFeedback feedback;
  EXPECT_EQ(workload->arrivals(0, 0.0, 0.1, feedback, rng), 200u);
  feedback.has_previous = true;
  feedback.route_p50 = 0.5;
  EXPECT_EQ(workload->arrivals(1, 0.1, 0.1, feedback, rng), 100u);
  feedback.route_p50 = 1.5;
  EXPECT_EQ(workload->arrivals(2, 0.2, 0.1, feedback, rng), 50u);
  EXPECT_EQ(workload->name(), "closed-loop-lat:1000,0.5");
  EXPECT_THROW(closed_loop_latency_workload(1000, 0.0),
               std::invalid_argument);
  // 2^63 or more queries in one epoch is an error, not an undefined cast.
  EXPECT_THROW(closed_loop_latency_workload(1'000'000'000'000'000'000, 1e-3)
                   ->arrivals(0, 0.0, 0.1, LoadFeedback{}, rng),
               std::invalid_argument);
}

TEST(Workload, MakeWorkloadParsesAndRejects) {
  EXPECT_EQ(make_workload("poisson:500")->name(), "poisson:500");
  EXPECT_EQ(make_workload("bursty:10,1,5,5")->name(), "bursty:10,1,5,5");
  EXPECT_EQ(make_workload("diurnal:100,0.5,24")->name(),
            "diurnal:100,0.5,24");
  EXPECT_EQ(make_workload("closed-loop:42")->name(), "closed-loop:42");
  EXPECT_EQ(make_workload("closed-loop-lat:500,0.2")->name(),
            "closed-loop-lat:500,0.2");
  EXPECT_THROW(make_workload("poison:500"), std::invalid_argument);
  EXPECT_THROW(make_workload("poisson"), std::invalid_argument);
  EXPECT_THROW(make_workload("poisson:-3"), std::invalid_argument);
  EXPECT_THROW(make_workload("bursty:1,2,3"), std::invalid_argument);
  EXPECT_THROW(make_workload("closed-loop:nope"), std::invalid_argument);
  EXPECT_THROW(make_workload("closed-loop-lat:500"), std::invalid_argument);
  EXPECT_THROW(make_workload("closed-loop-lat:500,0"),
               std::invalid_argument);
}

// ---------------------------------------------------------------- RouteServer

RouteServerOptions small_options() {
  RouteServerOptions options;
  options.update_period = 0.1;
  options.epochs = 30;
  options.num_clients = 1000;
  options.shards = 8;
  options.threads = 1;
  options.seed = 17;
  options.record_latency = false;
  return options;
}

TEST(RouteServer, RejectsBadOptionsAtTheServiceBoundary) {
  const Instance instance = braess(true);
  const Policy policy = make_replicator_policy(instance);
  const WorkloadPtr workload = closed_loop_workload(100);
  RouteServer server(instance, policy, *workload);
  const FlowVector initial = FlowVector::uniform(instance);

  RouteServerOptions options = small_options();
  options.update_period = 0.0;
  EXPECT_THROW(server.run(initial, options), std::invalid_argument);
  options.update_period = -0.1;
  EXPECT_THROW(server.run(initial, options), std::invalid_argument);
  options.update_period = std::numeric_limits<double>::infinity();
  EXPECT_THROW(server.run(initial, options), std::invalid_argument);
  options.update_period = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(server.run(initial, options), std::invalid_argument);

  options = small_options();
  options.epochs = 0;
  EXPECT_THROW(server.run(initial, options), std::invalid_argument);

  options = small_options();
  options.shards = options.num_clients + 1;
  EXPECT_THROW(server.run(initial, options), std::invalid_argument);
  options.shards = 0;
  EXPECT_THROW(server.run(initial, options), std::invalid_argument);

  options = small_options();
  FlowVector infeasible(instance);  // all-zero: violates demands
  EXPECT_THROW(server.run(infeasible, options), std::invalid_argument);
}

TEST(EpochEngine, HugeEpochBudgetBeginsAndServesOneEpoch) {
  // Nothing in begin() is sized by the epoch budget: a 10^11-epoch run
  // starts in constant memory and serves its epochs one at a time.
  const Instance instance = braess(true);
  const Policy policy = make_replicator_policy(instance);
  const WorkloadPtr workload = closed_loop_workload(100);
  RouteServerOptions options = small_options();
  options.epochs = 100'000'000'000;
  EpochEngine engine(instance, policy, *workload);
  engine.begin(FlowVector::uniform(instance), options);
  TaskGraph graph;
  engine.add_epoch(graph);
  Executor().run(graph);
  engine.finish_epoch(0.0, nullptr);
  EXPECT_EQ(engine.epochs_done(), 1u);
  EXPECT_FALSE(engine.done());
}

TEST(EpochEngine, ClientStateBeyondPhysicalMemoryIsRejectedBeforeAllocating) {
  // The largest fleet RouteQuery::client (uint32) can address needs
  // 2^32 - 1 clients x kBytesPerClient of client state (17.2 GB at 4 B).
  // begin() must refuse it up front (exit 2 in the CLIs), not die on
  // bad_alloc part-way through building the population.
  constexpr std::size_t kClients = std::numeric_limits<std::uint32_t>::max();
  const long pages = sysconf(_SC_PHYS_PAGES);
  const long page_size = sysconf(_SC_PAGESIZE);
  if (pages <= 0 || page_size <= 0 ||
      static_cast<std::size_t>(pages) >=
          kClients / static_cast<std::size_t>(page_size) *
              Population::kBytesPerClient) {
    GTEST_SKIP() << "this host's physical memory is unknown or holds the "
                    "state of 2^32 - 1 clients";
  }
  const Instance instance = braess(true);
  const Policy policy = make_replicator_policy(instance);
  const WorkloadPtr workload = closed_loop_workload(100);
  RouteServerOptions options = small_options();
  options.num_clients = kClients;
  EpochEngine engine(instance, policy, *workload);
  try {
    engine.begin(FlowVector::uniform(instance), options);
    FAIL() << "begin() accepted 2^32 - 1 clients";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("physical memory"), std::string::npos) << what;
    EXPECT_NE(what.find("4 B per client"), std::string::npos) << what;
  }
  // Rejected before the population or the first board was built: the
  // engine is still unbegun.
  TaskGraph graph;
  EXPECT_THROW(engine.add_epoch(graph), std::logic_error);
}

TEST(EpochEngine, EpochGraphIsTheServeNodesPlusFoldBoardAndSummary) {
  // serve x B -> fold -> {board, summary}: three nodes beside the serve
  // nodes, whatever the commodity count. 4000 closed-loop queries over 8
  // shards of 125 clients, at most 100 per serve node, split each shard.
  const WorkloadPtr workload = closed_loop_workload(4000);
  RouteServerOptions options = small_options();
  options.sub_batch_queries = 100;
  const std::size_t planned =
      options.shards * sub_batch_count(4000 / options.shards, 100,
                                       options.num_clients / options.shards);
  ASSERT_GT(planned, options.shards);
  const auto check = [&](const Instance& instance) {
    const Policy policy = make_replicator_policy(instance);
    EpochEngine engine(instance, policy, *workload);
    engine.begin(FlowVector::uniform(instance), options);
    TaskGraph graph;
    engine.add_epoch(graph);
    EXPECT_EQ(graph.size(), planned + 3)
        << instance.commodity_count() << " commodities";
    Executor().run(graph);
    engine.finish_epoch(0.0, nullptr);
    EXPECT_EQ(engine.checkpoint().summary.queries, 4000u);
  };
  check(braess(true));
  check(uneven_commodities());
}

TEST(EpochEngine, RestoreRejectsAClientPathOutOfItsCommoditysRange) {
  // Commodities own 2, 3 and 2 paths. The last client of commodity 0 gets
  // path 2 (legal for commodity 1, not for its own), the first client of
  // commodity 1 gets path 3: each cut must be refused.
  const Instance instance = uneven_commodities();
  const Policy policy = make_replicator_policy(instance);
  const WorkloadPtr workload = closed_loop_workload(100);
  const RouteServerOptions options = small_options();
  const FlowVector initial = FlowVector::uniform(instance);

  EpochEngine served(instance, policy, *workload);
  served.begin(initial, options);
  TaskGraph graph;
  served.add_epoch(graph);
  Executor().run(graph);
  served.finish_epoch(0.0, nullptr);
  const EngineCheckpoint cut = served.checkpoint();

  const Population population(instance, options.num_clients,
                              initial.values());
  const std::size_t last_of_0 =
      population.first_client(CommodityId{1}) - 1;
  const std::size_t first_of_1 = population.first_client(CommodityId{1});
  ASSERT_EQ(population.commodity_of(last_of_0), CommodityId{0});

  const auto restore_cut = [&](const EngineCheckpoint& tampered) {
    EpochEngine fresh(instance, policy, *workload);
    fresh.begin(initial, options);
    fresh.restore(std::span<const EngineCheckpoint>(&tampered, 1));
  };
  const auto restore = [&](std::size_t client, std::uint32_t path) {
    EngineCheckpoint tampered = cut;
    tampered.client_paths[client] = path;
    restore_cut(tampered);
  };
  const auto paths_of = [&](std::size_t c) {
    return static_cast<std::uint32_t>(
        instance.commodity(CommodityId{c}).paths.size());
  };
  // The last legal path of each commodity restores.
  EXPECT_NO_THROW(restore(last_of_0, paths_of(0) - 1));
  EXPECT_NO_THROW(restore(first_of_1, paths_of(1) - 1));
  // One past it does not.
  EXPECT_THROW(restore(last_of_0, paths_of(0)), std::invalid_argument);
  EXPECT_THROW(restore(first_of_1, paths_of(1)), std::invalid_argument);

  // The cut's flow must be feasible, as begin() demands of the start:
  // finite, non-negative and summing to each commodity's demand.
  EXPECT_NO_THROW(restore_cut(cut));
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(), -5.0,
                           1e300, cut.flow[0] + 0.5}) {
    EngineCheckpoint tampered = cut;
    tampered.flow[0] = bad;
    try {
      restore_cut(tampered);
      ADD_FAILURE() << "restored flow[0] = " << bad;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("infeasible flow"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(RouteServer, LatencyFeedbackClosesTheLoopDeterministically) {
  // The served p50 rises above zero immediately, so from epoch 1 on the
  // latency-fed fleet offers strictly less than its uncongested rate —
  // and the whole trajectory replays bit-for-bit.
  const Instance instance = braess(true);
  const Policy policy = make_replicator_policy(instance);
  const WorkloadPtr workload = closed_loop_latency_workload(4000, 0.1);
  RouteServerOptions options = small_options();
  options.epochs = 10;

  std::vector<std::size_t> reference;
  for (int repeat = 0; repeat < 2; ++repeat) {
    RouteServer server(instance, policy, *workload);
    const RouteServerResult result =
        server.run(FlowVector::uniform(instance), options);
    ASSERT_EQ(result.epochs.size(), 10u);
    // Epoch 0 pays no latency: 4000 * 0.1 / 0.1 = 4000 queries.
    EXPECT_EQ(result.epochs[0].queries, 4000u);
    for (std::size_t e = 1; e < result.epochs.size(); ++e) {
      EXPECT_LT(result.epochs[e].queries, 4000u) << e;
      EXPECT_GT(result.epochs[e].queries, 0u) << e;
    }
    if (repeat == 0) {
      for (const EpochSummary& epoch : result.epochs) {
        reference.push_back(epoch.queries);
      }
    } else {
      for (std::size_t e = 0; e < result.epochs.size(); ++e) {
        EXPECT_EQ(result.epochs[e].queries, reference[e]) << e;
      }
    }
  }
}

TEST(RouteServer, ServesEveryArrivalAndConservesFlow) {
  const Instance instance = braess(true);
  const Policy policy = make_replicator_policy(instance);
  const WorkloadPtr workload = closed_loop_workload(500);

  RouteServer server(instance, policy, *workload);
  const RouteServerOptions options = small_options();
  const RouteServerResult result =
      server.run(FlowVector::uniform(instance), options);

  EXPECT_EQ(result.total_queries, 500u * options.epochs);
  EXPECT_EQ(result.epochs.size(), options.epochs);
  EXPECT_TRUE(is_feasible(instance, result.final_flow.values(), 1e-7));
  EXPECT_GT(result.total_migrations, 0u);
  EXPECT_LE(result.total_migrations, result.total_queries);
}

TEST(RouteServer, ClosesTheLoopTowardEquilibrium) {
  // Enough traffic per epoch for the replicator dynamics to descend: the
  // Wardrop gap at the end is well below the uniform split's.
  const Instance instance = braess(true);
  const Policy policy = make_replicator_policy(instance);
  const WorkloadPtr workload = closed_loop_workload(4000);
  RouteServer server(instance, policy, *workload);

  RouteServerOptions options = small_options();
  options.epochs = 60;
  options.num_clients = 4000;
  const FlowVector initial = FlowVector::uniform(instance);
  const double initial_gap = wardrop_gap(instance, initial.values());
  const RouteServerResult result = server.run(initial, options);

  EXPECT_LT(result.final_gap, 0.25 * initial_gap);
  // Telemetry is self-consistent.
  for (const EpochSummary& e : result.epochs) {
    EXPECT_GE(e.migration_rate, 0.0);
    EXPECT_LE(e.migration_rate, 1.0);
    EXPECT_GE(e.board_latency, 0.0);
    // Route-latency quantiles are populated (every query records one) and
    // ordered.
    EXPECT_GT(e.route_p50, 0.0);
    EXPECT_LE(e.route_p50, e.route_p99);
    EXPECT_LE(e.route_p99, e.route_p999);
  }
  // The run-level histogram holds exactly one sample per query and its
  // extremes bracket the per-epoch medians.
  EXPECT_EQ(result.route_latency.count(), result.total_queries);
  EXPECT_LE(result.route_latency.min(), result.epochs.front().route_p50);
  EXPECT_GE(result.route_latency.max(), result.epochs.back().route_p50);
}

TEST(RouteServer, DeterministicAcrossThreadCounts) {
  const Instance instance = uniform_parallel_links(8, 0.5, 1.0);
  const Policy policy = make_replicator_policy(instance);
  const WorkloadPtr workload = make_workload("poisson:20000");

  RouteServerOptions options = small_options();
  options.num_clients = 2000;
  options.epochs = 20;

  std::vector<EpochSummary> reference;
  std::vector<double> reference_flow;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    options.threads = threads;
    RouteServer server(instance, policy, *workload);
    const RouteServerResult result =
        server.run(FlowVector::uniform(instance), options);
    if (threads == 1) {
      reference = result.epochs;
      reference_flow.assign(result.final_flow.values().begin(),
                            result.final_flow.values().end());
      continue;
    }
    // Bit-identical dynamics: digest, counters and the final flow.
    EXPECT_EQ(telemetry_digest(result.epochs),
              telemetry_digest(reference));
    ASSERT_EQ(result.epochs.size(), reference.size());
    for (std::size_t e = 0; e < reference.size(); ++e) {
      EXPECT_EQ(result.epochs[e].queries, reference[e].queries);
      EXPECT_EQ(result.epochs[e].migrations, reference[e].migrations);
      EXPECT_EQ(result.epochs[e].wardrop_gap, reference[e].wardrop_gap);
      // The histogram-backed route quantiles are part of the contract:
      // bit-equal, not approximately equal.
      EXPECT_EQ(result.epochs[e].route_p50, reference[e].route_p50);
      EXPECT_EQ(result.epochs[e].route_p99, reference[e].route_p99);
      EXPECT_EQ(result.epochs[e].route_p999, reference[e].route_p999);
    }
    for (std::size_t p = 0; p < reference_flow.size(); ++p) {
      EXPECT_EQ(result.final_flow.values()[p], reference_flow[p]);
    }
  }
}

// Wraps LinearMigration and records every call the serve loop makes. The
// loop may ask the rule only about a candidate that looks strictly
// better; any other call is a violation. Atomics: at 4 threads the
// sub-batches call it concurrently.
class SpyMigration final : public MigrationRule {
 public:
  explicit SpyMigration(double scale) : inner_(scale) {}
  double probability(double current, double sampled) const override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    if (current <= sampled) {
      not_better_.fetch_add(1, std::memory_order_relaxed);
    }
    return inner_.probability(current, sampled);
  }
  std::optional<double> smoothness() const override {
    return inner_.smoothness();
  }
  std::string name() const override { return inner_.name(); }

  std::uint64_t calls() const { return calls_.load(); }
  std::uint64_t not_better() const { return not_better_.load(); }

 private:
  LinearMigration inner_;
  mutable std::atomic<std::uint64_t> calls_{0};
  mutable std::atomic<std::uint64_t> not_better_{0};
};

TEST(RouteServer, CallsTheMigrationRuleOnlyOnStrictlyBetterCandidates) {
  const Instance instance = braess(true);
  const Policy plain = make_replicator_policy(instance);
  auto owned_spy = std::make_unique<SpyMigration>(instance.max_latency());
  const SpyMigration& spy = *owned_spy;
  const Policy spied(proportional_sampling(), std::move(owned_spy));
  const WorkloadPtr workload = closed_loop_workload(4000);

  RouteServerOptions options = small_options();
  options.num_clients = 2000;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    options.threads = threads;
    const std::uint64_t calls_before = spy.calls();
    RouteServer plain_server(instance, plain, *workload);
    RouteServer spied_server(instance, spied, *workload);
    const RouteServerResult reference =
        plain_server.run(FlowVector::uniform(instance), options);
    const RouteServerResult result =
        spied_server.run(FlowVector::uniform(instance), options);
    // The gate skips the rule for the sampled path equal to the current
    // one and for every worse or equal-latency candidate ...
    EXPECT_EQ(spy.not_better(), 0u) << "threads=" << threads;
    EXPECT_GT(spy.calls(), calls_before) << "threads=" << threads;
    EXPECT_GT(result.total_migrations, 0u);
    // ... and what it skips is exactly what mu == 0 would have given.
    EXPECT_EQ(telemetry_digest(result.epochs),
              telemetry_digest(reference.epochs))
        << "threads=" << threads;
    EXPECT_EQ(result.total_migrations, reference.total_migrations);
  }
}

TEST(RouteServer, ReplayCsvIsByteIdenticalForOneAndFourThreads) {
  const Instance instance = braess(true);
  const Policy policy = make_replicator_policy(instance);
  const WorkloadPtr workload = make_workload("bursty:30000,5000,3,2");

  RouteServerOptions options = small_options();
  options.epochs = 25;

  const std::string path1 = "service_replay_t1.csv";
  const std::string path4 = "service_replay_t4.csv";
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    options.threads = threads;
    RouteServer server(instance, policy, *workload);
    const RouteServerResult result =
        server.run(FlowVector::uniform(instance), options);
    write_epoch_csv(threads == 1 ? path1 : path4, result.epochs,
                    /*include_timing=*/false);
  }
  const std::string csv1 = slurp(path1);
  const std::string csv4 = slurp(path4);
  EXPECT_FALSE(csv1.empty());
  EXPECT_EQ(csv1, csv4);
  std::remove(path1.c_str());
  std::remove(path4.c_str());
}

TEST(RouteServer, LatencyRecordingPopulatesWallClockFields) {
  const Instance instance = braess(true);
  const Policy policy = make_replicator_policy(instance);
  const WorkloadPtr workload = closed_loop_workload(2000);
  RouteServer server(instance, policy, *workload);

  RouteServerOptions options = small_options();
  options.epochs = 5;
  options.record_latency = true;
  const RouteServerResult result =
      server.run(FlowVector::uniform(instance), options);

  EXPECT_GT(result.wall_seconds, 0.0);
  EXPECT_GT(result.queries_per_second, 0.0);
  for (const EpochSummary& e : result.epochs) {
    EXPECT_GT(e.queries_per_second, 0.0) << "epoch " << e.epoch;
  }
  // The route histogram is deterministic and full either way.
  EXPECT_EQ(result.route_latency.count(), result.total_queries);
}

TEST(EpochCsv, TimingHeaderIsTheDeterministicColumnsPlusQps) {
  const std::vector<EpochSummary> epochs(2);
  const std::string deterministic_path = "service_csv_deterministic.csv";
  const std::string timing_path = "service_csv_timing.csv";
  write_epoch_csv(deterministic_path, epochs, /*include_timing=*/false);
  write_epoch_csv(timing_path, epochs, /*include_timing=*/true);
  const auto header = [](const std::string& path) {
    const std::string text = slurp(path);
    return text.substr(0, text.find('\n'));
  };
  const std::string columns =
      "epoch,start,end,queries,migrations,migration_rate,wardrop_gap,"
      "board_latency,route_p50,route_p99,route_p999";
  EXPECT_EQ(header(deterministic_path), columns);
  EXPECT_EQ(header(timing_path), columns + ",qps");
  std::remove(deterministic_path.c_str());
  std::remove(timing_path.c_str());
}

TEST(RouteServer, EpochQpsIsBookedOnTheServingGraph) {
  // Each epoch's queries_per_second divides its queries by the seconds of
  // the graph that served them, so no epoch reads orders of magnitude
  // above the run's rate.
  const Instance instance = braess(true);
  const Policy policy = make_replicator_policy(instance);
  const WorkloadPtr workload = closed_loop_workload(50000);
  RouteServer server(instance, policy, *workload);

  RouteServerOptions options = small_options();
  options.epochs = 10;
  options.num_clients = 4000;
  options.record_latency = true;
  const RouteServerResult result =
      server.run(FlowVector::uniform(instance), options);

  ASSERT_GT(result.queries_per_second, 0.0);
  for (const EpochSummary& e : result.epochs) {
    EXPECT_GT(e.queries_per_second, 0.0) << "epoch " << e.epoch;
    EXPECT_LE(e.queries_per_second, 20.0 * result.queries_per_second)
        << "epoch " << e.epoch;
  }
}

TEST(RouteServer, ReplayModeLeavesWallClockFieldsZeroed) {
  const Instance instance = braess(true);
  const Policy policy = make_replicator_policy(instance);
  const WorkloadPtr workload = closed_loop_workload(500);
  RouteServer server(instance, policy, *workload);

  RouteServerOptions options = small_options();  // record_latency = false
  options.epochs = 3;
  const RouteServerResult result =
      server.run(FlowVector::uniform(instance), options);
  EXPECT_EQ(result.wall_seconds, 0.0);
  EXPECT_EQ(result.queries_per_second, 0.0);
  // ...while the deterministic route histogram is still fully populated.
  EXPECT_EQ(result.route_latency.count(), result.total_queries);
  for (const EpochSummary& e : result.epochs) {
    EXPECT_EQ(e.queries_per_second, 0.0);
    EXPECT_GT(e.route_p50, 0.0);
  }
}

// ------------------------------------------------------ --tenants grammar

TEST(TenantSpecs, ParsesNamesFieldsAndInheritance) {
  const std::vector<TenantSpec> specs = parse_tenant_specs(
      "plain;"
      "big:clients=5000,shards=16,epochs=40,seed=9,weight=3,period=0.05;"
      "custom:scenario=braess,policy=alpha:0.5,workload=closed-loop:200");
  ASSERT_EQ(specs.size(), 3u);

  EXPECT_EQ(specs[0].name, "plain");  // all fields inherit
  EXPECT_TRUE(specs[0].scenario.empty());
  EXPECT_FALSE(specs[0].clients.has_value());
  EXPECT_FALSE(specs[0].seed.has_value());
  EXPECT_FALSE(specs[0].sub_batch_auto);

  EXPECT_EQ(specs[1].name, "big");
  EXPECT_EQ(specs[1].clients, 5000u);
  EXPECT_EQ(specs[1].shards, 16u);
  EXPECT_EQ(specs[1].epochs, 40u);
  EXPECT_EQ(specs[1].seed, 9u);
  EXPECT_EQ(specs[1].weight, 3u);
  EXPECT_EQ(specs[1].period, 0.05);

  EXPECT_EQ(specs[2].scenario, "braess");
  EXPECT_EQ(specs[2].policy, "alpha:0.5");
  EXPECT_EQ(specs[2].workload, "closed-loop:200");
}

TEST(TenantSpecs, CommaValuesContinueThePreviousField) {
  // A workload spec's own commas must survive the field split.
  const std::vector<TenantSpec> specs = parse_tenant_specs(
      "bursty:workload=bursty:40000,2000,3,2,shards=8;"
      "diurnal:workload=diurnal:1000,0.5,24");
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0].workload, "bursty:40000,2000,3,2");
  EXPECT_EQ(specs[0].shards, 8u);
  EXPECT_EQ(specs[1].workload, "diurnal:1000,0.5,24");
}

TEST(TenantSpecs, SubBatchTakesCountOrAuto) {
  const std::vector<TenantSpec> specs =
      parse_tenant_specs("fixed:sub-batch=512;adaptive:sub-batch=auto");
  EXPECT_EQ(specs[0].sub_batch, 512u);
  EXPECT_FALSE(specs[0].sub_batch_auto);
  EXPECT_FALSE(specs[1].sub_batch.has_value());
  EXPECT_TRUE(specs[1].sub_batch_auto);
}

TEST(TenantSpecs, RejectsMalformedSpecs) {
  // Zero tenants.
  EXPECT_THROW(parse_tenant_specs(""), std::invalid_argument);
  EXPECT_THROW(parse_tenant_specs(";;"), std::invalid_argument);
  // Bad names.
  EXPECT_THROW(parse_tenant_specs(":clients=5"), std::invalid_argument);
  EXPECT_THROW(parse_tenant_specs("has space:clients=5"),
               std::invalid_argument);
  // Duplicate names.
  EXPECT_THROW(parse_tenant_specs("a;b;a"), std::invalid_argument);
  // Unknown key, missing '=', empty value, bad numbers.
  EXPECT_THROW(parse_tenant_specs("a:bogus=1"), std::invalid_argument);
  EXPECT_THROW(parse_tenant_specs("a:justvalue"), std::invalid_argument);
  EXPECT_THROW(parse_tenant_specs("a:clients="), std::invalid_argument);
  EXPECT_THROW(parse_tenant_specs("a:clients=-5"), std::invalid_argument);
  EXPECT_THROW(parse_tenant_specs("a:clients=many"), std::invalid_argument);
  EXPECT_THROW(parse_tenant_specs("a:period=fast"), std::invalid_argument);
  EXPECT_THROW(parse_tenant_specs("a:sub-batch=never"),
               std::invalid_argument);
  // The error message lists the key catalogue (the CLI surfaces it).
  try {
    parse_tenant_specs("a:bogus=1");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("scenario"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("sub-batch"), std::string::npos);
  }
}

// ------------------------------------------- BulletinBoard boundary cases

TEST(BulletinBoard, EmptyBeforeFirstPost) {
  const Instance instance = braess(true);
  const BulletinBoard board(instance);
  EXPECT_FALSE(board.has_data());
  EXPECT_DOUBLE_EQ(board.posted_at(), 0.0);
  // Buffers exist (zeroed) so accidental reads are defined, not UB.
  ASSERT_EQ(board.path_latency().size(), instance.path_count());
  for (const double l : board.path_latency()) EXPECT_DOUBLE_EQ(l, 0.0);
}

TEST(BulletinBoard, RepostAtIdenticalTimestampRefreshesData) {
  const Instance instance = uniform_parallel_links(2, 0.5, 1.0);
  BulletinBoard board(instance);
  const std::vector<double> even = {0.5, 0.5};
  const std::vector<double> skewed = {1.0, 0.0};
  board.post(1.0, even);
  const double latency_even = board.path_latency()[0];
  board.post(1.0, skewed);  // same timestamp, new flow
  EXPECT_TRUE(board.has_data());
  EXPECT_DOUBLE_EQ(board.posted_at(), 1.0);
  EXPECT_GT(board.path_latency()[0], latency_even);
  EXPECT_DOUBLE_EQ(board.path_flow()[0], 1.0);
}

TEST(BulletinBoard, PostRejectsWrongPathCount) {
  const Instance instance = braess(true);
  BulletinBoard board(instance);
  const std::vector<double> wrong(instance.path_count() + 1, 0.0);
  EXPECT_THROW(board.post(0.0, wrong), std::invalid_argument);
}

TEST(SimulatorBoundary, NonPositiveUpdatePeriodsAreRejected) {
  const Instance instance = braess(true);
  const Policy policy = make_replicator_policy(instance);
  const FlowVector initial = FlowVector::uniform(instance);

  {
    AgentSimOptions options;
    options.update_period = 0.0;
    const AgentSimulator simulator(instance, policy);
    EXPECT_THROW(simulator.run(initial, options), std::invalid_argument);
  }
  {
    // Fluid: 0 selects fresh mode by contract, but negative is an error.
    SimulationOptions options;
    options.update_period = -0.5;
    const FluidSimulator simulator(instance, policy);
    EXPECT_THROW(simulator.run(initial, options), std::invalid_argument);
  }
}

}  // namespace
}  // namespace staleflow
