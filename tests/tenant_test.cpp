// Cross-tenant isolation property suite for the multi-tenant registry
// (ctest label `tenant`, run under the sanitizer CI job).
//
// The contract under test: a tenant's deterministic telemetry — its
// per-epoch FNV digest, final flow and route-latency histogram — is
// byte-identical whether the tenant runs alone (as a plain RouteServer
// or a one-tenant registry), co-scheduled with 1/3/7 heterogeneous
// neighbours, or on any worker-thread count (1/4/8). Co-tenancy and
// parallelism may only change wall-clock figures.
#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/exec.h"
#include "net/flow.h"
#include "net/generators.h"
#include "service/service.h"
#include "sweep/spec.h"
#include "util/rng.h"

namespace staleflow {
namespace {

/// Everything one tenant borrows for a run, owned together so tests can
/// build heterogeneous fleets compactly.
struct TenantFixture {
  std::string name;
  Instance instance;
  Policy policy;
  WorkloadPtr workload;
  TenantOptions options;
};

TenantFixture make_tenant(const std::string& name,
                          const std::string& scenario,
                          const std::string& policy_spec,
                          const std::string& workload_spec,
                          std::size_t clients, std::size_t shards,
                          std::uint64_t seed, std::size_t weight = 1,
                          std::size_t epochs = 12,
                          std::size_t sub_batch = 16384) {
  Instance instance = scenario == "braess"
                          ? braess(true)
                          : uniform_parallel_links(8, 0.5, 1.0);
  Policy policy = named_policy(policy_spec).make(instance, 0.1);
  TenantFixture tenant{name, std::move(instance), std::move(policy),
                       make_workload(workload_spec), TenantOptions{}};
  tenant.options.server.update_period = 0.1;
  tenant.options.server.epochs = epochs;
  tenant.options.server.num_clients = clients;
  tenant.options.server.shards = shards;
  tenant.options.server.seed = seed;
  tenant.options.server.sub_batch_queries = sub_batch;
  tenant.options.server.record_latency = false;  // replay mode
  tenant.options.weight = weight;
  return tenant;
}

/// The deterministic fingerprint the isolation contract pins.
struct Fingerprint {
  std::uint64_t digest = 0;
  std::vector<double> final_flow;
  LogHistogram route_latency;
  std::size_t queries = 0;
};

Fingerprint fingerprint(const RouteServerResult& result) {
  Fingerprint fp;
  fp.digest = telemetry_digest(result.epochs);
  fp.final_flow.assign(result.final_flow.values().begin(),
                       result.final_flow.values().end());
  fp.route_latency = result.route_latency;
  fp.queries = result.total_queries;
  return fp;
}

void expect_identical(const Fingerprint& a, const Fingerprint& b,
                      const std::string& label) {
  EXPECT_EQ(a.digest, b.digest) << label;
  EXPECT_EQ(a.queries, b.queries) << label;
  ASSERT_EQ(a.final_flow.size(), b.final_flow.size()) << label;
  for (std::size_t p = 0; p < a.final_flow.size(); ++p) {
    EXPECT_EQ(a.final_flow[p], b.final_flow[p]) << label << " path " << p;
  }
  EXPECT_TRUE(a.route_latency == b.route_latency) << label;
}

/// Runs a fleet on `threads` workers and fingerprints every tenant.
std::map<std::string, Fingerprint> run_fleet(
    const std::vector<const TenantFixture*>& fleet, std::size_t threads) {
  TenantRegistry registry;
  for (const TenantFixture* tenant : fleet) {
    registry.add(tenant->name, tenant->instance, tenant->policy,
                 *tenant->workload, tenant->options);
  }
  Executor executor(threads);
  const MultiTenantResult result = registry.run(executor);
  std::map<std::string, Fingerprint> out;
  for (const TenantResult& tenant : result.tenants) {
    out.emplace(tenant.name, fingerprint(tenant.server));
  }
  return out;
}

// The tenant whose bytes every test watches: busy enough to migrate and
// to split under a forced sub-batch threshold.
TenantFixture watched_tenant() {
  return make_tenant("watched", "braess", "replicator", "closed-loop:3000",
                     1000, 8, /*seed=*/17);
}

// Heterogeneous neighbours: different scenarios, policies, workload
// shapes, fleet sizes, shard counts, seeds and weights.
std::vector<TenantFixture> neighbour_pool() {
  std::vector<TenantFixture> pool;
  pool.push_back(make_tenant("n0", "links", "replicator", "poisson:20000",
                             2000, 4, 5));
  pool.push_back(make_tenant("n1", "braess", "alpha:0.5",
                             "bursty:30000,2000,3,2", 1500, 2, 7,
                             /*weight=*/2));
  pool.push_back(make_tenant("n2", "links", "logit:10", "closed-loop:500",
                             200, 1, 11, /*weight=*/3, /*epochs=*/20));
  pool.push_back(make_tenant("n3", "braess", "uniform-linear",
                             "diurnal:10000,0.8,2.0", 800, 8, 13));
  pool.push_back(make_tenant("n4", "links", "replicator",
                             "closed-loop-lat:4000,0.1", 1000, 4, 19));
  pool.push_back(make_tenant("n5", "braess", "relative-slack",
                             "poisson:5000", 500, 2, 23, /*weight=*/2,
                             /*epochs=*/6));
  pool.push_back(make_tenant("n6", "links", "alpha:0.25", "closed-loop:100",
                             100, 1, 29, /*weight=*/1, /*epochs=*/30));
  return pool;
}

// --------------------------------------------------- registry == RouteServer

void expect_same_cut(const EngineCheckpoint& a, const EngineCheckpoint& b,
                     const std::string& label) {
  EXPECT_EQ(telemetry_digest(std::span(&a.summary, 1)),
            telemetry_digest(std::span(&b.summary, 1)))
      << label;
  EXPECT_EQ(a.rng_state, b.rng_state) << label;
  EXPECT_EQ(a.flow, b.flow) << label;
  EXPECT_EQ(a.client_paths, b.client_paths) << label;
  EXPECT_TRUE(a.route_hist == b.route_hist) << label;
}

TEST(TenantRegistry, OneTenantMatchesPlainRouteServer) {
  // A solo server and a one-tenant registry serve through the same round
  // loop: same result, and the same cut for every epoch, under either
  // schedule and at any thread count.
  for (const bool pipeline : {false, true}) {
    TenantFixture tenant = watched_tenant();
    tenant.options.server.pipeline = pipeline;
    const std::string schedule = pipeline ? "pipelined" : "strict";

    std::vector<EngineCheckpoint> solo_cuts;
    RouteServer server(tenant.instance, tenant.policy, *tenant.workload);
    const Fingerprint solo = fingerprint(server.run(
        FlowVector::uniform(tenant.instance), tenant.options.server, nullptr,
        [&solo_cuts](const EngineCheckpoint& cut) {
          solo_cuts.push_back(cut);
        }));
    ASSERT_EQ(solo_cuts.size(), tenant.options.server.epochs) << schedule;

    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      const std::string label = "registry-of-one, " + schedule + " @" +
                                std::to_string(threads);
      TenantRegistry registry;
      registry.add(tenant.name, tenant.instance, tenant.policy,
                   *tenant.workload, tenant.options);
      Executor executor(threads);
      std::vector<EngineCheckpoint> round_cuts;
      const MultiTenantResult result = registry.run(
          executor, nullptr, [&round_cuts](const RoundCheckpoint& round) {
            for (const auto& [index, cut] : round.cuts) {
              round_cuts.push_back(cut);
            }
          });
      expect_identical(solo, fingerprint(result.tenants.front().server),
                       label);
      ASSERT_EQ(round_cuts.size(), solo_cuts.size()) << label;
      for (std::size_t e = 0; e < solo_cuts.size(); ++e) {
        expect_same_cut(solo_cuts[e], round_cuts[e],
                        label + ", epoch " + std::to_string(e));
      }
    }
  }
}

// ------------------------------------------------- co-scheduling invariance

TEST(TenantIsolation, DigestInvariantWithOneThreeSevenNeighbours) {
  const TenantFixture watched = watched_tenant();
  const std::vector<TenantFixture> neighbours = neighbour_pool();

  const Fingerprint alone = run_fleet({&watched}, 1).at("watched");

  for (const std::size_t count : {std::size_t{1}, std::size_t{3},
                                  std::size_t{7}}) {
    std::vector<const TenantFixture*> fleet = {&watched};
    for (std::size_t i = 0; i < count; ++i) fleet.push_back(&neighbours[i]);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      const auto results = run_fleet(fleet, threads);
      expect_identical(alone, results.at("watched"),
                       "with " + std::to_string(count) + " neighbours @" +
                           std::to_string(threads) + " threads");
    }
  }
}

TEST(TenantIsolation, NeighboursAreUnperturbedToo) {
  // Symmetry: the neighbours' own digests must equal THEIR solo runs.
  const TenantFixture watched = watched_tenant();
  const std::vector<TenantFixture> neighbours = neighbour_pool();

  std::map<std::string, Fingerprint> solo;
  for (const TenantFixture& n : neighbours) {
    solo.emplace(n.name, run_fleet({&n}, 1).at(n.name));
  }

  std::vector<const TenantFixture*> fleet = {&watched};
  for (const TenantFixture& n : neighbours) fleet.push_back(&n);
  const auto together = run_fleet(fleet, 4);
  for (const TenantFixture& n : neighbours) {
    expect_identical(solo.at(n.name), together.at(n.name), n.name);
  }
}

TEST(TenantIsolation, ForcedSplitTenantNextToTinyTenant) {
  // A skewed bursty tenant with the split threshold forced low (every
  // on-peak shard fans out into many sub-batch tasks) co-scheduled with
  // a tiny single-shard tenant: both keep their solo bytes at 1, 4 and 8
  // threads.
  const TenantFixture splitter = make_tenant(
      "splitter", "links", "replicator", "bursty:30000,2000,3,2", 1000, 4,
      23, /*weight=*/1, /*epochs=*/15, /*sub_batch=*/128);
  const TenantFixture tiny = make_tenant("tiny", "braess", "replicator",
                                         "closed-loop:50", 50, 1, 31);

  const Fingerprint splitter_alone = run_fleet({&splitter}, 1).at("splitter");
  const Fingerprint tiny_alone = run_fleet({&tiny}, 1).at("tiny");
  // The forced split actually split: well above one sub-batch per shard.
  EXPECT_GT(splitter_alone.queries, 4u * 128u);

  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
    const auto results = run_fleet({&splitter, &tiny}, threads);
    expect_identical(splitter_alone, results.at("splitter"),
                     "splitter @" + std::to_string(threads));
    expect_identical(tiny_alone, results.at("tiny"),
                     "tiny @" + std::to_string(threads));
  }
}

TEST(TenantIsolation, ByteIdenticalAcrossOneFourEightThreads) {
  const TenantFixture watched = watched_tenant();
  const std::vector<TenantFixture> neighbours = neighbour_pool();
  std::vector<const TenantFixture*> fleet = {&watched};
  for (const TenantFixture& n : neighbours) fleet.push_back(&n);

  const auto reference = run_fleet(fleet, 1);
  for (const std::size_t threads : {std::size_t{4}, std::size_t{8}}) {
    const auto results = run_fleet(fleet, threads);
    for (const auto& [name, fp] : reference) {
      expect_identical(fp, results.at(name),
                       name + " @" + std::to_string(threads));
    }
  }
}

// ------------------------------------------------------ weighted scheduling

TEST(TenantScheduler, WeightedTenantsMakeProportionalProgress) {
  // weight 3 vs weight 1, equal epoch budgets: whenever the light tenant
  // has finished k epochs, the heavy one has finished ~3k. The observer
  // sees epochs in completion order, so prefix counts measure progress.
  const TenantFixture heavy = make_tenant("heavy", "braess", "replicator",
                                          "closed-loop:200", 100, 1, 3,
                                          /*weight=*/3, /*epochs=*/30);
  const TenantFixture light = make_tenant("light", "braess", "replicator",
                                          "closed-loop:200", 100, 1, 5,
                                          /*weight=*/1, /*epochs=*/30);

  TenantRegistry registry;
  registry.add(heavy.name, heavy.instance, heavy.policy, *heavy.workload,
               heavy.options);
  registry.add(light.name, light.instance, light.policy, *light.workload,
               light.options);

  Executor executor(1);
  std::size_t heavy_done = 0;
  std::vector<std::size_t> heavy_at_light;  // heavy's progress per light epoch
  const MultiTenantResult result = registry.run(
      executor, [&](std::size_t tenant, const EpochSummary&) {
        if (tenant == 0) {
          ++heavy_done;
        } else {
          heavy_at_light.push_back(heavy_done);
        }
      });

  ASSERT_EQ(result.tenants[0].server.epochs.size(), 30u);
  ASSERT_EQ(result.tenants[1].server.epochs.size(), 30u);
  // While both tenants are active the ratio tracks the weights (the tail
  // where the heavy tenant has exhausted its budget is excluded).
  ASSERT_GE(heavy_at_light.size(), 10u);
  for (std::size_t k = 1; k <= 9; ++k) {
    const std::size_t progress = heavy_at_light[k - 1];
    EXPECT_GE(progress + 1, 3 * k) << "light epoch " << k;
    EXPECT_LE(progress, 3 * k + 3) << "light epoch " << k;
  }
  EXPECT_GT(result.rounds, 30u);  // the light tenant needed >1 round/epoch
}

TEST(TenantScheduler, WeightsDoNotChangeAnyTenantsBytes) {
  // Same fleet, weights 1/1 vs 3/1: scheduling changes, bytes do not.
  TenantFixture a = make_tenant("a", "braess", "replicator",
                                "closed-loop:500", 200, 2, 7);
  TenantFixture b = make_tenant("b", "links", "alpha:0.5", "poisson:4000",
                                400, 4, 9);
  const auto even = run_fleet({&a, &b}, 2);
  a.options.weight = 3;
  const auto skewed = run_fleet({&a, &b}, 2);
  expect_identical(even.at("a"), skewed.at("a"), "a");
  expect_identical(even.at("b"), skewed.at("b"), "b");
}

// ------------------------------------------------------------- registry API

TEST(TenantRegistry, ValidatesNamesWeightsAndEmptiness) {
  const TenantFixture tenant = watched_tenant();
  TenantRegistry registry;
  Executor executor(1);
  EXPECT_THROW(registry.run(executor), std::invalid_argument);  // empty

  EXPECT_THROW(registry.add("", tenant.instance, tenant.policy,
                            *tenant.workload, tenant.options),
               std::invalid_argument);
  EXPECT_THROW(registry.add("bad name", tenant.instance, tenant.policy,
                            *tenant.workload, tenant.options),
               std::invalid_argument);
  EXPECT_THROW(registry.add("semi;colon", tenant.instance, tenant.policy,
                            *tenant.workload, tenant.options),
               std::invalid_argument);

  registry.add("ok", tenant.instance, tenant.policy, *tenant.workload,
               tenant.options);
  EXPECT_THROW(registry.add("ok", tenant.instance, tenant.policy,
                            *tenant.workload, tenant.options),
               std::invalid_argument);  // duplicate

  TenantOptions zero_weight = tenant.options;
  zero_weight.weight = 0;
  EXPECT_THROW(registry.add("w0", tenant.instance, tenant.policy,
                            *tenant.workload, zero_weight),
               std::invalid_argument);

  TenantOptions bad_server = tenant.options;
  bad_server.server.epochs = 0;
  registry.add("bad", tenant.instance, tenant.policy, *tenant.workload,
               bad_server);
  EXPECT_THROW(registry.run(executor), std::invalid_argument);
}

TEST(TenantRegistry, NamesTenantsInRegistrationOrder) {
  const TenantFixture a = watched_tenant();
  const TenantFixture b = make_tenant("b", "links", "replicator",
                                      "closed-loop:100", 100, 1, 3,
                                      /*weight=*/1, /*epochs=*/5);
  TenantRegistry registry;
  registry.add(a.name, a.instance, a.policy, *a.workload, a.options);
  registry.add(b.name, b.instance, b.policy, *b.workload, b.options);
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_EQ(registry.name(0), "watched");
  EXPECT_EQ(registry.name(1), "b");
  EXPECT_THROW(registry.name(2), std::out_of_range);
}

TEST(TenantRegistry, RerunRebuildsFromScratch) {
  const TenantFixture tenant = watched_tenant();
  TenantRegistry registry;
  registry.add(tenant.name, tenant.instance, tenant.policy,
               *tenant.workload, tenant.options);
  Executor executor(2);
  const Fingerprint first =
      fingerprint(registry.run(executor).tenants[0].server);
  const Fingerprint second =
      fingerprint(registry.run(executor).tenants[0].server);
  expect_identical(first, second, "rerun");
}

}  // namespace
}  // namespace staleflow
