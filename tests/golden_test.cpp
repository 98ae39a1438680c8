// Pinned golden digests of the platform-stable service configurations
// (closed-loop workloads on braess / uniform-links avoid libm in the
// dynamics). The same digests are what `route_server_cli run
// --deterministic` prints for these configs; here every one is checked
// at 1 and 4 threads under the strict and the pipelined schedule, so
// any change to execution (threads, pool, task graph, pipelining) that
// reaches the values fails tier-1.
//
// Runs under `ctest -L golden` in the sanitizer CI job.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "exec/exec.h"
#include "service/service.h"
#include "sweep/sweep.h"

namespace staleflow {
namespace {

/// One served instance, resolved the way route_server_cli resolves its
/// flags: policy replicator, period 0.1, --deterministic, library
/// defaults for everything not listed.
struct Config {
  std::string name;  // tenant name; empty for a solo server
  std::string scenario;
  std::string workload;
  std::size_t clients;
  std::size_t shards;
  std::uint64_t seed;
  std::size_t weight;
  std::uint64_t digest;  // pinned telemetry_digest of the run
};

struct Schedule {
  std::size_t threads;
  bool pipeline;
};

constexpr Schedule kSchedules[] = {
    {1, false}, {1, true}, {4, false}, {4, true}};

/// `route_server_cli run --scenario braess --policy replicator --period
/// 0.1 --epochs 20 --clients 2000 --workload closed-loop:4000 --shards 8
/// --seed 1 --deterministic`.
const Config kSolo = {"",     "braess", "closed-loop:4000", 2000, 8, 1, 1,
                      0xa1dacc4addb92e51ULL};
constexpr std::size_t kSoloEpochs = 20;

/// The same CLI with --epochs 15 --clients 2000 --shards 8 --seed 1 and
/// --tenants 'small:workload=closed-loop:500,clients=500,shards=2;
/// big:workload=closed-loop:4000,weight=2;links:scenario=uniform-links-8,
/// workload=closed-loop:1500,clients=1000,shards=4,seed=9'. A tenant
/// without seed= gets --seed + its position.
const std::vector<Config> kTrio = {
    {"small", "braess", "closed-loop:500", 500, 2, 1, 1,
     0x7de48e376f181577ULL},
    {"big", "braess", "closed-loop:4000", 2000, 8, 2, 2,
     0xcd28849b09fd0742ULL},
    {"links", "uniform-links-8", "closed-loop:1500", 1000, 4, 9, 1,
     0xc3150d3447f1efddULL},
};
constexpr std::size_t kTrioEpochs = 15;

/// Instance, policy and workload built as route_server_cli builds them:
/// the scenario is drawn from Rng(seed).
struct Host {
  Instance instance;
  Policy policy;
  WorkloadPtr workload;
  RouteServerOptions options;

  Host(const Config& config, std::size_t epochs)
      : instance(make_instance(config)),
        policy(named_policy("replicator").make(instance, 0.1)),
        workload(make_workload(config.workload)) {
    options.update_period = 0.1;
    options.epochs = epochs;
    options.num_clients = config.clients;
    options.shards = config.shards;
    options.seed = config.seed;
    options.record_latency = false;
  }

  static Instance make_instance(const Config& config) {
    Rng rng(config.seed);
    return ScenarioRegistry::builtin().at(config.scenario).make(rng);
  }
};

std::string label(const Schedule& schedule) {
  return std::to_string(schedule.threads) + " threads, " +
         (schedule.pipeline ? "pipelined" : "strict");
}

TEST(Golden, SoloRouteServer) {
  for (const Schedule& schedule : kSchedules) {
    Host host(kSolo, kSoloEpochs);
    host.options.threads = schedule.threads;
    host.options.pipeline = schedule.pipeline;
    RouteServer server(host.instance, host.policy, *host.workload);
    const RouteServerResult result =
        server.run(FlowVector::uniform(host.instance), host.options);
    EXPECT_EQ(telemetry_digest(result.epochs), kSolo.digest)
        << label(schedule);
  }
}

TEST(Golden, ThreeTenantRegistry) {
  for (const Schedule& schedule : kSchedules) {
    std::deque<Host> hosts;  // stable addresses: the registry borrows them
    TenantRegistry registry;
    for (const Config& config : kTrio) {
      Host& host = hosts.emplace_back(config, kTrioEpochs);
      TenantOptions options;
      options.server = host.options;
      options.server.pipeline = schedule.pipeline;
      options.weight = config.weight;
      registry.add(config.name, host.instance, host.policy, *host.workload,
                   options);
    }
    Executor executor(schedule.threads);
    const MultiTenantResult result = registry.run(executor);
    ASSERT_EQ(result.tenants.size(), kTrio.size()) << label(schedule);
    for (std::size_t i = 0; i < kTrio.size(); ++i) {
      EXPECT_EQ(result.tenants[i].name, kTrio[i].name);
      EXPECT_EQ(telemetry_digest(result.tenants[i].server.epochs),
                kTrio[i].digest)
          << kTrio[i].name << ", " << label(schedule);
    }
  }
}

}  // namespace
}  // namespace staleflow
