// Pinned golden digests of the platform-stable service configurations
// (closed-loop workloads on braess / uniform-links avoid libm in the
// dynamics), healthy and under deterministic fault injection, plus one
// bursty run pinned for glibc x86-64 (its arrivals draw through libm).
// The values live in golden_digests.h; cli_test.cpp checks that
// `route_server_cli run --deterministic` prints the same digests for
// these configs. Here every one is checked at 1 and 4 threads, so any
// change to execution (threads, pool, task graph) that reaches the values
// fails tier-1. The two service-sweep digests are what `sweep_cli run
// --simulator service` prints for its configs, checked at 1 and 2
// threads. The 5000-epoch solo digest is pinned through a real WAL:
// logged, cut mid-record, recovered and resumed, as a crashed
// route_server_cli run is. Two crash images written by the retired
// pipelined schedule (tests/data/) recover and resume to the solo and
// trio digests, their cuts field for field those of a fresh run.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "exec/exec.h"
#include "faults/faults.h"
#include "golden_digests.h"
#include "recovery/recovery.h"
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

constexpr std::size_t kThreads[] = {1, 4};

/// `route_server_cli run --scenario braess --policy replicator --period
/// 0.1 --epochs 20 --clients 2000 --workload closed-loop:4000 --shards 8
/// --seed 1 --deterministic`.
const Config kSolo = {"", "braess", "closed-loop:4000", 2000, 8, 1, 1,
                      golden::kSolo};
constexpr std::size_t kSoloEpochs = 20;

/// The same CLI with --epochs 15 --clients 2000 --shards 8 --seed 1 and
/// --tenants 'small:workload=closed-loop:500,clients=500,shards=2;
/// big:workload=closed-loop:4000,weight=2;links:scenario=uniform-links-8,
/// workload=closed-loop:1500,clients=1000,shards=4,seed=9'. A tenant
/// without seed= gets --seed + its position.
const std::vector<Config> kTrio = {
    {"small", "braess", "closed-loop:500", 500, 2, 1, 1, golden::kTrioSmall},
    {"big", "braess", "closed-loop:4000", 2000, 8, 2, 2, golden::kTrioBig},
    {"links", "uniform-links-8", "closed-loop:1500", 1000, 4, 9, 1,
     golden::kTrioLinks},
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

std::string label(std::size_t threads) {
  return std::to_string(threads) + " threads";
}

TEST(Golden, SoloRouteServer) {
  for (const std::size_t threads : kThreads) {
    Host host(kSolo, kSoloEpochs);
    host.options.threads = threads;
    RouteServer server(host.instance, host.policy, *host.workload);
    const RouteServerResult result =
        server.run(FlowVector::uniform(host.instance), host.options);
    EXPECT_EQ(telemetry_digest(result.epochs), kSolo.digest)
        << label(threads);
  }
}

/// `route_server_cli run --scenario braess --policy replicator --period
/// 0.1 --epochs 20 --clients 2000 --workload bursty:40000,2000,3,2
/// --shards 8 --sub-batch 250 --seed 1 --deterministic`: a skewed load
/// whose on-peak shards each split into many sub-batch tasks.
const Config kBursty = {"", "braess", "bursty:40000,2000,3,2", 2000, 8,
                        1,  1,        golden::kBursty};
constexpr std::size_t kBurstySubBatch = 250;

TEST(Golden, BurstySkewSplitIntoSubBatches) {
#if defined(__GLIBC__) && defined(__x86_64__)
  for (const std::size_t threads : kThreads) {
    Host host(kBursty, kSoloEpochs);
    host.options.threads = threads;
    host.options.sub_batch_queries = kBurstySubBatch;
    RouteServer server(host.instance, host.policy, *host.workload);
    const RouteServerResult result =
        server.run(FlowVector::uniform(host.instance), host.options);
    EXPECT_EQ(telemetry_digest(result.epochs), kBursty.digest)
        << label(threads);
  }
#else
  GTEST_SKIP() << "the bursty arrivals draw through libm, so this digest "
                  "is pinned for glibc on x86-64 only";
#endif
}

/// The solo config under `--faults <spec>`. Brownout sheds floor(total *
/// shed) arrivals, so no libm call reaches the dynamics and the digests
/// stay platform-stable.
struct Chaos {
  const char* spec;
  std::uint64_t digest;
};

constexpr Chaos kChaos[] = {
    // Half of every epoch's arrivals shed for epochs 5..10.
    {"brownout:shed=0.5,at=5,for=6", golden::kSoloBrownout},
    // Wall-clock-only faults keep the healthy digest.
    {"slow:shard=1,us=50,at=2,for=3;drop-telemetry:at=5,for=2;"
     "stall:workers=2,ms=10,at=0,for=3",
     golden::kSolo},
};

TEST(Golden, SoloChaos) {
  for (const Chaos& chaos : kChaos) {
    for (const std::size_t threads : kThreads) {
      Host host(kSolo, kSoloEpochs);
      const faults::FaultSchedule plan = faults::FaultSchedule::materialize(
          faults::parse_fault_plan(chaos.spec), kSolo.seed, kSoloEpochs);
      host.options.threads = threads;
      host.options.faults = &plan;
      RouteServer server(host.instance, host.policy, *host.workload);
      const RouteServerResult result =
          server.run(FlowVector::uniform(host.instance), host.options);
      EXPECT_EQ(telemetry_digest(result.epochs), chaos.digest)
          << chaos.spec << ", " << label(threads);
    }
  }
}

TEST(Golden, ThreeTenantRegistry) {
  for (const std::size_t threads : kThreads) {
    std::deque<Host> hosts;  // stable addresses: the registry borrows them
    TenantRegistry registry;
    for (const Config& config : kTrio) {
      Host& host = hosts.emplace_back(config, kTrioEpochs);
      TenantOptions options;
      options.server = host.options;
      options.weight = config.weight;
      registry.add(config.name, host.instance, host.policy, *host.workload,
                   options);
    }
    Executor executor(threads);
    const MultiTenantResult result = registry.run(executor);
    ASSERT_EQ(result.tenants.size(), kTrio.size()) << label(threads);
    for (std::size_t i = 0; i < kTrio.size(); ++i) {
      EXPECT_EQ(result.tenants[i].name, kTrio[i].name);
      EXPECT_EQ(telemetry_digest(result.tenants[i].server.epochs),
                kTrio[i].digest)
          << kTrio[i].name << ", " << label(threads);
    }
  }
}

/// The solo config at `--epochs 5000 --wal <path>`, served as
/// route_server_cli serves it: a one-tenant registry ("run"), every round
/// logged through WalLog.
constexpr std::size_t kLongEpochs = 5000;

/// Serves the long solo run on `threads`, logging to `wal`; resumes the
/// run recovered from `wal` when `recovered` is set. Returns the digest.
std::uint64_t serve_logged(const std::string& wal, std::size_t threads,
                           const recovery::RecoveredRun* recovered) {
  Host host(kSolo, kLongEpochs);
  TenantOptions options;
  options.server = host.options;
  TenantRegistry registry;
  registry.add("run", host.instance, host.policy, *host.workload, options);

  std::optional<recovery::WalLog> log;
  std::optional<RegistryResume> resume;
  if (recovered != nullptr) {
    log.emplace(wal, *recovered);
    resume = recovery::registry_resume(*recovered);
  } else {
    recovery::RunManifest manifest;
    manifest.tenants.push_back(
        {"", kSolo.scenario, "replicator", kSolo.workload, host.options, 1});
    log.emplace(wal, manifest);
  }
  Executor executor(threads);
  const MultiTenantResult result = registry.run(
      executor, nullptr, log->round_observer(), resume ? &*resume : nullptr);
  log->finish();
  return telemetry_digest(result.tenants.front().server.epochs);
}

TEST(Golden, LongSoloWalCutMidRecordResumes) {
  const std::string wal = ::testing::TempDir() + "staleflow_golden_long.wal";
  EXPECT_EQ(serve_logged(wal, 1, nullptr), golden::kLongSolo);

  // A crash image: the log amputated mid-record near its midpoint.
  const std::uintmax_t size = std::filesystem::file_size(wal);
  std::filesystem::resize_file(wal, size / 2);
  const recovery::RecoveredRun recovered = recovery::recover_wal(wal);
  EXPECT_TRUE(recovered.truncated);
  EXPECT_FALSE(recovered.clean_shutdown);
  ASSERT_GT(recovered.cuts[0].size(), 0u);
  ASSERT_LT(recovered.cuts[0].size(), kLongEpochs);

  EXPECT_EQ(serve_logged(wal, 4, &recovered), golden::kLongSolo);
  const recovery::RecoveredRun healed = recovery::recover_wal(wal);
  EXPECT_TRUE(healed.clean_shutdown);
  EXPECT_FALSE(healed.truncated);
  ASSERT_EQ(healed.digests.size(), 1u);
  EXPECT_EQ(healed.digests[0], golden::kLongSolo);
  std::filesystem::remove(wal);
}

/// A crash image written by the retired pipelined schedule, checked in
/// under tests/data/: `route_server_cli run` of `configs` at `epochs`
/// with `--wal` and `--faults crash:at=<rounds>`. Its first round mark
/// commits no cut and every later cut commits one round late.
struct PipelinedImage {
  const char* file;
  const std::vector<Config>* configs;
  std::size_t epochs;
  std::size_t rounds;
};

const std::vector<Config> kSoloConfigs = {kSolo};

/// Builds `configs` into a registry as route_server_cli does; `hosts`
/// holds what the registry borrows.
TenantRegistry make_registry(const std::vector<Config>& configs,
                             std::size_t epochs, std::deque<Host>& hosts) {
  TenantRegistry registry;
  for (const Config& config : configs) {
    Host& host = hosts.emplace_back(config, epochs);
    TenantOptions options;
    options.server = host.options;
    options.weight = config.weight;
    registry.add(config.name.empty() ? "run" : config.name, host.instance,
                 host.policy, *host.workload, options);
  }
  return registry;
}

TEST(Golden, PipelinedCrashImagesRecoverAndResume) {
  const PipelinedImage images[] = {
      {"solo-pipelined-crash.wal", &kSoloConfigs, kSoloEpochs, 10},
      {"trio-pipelined-crash.wal", &kTrio, kTrioEpochs, 8},
  };
  for (const PipelinedImage& image : images) {
    SCOPED_TRACE(image.file);
    const std::vector<Config>& configs = *image.configs;
    const std::string source = std::string(STALEFLOW_TEST_DATA) + "/" +
                               image.file;
    const recovery::RecoveredRun recovered = recovery::recover_wal(source);
    EXPECT_TRUE(recovered.manifest.pipeline);
    EXPECT_FALSE(recovered.clean_shutdown);
    EXPECT_FALSE(recovered.truncated);
    EXPECT_EQ(recovered.rounds, image.rounds);
    ASSERT_EQ(recovered.cuts.size(), configs.size());

    // Every recovered cut is, field for field, the cut a fresh run takes
    // at the same epoch.
    std::vector<std::vector<EngineCheckpoint>> fresh(configs.size());
    {
      std::deque<Host> hosts;
      TenantRegistry registry = make_registry(configs, image.epochs, hosts);
      Executor executor(1);
      registry.run(executor, nullptr, [&fresh](const RoundCheckpoint& round) {
        for (const auto& [tenant, cut] : round.cuts) {
          fresh[tenant].push_back(cut);
        }
      });
    }
    for (std::size_t t = 0; t < configs.size(); ++t) {
      const std::vector<EngineCheckpoint>& cuts = recovered.cuts[t];
      ASSERT_FALSE(cuts.empty()) << configs[t].name;
      ASSERT_LE(cuts.size(), fresh[t].size()) << configs[t].name;
      for (std::size_t e = 0; e < cuts.size(); ++e) {
        const EngineCheckpoint& a = cuts[e];
        const EngineCheckpoint& b = fresh[t][e];
        EXPECT_EQ(telemetry_digest(std::span(&a.summary, 1)),
                  telemetry_digest(std::span(&b.summary, 1)))
            << configs[t].name << " cut " << e;
        EXPECT_EQ(a.rng_state, b.rng_state) << configs[t].name << " cut " << e;
        EXPECT_EQ(a.flow, b.flow) << configs[t].name << " cut " << e;
        EXPECT_TRUE(a.route_hist == b.route_hist)
            << configs[t].name << " cut " << e;
      }
      EXPECT_EQ(cuts.back().client_paths,
                fresh[t][cuts.size() - 1].client_paths)
          << configs[t].name;
    }

    // Resumed on a copy, at 1 and 4 threads: the pinned digests.
    for (const std::size_t threads : kThreads) {
      const std::string wal = ::testing::TempDir() + "staleflow_golden_" +
                              std::to_string(threads) + "_" + image.file;
      std::filesystem::copy_file(
          source, wal, std::filesystem::copy_options::overwrite_existing);
      std::deque<Host> hosts;
      TenantRegistry registry = make_registry(configs, image.epochs, hosts);
      recovery::WalLog log(wal, recovered);
      const RegistryResume resume = recovery::registry_resume(recovered);
      Executor executor(threads);
      const MultiTenantResult result =
          registry.run(executor, nullptr, log.round_observer(), &resume);
      log.finish();
      ASSERT_EQ(result.tenants.size(), configs.size());
      for (std::size_t t = 0; t < configs.size(); ++t) {
        EXPECT_EQ(telemetry_digest(result.tenants[t].server.epochs),
                  configs[t].digest)
            << configs[t].name << ", " << label(threads);
      }
      const recovery::RecoveredRun healed = recovery::recover_wal(wal);
      EXPECT_TRUE(healed.clean_shutdown) << label(threads);
      std::filesystem::remove(wal);
    }
  }
}

/// `sweep_cli run --simulator service --scenarios braess --policies
/// replicator --periods 0.1 --horizon 2 --replicas 2 --workloads
/// closed-loop:2000 --clients 2000` plus the listed shard and fault axes.
struct SweepConfig {
  const char* name;
  std::vector<std::size_t> shards;
  std::vector<std::string> faults;
  std::uint64_t digest;  // pinned cells_digest of the sweep
};

const SweepConfig kSweeps[] = {
    {"service sweep (--shards 1,4)", {1, 4}, {}, golden::kServiceSweep},
    {"chaos sweep (--shards 4 --faults 'none;brownout:...')",
     {4},
     {"none", "brownout:shed=0.5,at=3,for=5"},
     golden::kChaosSweep},
};

TEST(Golden, ServiceSweep) {
  for (const SweepConfig& config : kSweeps) {
    ExperimentSpec spec;
    spec.simulator = SimulatorKind::kService;
    spec.scenarios = {"braess"};
    spec.policies = {named_policy("replicator")};
    spec.update_periods = {0.1};
    spec.horizon = 2.0;
    spec.replicas = 2;
    spec.workloads = {"closed-loop:2000"};
    spec.shard_counts = config.shards;
    spec.fault_specs = config.faults;
    spec.num_clients = 2000;
    for (const std::size_t threads : {1, 2}) {
      const SweepResult result = SweepRunner().run(spec, threads);
      EXPECT_EQ(cells_digest(result), config.digest)
          << config.name << ", " << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace staleflow
