// Tests for the sweep subsystem: scenario registry, grid
// expansion (including the service simulator's workload x shard axes),
// aggregation, and the 1-thread vs 4-thread determinism contract with a
// pinned golden digest for a service sweep.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "cli_common.h"
#include "equilibrium/potential.h"
#include "net/flow.h"
#include "net/generators.h"
#include "sweep/sweep.h"

namespace staleflow {
namespace {

// ---------------------------------------------------------- ScenarioRegistry

TEST(ScenarioRegistry, BuiltinHasKnownScenarios) {
  const ScenarioRegistry registry = ScenarioRegistry::builtin();
  EXPECT_GE(registry.size(), 10u);
  EXPECT_TRUE(registry.contains("two-link-pulse"));
  EXPECT_TRUE(registry.contains("braess"));
  EXPECT_TRUE(registry.contains("grid-3x3"));
  EXPECT_FALSE(registry.contains("no-such-scenario"));
  EXPECT_THROW(registry.at("no-such-scenario"), std::out_of_range);
}

TEST(ScenarioRegistry, FactoriesAreDeterministicGivenSeed) {
  const ScenarioRegistry registry = ScenarioRegistry::builtin();
  for (const std::string& name : registry.names()) {
    Rng a(123), b(123);
    const Instance first = registry.at(name).make(a);
    const Instance second = registry.at(name).make(b);
    EXPECT_EQ(first.path_count(), second.path_count()) << name;
    // Same structure and same latency landscape: evaluate at uniform flow.
    const FlowVector flow = FlowVector::uniform(first);
    EXPECT_DOUBLE_EQ(potential(first, flow.values()),
                     potential(second, flow.values()))
        << name;
  }
}

TEST(ScenarioRegistry, RejectsDuplicatesAndBadEntries) {
  ScenarioRegistry registry;
  registry.add({"x", "", [](Rng&) { return braess(); }});
  EXPECT_THROW(registry.add({"x", "", [](Rng&) { return braess(); }}),
               std::invalid_argument);
  EXPECT_THROW(registry.add({"", "", [](Rng&) { return braess(); }}),
               std::invalid_argument);
  EXPECT_THROW(registry.add({"y", "", nullptr}), std::invalid_argument);
}

// ------------------------------------------------------------- named_policy

TEST(NamedPolicy, ParsesTheFullGrammar) {
  const Instance instance = braess();
  for (const char* name : {"replicator", "uniform-linear", "alpha:0.5",
                           "logit:10", "naive", "relative-slack",
                           "relative-slack:0.25", "safe"}) {
    const PolicySpec spec = named_policy(name);
    EXPECT_EQ(spec.name, name);
    const Policy policy = spec.make(instance, 0.1);
    EXPECT_FALSE(policy.name().empty());
  }
}

TEST(NamedPolicy, RejectsUnknownAndMalformed) {
  EXPECT_THROW(named_policy("no-such-policy"), std::invalid_argument);
  EXPECT_THROW(named_policy("alpha"), std::invalid_argument);
  EXPECT_THROW(named_policy("alpha:zero"), std::invalid_argument);
  EXPECT_THROW(named_policy("alpha:-1"), std::invalid_argument);
  EXPECT_THROW(named_policy("logit"), std::invalid_argument);
}

// ------------------------------------------------------------------- expand

ExperimentSpec small_spec() {
  ExperimentSpec spec;
  spec.scenarios = {"braess", "uniform-links-8"};
  spec.policies = {named_policy("replicator"), named_policy("alpha:0.5")};
  spec.update_periods = {0.05, 0.1};
  spec.replicas = 2;
  spec.horizon = 10.0;
  return spec;
}

TEST(Expand, CartesianProductInCanonicalOrder) {
  const ScenarioRegistry registry = ScenarioRegistry::builtin();
  const ExperimentSpec spec = small_spec();
  const std::vector<CellSpec> cells = expand(spec, registry);

  ASSERT_EQ(cells.size(), cell_count(spec));
  ASSERT_EQ(cells.size(), 2u * 2u * 2u * 2u);

  // Indices are positions; order is scenario-major, then policy, period,
  // replica.
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].index, i);
  }
  EXPECT_EQ(cells[0].scenario, "braess");
  EXPECT_EQ(cells[0].policy, "replicator");
  EXPECT_DOUBLE_EQ(cells[0].update_period, 0.05);
  EXPECT_EQ(cells[0].replica, 0u);
  EXPECT_EQ(cells[1].replica, 1u);
  EXPECT_DOUBLE_EQ(cells[2].update_period, 0.1);
  EXPECT_EQ(cells[4].policy, "alpha:0.5");
  EXPECT_EQ(cells[8].scenario, "uniform-links-8");

  // Every combination appears exactly once.
  std::set<std::string> combos;
  for (const CellSpec& cell : cells) {
    std::ostringstream key;
    key << cell.scenario << '|' << cell.policy << '|' << cell.update_period
        << '|' << cell.replica;
    EXPECT_TRUE(combos.insert(key.str()).second);
  }
}

TEST(Expand, ValidatesTheSpec) {
  const ScenarioRegistry registry = ScenarioRegistry::builtin();

  ExperimentSpec spec = small_spec();
  spec.scenarios.clear();
  EXPECT_THROW(expand(spec, registry), std::invalid_argument);

  spec = small_spec();
  spec.scenarios.push_back("no-such-scenario");
  EXPECT_THROW(expand(spec, registry), std::out_of_range);

  spec = small_spec();
  spec.scenarios.push_back("braess");  // duplicate
  EXPECT_THROW(expand(spec, registry), std::invalid_argument);

  spec = small_spec();
  spec.policies.clear();
  EXPECT_THROW(expand(spec, registry), std::invalid_argument);

  spec = small_spec();
  spec.policies.push_back(named_policy("replicator"));  // duplicate
  EXPECT_THROW(expand(spec, registry), std::invalid_argument);

  spec = small_spec();
  spec.update_periods = {0.1, 0.0};
  EXPECT_THROW(expand(spec, registry), std::invalid_argument);

  spec = small_spec();
  spec.replicas = 0;
  EXPECT_THROW(expand(spec, registry), std::invalid_argument);

  spec = small_spec();
  spec.horizon = 0.0;
  EXPECT_THROW(expand(spec, registry), std::invalid_argument);
}

// ------------------------------------------------------- service expansion

ExperimentSpec service_spec() {
  ExperimentSpec spec;
  spec.simulator = SimulatorKind::kService;
  spec.scenarios = {"braess"};
  spec.policies = {named_policy("replicator")};
  spec.update_periods = {0.1};
  spec.workloads = {"closed-loop:2000", "poisson:20000"};
  spec.shard_counts = {1, 4};
  spec.num_clients = 2000;
  spec.replicas = 2;
  spec.horizon = 2.0;  // 20 epochs per cell
  return spec;
}

TEST(ParseSimulatorKind, RoundTripsAllKindsAndRejectsUnknown) {
  for (const auto kind :
       {SimulatorKind::kFluid, SimulatorKind::kRound, SimulatorKind::kAgent,
        SimulatorKind::kService}) {
    EXPECT_EQ(parse_simulator_kind(to_string(kind)), kind);
  }
  EXPECT_THROW(parse_simulator_kind("svc"), std::invalid_argument);
  EXPECT_THROW(parse_simulator_kind(""), std::invalid_argument);
  EXPECT_THROW(parse_simulator_kind("SERVICE"), std::invalid_argument);
  // The error carries the catalogue, so the CLI's usage text is useful.
  try {
    parse_simulator_kind("nope");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("service"), std::string::npos);
  }
}

TEST(Expand, ServiceAxesMultiplyTheGridInCanonicalOrder) {
  const ScenarioRegistry registry = ScenarioRegistry::builtin();
  const ExperimentSpec spec = service_spec();
  const std::vector<CellSpec> cells = expand(spec, registry);

  // 1 scenario x 1 policy x 1 period x 2 workloads x 2 shard counts x 2
  // replicas.
  ASSERT_EQ(cells.size(), cell_count(spec));
  ASSERT_EQ(cells.size(), 8u);
  // Order: workload-major over shard counts, then replicas.
  EXPECT_EQ(cells[0].workload, "closed-loop:2000");
  EXPECT_EQ(cells[0].shards, 1u);
  EXPECT_EQ(cells[0].replica, 0u);
  EXPECT_EQ(cells[1].replica, 1u);
  EXPECT_EQ(cells[2].shards, 4u);
  EXPECT_EQ(cells[4].workload, "poisson:20000");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].index, i);
  }
}

TEST(Expand, NonServiceCellsCarryNoServiceAxes) {
  const ScenarioRegistry registry = ScenarioRegistry::builtin();
  const std::vector<CellSpec> cells = expand(small_spec(), registry);
  for (const CellSpec& cell : cells) {
    EXPECT_TRUE(cell.workload.empty());
    EXPECT_EQ(cell.shards, 0u);
    EXPECT_EQ(cell.tenants, 0u);
  }
}

TEST(Expand, TenantAxisMultipliesAndDefaultsToOne) {
  const ScenarioRegistry registry = ScenarioRegistry::builtin();

  // Omitted axis: every service cell is a plain single-tenant cell.
  ExperimentSpec spec = service_spec();
  for (const CellSpec& cell : expand(spec, registry)) {
    EXPECT_EQ(cell.tenants, 1u);
  }

  // Explicit axis: innermost but for replicas, canonical order.
  spec.workloads = {"closed-loop:2000"};
  spec.shard_counts = {4};
  spec.tenant_counts = {1, 3};
  const std::vector<CellSpec> cells = expand(spec, registry);
  ASSERT_EQ(cells.size(), cell_count(spec));
  ASSERT_EQ(cells.size(), 4u);  // 2 tenant counts x 2 replicas
  EXPECT_EQ(cells[0].tenants, 1u);
  EXPECT_EQ(cells[0].replica, 0u);
  EXPECT_EQ(cells[1].tenants, 1u);
  EXPECT_EQ(cells[1].replica, 1u);
  EXPECT_EQ(cells[2].tenants, 3u);
  EXPECT_EQ(cells[3].tenants, 3u);
}

TEST(Expand, RejectsServiceAxesUnderOtherSimulators) {
  const ScenarioRegistry registry = ScenarioRegistry::builtin();
  // Workload, shard or tenant axes handed to fluid/round/agent are
  // mis-addressed configuration — rejected, never silently ignored.
  for (const auto kind : {SimulatorKind::kFluid, SimulatorKind::kRound,
                          SimulatorKind::kAgent}) {
    ExperimentSpec spec = small_spec();
    spec.simulator = kind;
    spec.workloads = {"poisson:100"};
    EXPECT_THROW(expand(spec, registry), std::invalid_argument);

    spec = small_spec();
    spec.simulator = kind;
    spec.shard_counts = {4};
    EXPECT_THROW(expand(spec, registry), std::invalid_argument);

    spec = small_spec();
    spec.simulator = kind;
    spec.tenant_counts = {2};
    EXPECT_THROW(expand(spec, registry), std::invalid_argument);
  }
}

TEST(Expand, ValidatesTheServiceSpec) {
  const ScenarioRegistry registry = ScenarioRegistry::builtin();

  ExperimentSpec spec = service_spec();
  spec.workloads.clear();
  EXPECT_THROW(expand(spec, registry), std::invalid_argument);

  spec = service_spec();
  spec.workloads = {"poison:500"};  // typo: unknown workload kind
  EXPECT_THROW(expand(spec, registry), std::invalid_argument);

  spec = service_spec();
  spec.workloads.push_back(spec.workloads.front());  // duplicate
  EXPECT_THROW(expand(spec, registry), std::invalid_argument);

  spec = service_spec();
  spec.shard_counts.clear();
  EXPECT_THROW(expand(spec, registry), std::invalid_argument);

  spec = service_spec();
  spec.shard_counts = {0, 4};  // zero-shard cell
  EXPECT_THROW(expand(spec, registry), std::invalid_argument);

  spec = service_spec();
  spec.shard_counts = {4, 4};  // duplicate
  EXPECT_THROW(expand(spec, registry), std::invalid_argument);

  spec = service_spec();
  spec.shard_counts = {spec.num_clients + 1};  // more shards than clients
  EXPECT_THROW(expand(spec, registry), std::invalid_argument);

  spec = service_spec();
  spec.tenant_counts = {0, 2};  // zero-tenant cell
  EXPECT_THROW(expand(spec, registry), std::invalid_argument);

  spec = service_spec();
  spec.tenant_counts = {2, 2};  // duplicate
  EXPECT_THROW(expand(spec, registry), std::invalid_argument);

  spec = service_spec();
  spec.sub_batch_queries = 0;  // invalid fixed threshold...
  EXPECT_THROW(expand(spec, registry), std::invalid_argument);
  spec.sub_batch_auto = true;  // ...unless auto mode ignores it
  EXPECT_NO_THROW(expand(spec, registry));
}

// ------------------------------------------------------------------- runner

TEST(SweepRunner, RunsEveryCellAndConvergesOnEasyInstances) {
  ExperimentSpec spec = small_spec();
  spec.horizon = 50.0;
  const SweepRunner runner;
  const SweepResult result = runner.run(spec, 1);

  ASSERT_EQ(result.cells.size(), cell_count(spec));
  for (const CellResult& cell : result.cells) {
    EXPECT_TRUE(cell.ok) << cell.error;
    EXPECT_GT(cell.phases, 0u);
    EXPECT_GT(cell.paths, 0u);
    EXPECT_GE(cell.final_gap, 0.0);
    // Smooth policies on these benign instances must make clear progress
    // toward equilibrium within the horizon (the gentle alpha:0.5 policy
    // is the slowest of the grid; uniform initial gaps are O(0.1..1)).
    EXPECT_LT(cell.final_gap, 0.05)
        << cell.cell.scenario << " / " << cell.cell.policy;
  }
}

TEST(SweepRunner, CellErrorsAreRecordedNotThrown) {
  ScenarioRegistry registry;
  registry.add({"ok", "", [](Rng&) { return braess(); }});
  registry.add({"broken", "", [](Rng&) -> Instance {
                  throw std::runtime_error("generator exploded");
                }});

  ExperimentSpec spec;
  spec.scenarios = {"ok", "broken"};
  spec.policies = {named_policy("replicator")};
  spec.update_periods = {0.1};
  spec.horizon = 5.0;

  const SweepRunner runner(std::move(registry));
  const SweepResult result = runner.run(spec, 2);
  ASSERT_EQ(result.cells.size(), 2u);
  EXPECT_TRUE(result.cells[0].ok);
  EXPECT_FALSE(result.cells[1].ok);
  EXPECT_NE(result.cells[1].error.find("generator exploded"),
            std::string::npos);
}

TEST(SweepRunner, RoundAndAgentSimulatorsRun) {
  ExperimentSpec spec;
  spec.scenarios = {"braess"};
  spec.policies = {named_policy("uniform-linear")};
  spec.update_periods = {0.1};
  spec.horizon = 5.0;

  const SweepRunner runner;
  spec.simulator = SimulatorKind::kRound;
  SweepResult rounds = runner.run(spec, 1);
  ASSERT_EQ(rounds.cells.size(), 1u);
  EXPECT_TRUE(rounds.cells[0].ok) << rounds.cells[0].error;
  EXPECT_GT(rounds.cells[0].phases, 0u);
  // A period of more rounds than size_t holds saturates instead of an
  // undefined cast: the board just never refreshes within the horizon.
  spec.update_periods = {1e300};
  rounds = runner.run(spec, 1);
  EXPECT_TRUE(rounds.cells[0].ok) << rounds.cells[0].error;
  spec.update_periods = {0.1};

  spec.simulator = SimulatorKind::kAgent;
  spec.num_agents = 500;
  SweepResult agents = runner.run(spec, 1);
  ASSERT_EQ(agents.cells.size(), 1u);
  EXPECT_TRUE(agents.cells[0].ok) << agents.cells[0].error;
  EXPECT_GT(agents.cells[0].phases, 0u);
}

TEST(SweepRunner, ServiceCellsServeTheWorkloadAndFillServiceMetrics) {
  const ExperimentSpec spec = service_spec();
  const SweepRunner runner;
  const SweepResult result = runner.run(spec, 2);

  ASSERT_EQ(result.cells.size(), 8u);
  EXPECT_EQ(result.simulator, SimulatorKind::kService);
  for (const CellResult& cell : result.cells) {
    ASSERT_TRUE(cell.ok) << cell.error;
    // horizon 2.0 / T 0.1 = 20 epochs.
    EXPECT_EQ(cell.phases, 20u);
    EXPECT_DOUBLE_EQ(cell.final_time, 2.0);
    EXPECT_GT(cell.queries, 0u);
    EXPECT_LE(cell.migrations, cell.queries);
    EXPECT_GE(cell.migration_rate, 0.0);
    EXPECT_LE(cell.migration_rate, 1.0);
    EXPECT_GE(cell.final_gap, 0.0);
    // Every query recorded one route latency: the histogram is the full
    // per-query distribution, not a sample.
    EXPECT_EQ(cell.latency.count(), cell.queries);
    EXPECT_GT(cell.latency.quantile(0.5), 0.0);
    EXPECT_LE(cell.latency.quantile(0.5), cell.latency.quantile(0.99));
    EXPECT_LE(cell.latency.quantile(0.99), cell.latency.quantile(0.999));
  }
  // The closed-loop cells serve exactly queries_per_epoch x epochs.
  EXPECT_EQ(result.cells[0].queries, 2000u * 20u);

  // Groups pool the per-cell histograms; the merged count is the total
  // over the group's cells.
  const std::vector<GroupSummary> groups = summarise(result);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].queries,
            groups[0].latency.count());
  std::size_t total_queries = 0;
  for (const CellResult& cell : result.cells) total_queries += cell.queries;
  EXPECT_EQ(groups[0].queries, total_queries);
  EXPECT_FALSE(groups[0].migration_rate.empty());
}

// --------------------------------------------------------------- determinism

/// The determinism contract: a sweep is bit-identical for 1 vs 4 threads.
TEST(SweepRunner, BitIdenticalAcrossThreadCounts) {
  ExperimentSpec spec = small_spec();
  // Random scenarios make this a real test: instance generation draws from
  // the per-cell stream, so any scheduling leak would shift results.
  spec.scenarios = {"braess", "random-links-8", "grid-3x3"};
  spec.horizon = 20.0;

  const SweepRunner runner;
  const SweepResult one = runner.run(spec, 1);
  const SweepResult four = runner.run(spec, 4);

  ASSERT_EQ(one.cells.size(), four.cells.size());
  for (std::size_t i = 0; i < one.cells.size(); ++i) {
    const CellResult& a = one.cells[i];
    const CellResult& b = four.cells[i];
    EXPECT_EQ(a.cell.scenario, b.cell.scenario);
    EXPECT_EQ(a.cell.policy, b.cell.policy);
    EXPECT_EQ(a.ok, b.ok);
    EXPECT_EQ(a.phases, b.phases);
    EXPECT_EQ(a.converged, b.converged);
    // Exact bit equality, not tolerance: the same instruction sequence
    // must have run regardless of scheduling.
    EXPECT_EQ(a.final_gap, b.final_gap) << i;
    EXPECT_EQ(a.final_potential, b.final_potential) << i;
    EXPECT_EQ(a.time_to_converge, b.time_to_converge) << i;
    EXPECT_EQ(a.oscillation_amplitude, b.oscillation_amplitude) << i;
  }
}

TEST(SweepRunner, CsvOutputIsByteIdenticalAcrossThreadCounts) {
  ExperimentSpec spec = small_spec();
  spec.scenarios = {"braess", "random-links-8"};
  spec.horizon = 10.0;

  const SweepRunner runner;
  const std::string path_one = "sweep_test_cells_1.csv";
  const std::string path_four = "sweep_test_cells_4.csv";
  write_cells_csv(path_one, runner.run(spec, 1));
  write_cells_csv(path_four, runner.run(spec, 4));

  const auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  };
  const std::string one = slurp(path_one);
  const std::string four = slurp(path_four);
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, four);
  std::remove(path_one.c_str());
  std::remove(path_four.c_str());
}

/// The same contract for the service simulator: a sweep of RouteServer
/// cells (the most state-heavy simulator) is bit-identical at 1 vs 4
/// worker threads, down to the merged latency histograms and the CSV
/// bytes.
TEST(SweepRunner, ServiceSweepIsByteIdenticalAcrossThreadCounts) {
  const ExperimentSpec spec = service_spec();
  const SweepRunner runner;
  const SweepResult one = runner.run(spec, 1);
  const SweepResult four = runner.run(spec, 4);

  ASSERT_EQ(one.cells.size(), four.cells.size());
  for (std::size_t i = 0; i < one.cells.size(); ++i) {
    const CellResult& a = one.cells[i];
    const CellResult& b = four.cells[i];
    EXPECT_TRUE(a.ok) << a.error;
    EXPECT_EQ(a.queries, b.queries) << i;
    EXPECT_EQ(a.migrations, b.migrations) << i;
    EXPECT_EQ(a.final_gap, b.final_gap) << i;
    EXPECT_EQ(a.final_potential, b.final_potential) << i;
    // Histogram equality is exact: same counts, same extremes, same sum.
    EXPECT_TRUE(a.latency == b.latency) << i;
  }
  EXPECT_EQ(cells_digest(one), cells_digest(four));

  const std::string path_one = "sweep_service_cells_1.csv";
  const std::string path_four = "sweep_service_cells_4.csv";
  write_cells_csv(path_one, one);
  write_cells_csv(path_four, four);
  const auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  };
  const std::string csv_one = slurp(path_one);
  EXPECT_FALSE(csv_one.empty());
  EXPECT_EQ(csv_one, slurp(path_four));
  std::remove(path_one.c_str());
  std::remove(path_four.c_str());
}

/// Golden digest for one fixed service sweep cell. The configuration is
/// libm-free end to end (closed-loop arrivals, braess' affine latencies),
/// so the digest is platform-stable; a change here means the service
/// dynamics, the histogram bucketing or the RNG stream layout moved —
/// all of which are breaking changes to the replay contract.
TEST(SweepRunner, ServiceCellGoldenDigest) {
  ExperimentSpec spec = service_spec();
  spec.workloads = {"closed-loop:2000"};
  spec.shard_counts = {4};
  spec.replicas = 1;
  const SweepRunner runner;
  const SweepResult result = runner.run(spec, 2);
  ASSERT_EQ(result.cells.size(), 1u);
  ASSERT_TRUE(result.cells[0].ok) << result.cells[0].error;
  // Re-pinned when the tenants axis joined the digest (PR 5); the cell's
  // dynamics themselves are unchanged since PR 3.
  EXPECT_EQ(cells_digest(result), 0x7A94820F008CC7B6ULL);
}

/// A tenants > 1 cell runs a TenantRegistry of co-scheduled replicas on
/// the sweep's shared executor; the aggregate is deterministic across
/// sweep thread counts and sums the per-tenant work.
TEST(SweepRunner, TenantCellsAggregateAndStayDeterministic) {
  ExperimentSpec spec = service_spec();
  spec.workloads = {"closed-loop:2000"};
  spec.shard_counts = {4};
  spec.tenant_counts = {1, 3};
  spec.replicas = 1;
  spec.horizon = 1.0;  // 10 epochs per tenant

  const SweepRunner runner;
  const SweepResult one = runner.run(spec, 1);
  const SweepResult four = runner.run(spec, 4);
  ASSERT_EQ(one.cells.size(), 2u);
  for (const CellResult& cell : one.cells) {
    ASSERT_TRUE(cell.ok) << cell.error;
  }

  // The closed loop serves exactly 2000 queries per tenant-epoch, so the
  // 3-tenant cell aggregates 3x the solo cell's work (30 epochs pooled).
  EXPECT_EQ(one.cells[0].queries, 10u * 2000u);
  EXPECT_EQ(one.cells[1].queries, 3u * 10u * 2000u);
  EXPECT_EQ(one.cells[0].phases, 10u);
  EXPECT_EQ(one.cells[1].phases, 30u);
  EXPECT_EQ(one.cells[1].latency.count(), one.cells[1].queries);
  EXPECT_GT(one.cells[1].final_gap, 0.0);  // worst tenant's gap

  EXPECT_EQ(cells_digest(one), cells_digest(four));
  for (std::size_t i = 0; i < one.cells.size(); ++i) {
    EXPECT_EQ(one.cells[i].queries, four.cells[i].queries) << i;
    EXPECT_EQ(one.cells[i].migrations, four.cells[i].migrations) << i;
    EXPECT_EQ(one.cells[i].final_gap, four.cells[i].final_gap) << i;
    EXPECT_TRUE(one.cells[i].latency == four.cells[i].latency) << i;
  }
}

TEST(WriteHistCsv, DumpsCumulativeBucketCountsPerServiceCell) {
  ExperimentSpec spec = service_spec();
  spec.workloads = {"closed-loop:2000"};
  spec.shard_counts = {4};
  spec.replicas = 1;
  spec.horizon = 1.0;  // 10 epochs -> 20000 queries
  const SweepRunner runner;
  const SweepResult result = runner.run(spec, 1);
  ASSERT_EQ(result.cells.size(), 1u);
  ASSERT_TRUE(result.cells[0].ok) << result.cells[0].error;

  const std::string path = "sweep_test_hist.csv";
  write_hist_csv(path, result);
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line,
            "index,scenario,policy,update_period,replica,workload,shards,"
            "tenants,faults,bucket,lower,upper,count,cumulative");
  // Every row is an occupied bucket of cell 0; counts sum to the cell's
  // query total and the cumulative column is their running sum. Splitting
  // on ',' is safe here: a healthy cell's faults field is empty and the
  // clause separators are ';'/'+', never ','... except within one clause,
  // which this healthy fixture does not exercise.
  std::size_t rows = 0;
  long long sum = 0;
  long long last_cumulative = 0;
  while (std::getline(in, line)) {
    ++rows;
    std::vector<std::string> fields;
    std::istringstream split(line);
    std::string field;
    while (std::getline(split, field, ',')) fields.push_back(field);
    ASSERT_EQ(fields.size(), 14u);
    EXPECT_EQ(fields[0], "0");
    EXPECT_TRUE(fields[8].empty());  // healthy cell: empty faults column
    const long long count = std::stoll(fields[12]);
    EXPECT_GT(count, 0);  // occupied buckets only
    sum += count;
    last_cumulative = std::stoll(fields[13]);
    EXPECT_EQ(last_cumulative, sum);
    // The bucket bounds bracket a positive latency.
    EXPECT_GT(std::stod(fields[11]), std::stod(fields[10]));
  }
  EXPECT_GT(rows, 1u);
  EXPECT_EQ(static_cast<std::size_t>(last_cumulative),
            result.cells[0].queries);
  std::remove(path.c_str());
}

// ------------------------------------------------------- cli_common helpers

TEST(CliCommon, ParseFlagsPairsValuesAndBooleans) {
  const auto flags = cli::parse_flags(
      {"run", "--threads", "4", "--quiet", "--csv", "out.csv"}, 1,
      {"quiet"});
  EXPECT_EQ(flags.at("threads"), "4");
  EXPECT_EQ(flags.at("quiet"), "1");
  EXPECT_EQ(flags.at("csv"), "out.csv");
  EXPECT_THROW(cli::parse_flags({"stray"}, 0, {}), cli::UsageError);
  EXPECT_THROW(cli::parse_flags({"--threads"}, 0, {}), cli::UsageError);
}

TEST(CliCommon, NumbersCountsAndCatalogues) {
  EXPECT_EQ(cli::parse_count("42", "--n"), 42u);
  EXPECT_THROW(cli::parse_count("-1", "--n"), cli::UsageError);
  EXPECT_THROW(cli::parse_count("4x", "--n"), cli::UsageError);
  EXPECT_DOUBLE_EQ(cli::parse_number("0.25", "--t"), 0.25);
  EXPECT_THROW(cli::parse_number("fast", "--t"), cli::UsageError);
  EXPECT_NO_THROW(cli::require_known("b", {"a", "b"}, "thing"));
  try {
    cli::require_known("z", {"a", "b"}, "thing");
    FAIL() << "expected cli::UsageError";
  } catch (const cli::UsageError& e) {
    // The catalogue rides along in the message.
    EXPECT_NE(std::string(e.what()).find("a b"), std::string::npos);
  }
}

// -------------------------------------------------------------- aggregation

TEST(Summarise, GroupsByScenarioAndPolicy) {
  ExperimentSpec spec = small_spec();
  spec.horizon = 20.0;
  const SweepRunner runner;
  const SweepResult result = runner.run(spec, 1);
  const std::vector<GroupSummary> groups = summarise(result);

  // 2 scenarios x 2 policies, each pooling 2 periods x 2 replicas.
  ASSERT_EQ(groups.size(), 4u);
  for (const GroupSummary& group : groups) {
    EXPECT_EQ(group.cells, 4u);
    EXPECT_EQ(group.errors, 0u);
    EXPECT_EQ(group.final_gap.count(), 4u);
  }
  // Order of first appearance follows the canonical expansion order.
  EXPECT_EQ(groups[0].scenario, "braess");
  EXPECT_EQ(groups[0].policy, "replicator");
  EXPECT_EQ(groups[1].policy, "alpha:0.5");
  EXPECT_EQ(groups[2].scenario, "uniform-links-8");

  const Table table = summary_table(groups);
  EXPECT_EQ(table.rows(), groups.size());
}

}  // namespace
}  // namespace staleflow
