// Declarative experiment specification and its expansion into cells.
//
// An ExperimentSpec names WHAT to run — scenarios x policies x staleness
// periods x seed replicas, under one of the four simulators (with the
// service simulator adding workload x shard-count axes) — and expand()
// turns it into the flat, deterministically ordered list of cells the
// runner executes. Cell order is part of the determinism contract:
// per-cell RNG streams are derived by walking this order, so results never
// depend on thread count or scheduling.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/policy.h"
#include "net/instance.h"
#include "sweep/scenario.h"

namespace staleflow {

/// A named policy recipe. The factory receives the instance and the cell's
/// bulletin-board period T (some policies, e.g. the Corollary 5 "safe"
/// policy, are derived from both).
struct PolicySpec {
  std::string name;
  std::function<Policy(const Instance&, double update_period)> make;
};

/// Builds a PolicySpec from a compact textual form:
///   "replicator"            proportional + linear(l_max)      (Theorem 7)
///   "uniform-linear"        uniform + linear(l_max)           (Theorem 6)
///   "alpha:<a>"             uniform + min(1, a * gain)        (Corollary 5)
///   "logit:<c>"             smoothed best response, parameter c
///   "naive"                 uniform + better response (oscillates)
///   "relative-slack[:<s>]"  proportional + relative slack, shift s [0]
///   "safe"                  most aggressive provably convergent policy
///                           for the cell's T (Corollary 5 inverted)
/// Throws std::invalid_argument on an unknown name or a bad parameter
/// (parameters follow the number rule of util/spec_parse.h).
PolicySpec named_policy(const std::string& spec);

/// The named_policy grammar, as its errors and the tools' usage print it.
inline constexpr std::string_view kPolicyGrammar =
    "replicator | uniform-linear | alpha:<a> | logit:<c> | naive | "
    "relative-slack[:<s>] | safe";

/// Which simulator executes a cell.
enum class SimulatorKind {
  kFluid,   // fluid-limit ODE (Eq. (3)); the paper's main object
  kRound,   // synchronous-rounds expected-flow map
  kAgent,   // finite-population stochastic (Gillespie) simulator
  kService  // the online RouteServer epoch pipeline (src/service/)
};

/// Parses "fluid" / "round" / "agent" / "service"; throws
/// std::invalid_argument listing the catalogue.
SimulatorKind parse_simulator_kind(const std::string& name);
std::string to_string(SimulatorKind kind);

/// The full declarative sweep: the cartesian product
/// scenarios x policies x update_periods x replicas — times
/// workloads x shard_counts when the simulator is kService.
struct ExperimentSpec {
  std::vector<std::string> scenarios;  // ScenarioRegistry names
  std::vector<PolicySpec> policies;
  std::vector<double> update_periods;  // bulletin-board periods T (> 0)
  std::size_t replicas = 1;            // independent seeds per combination
  std::uint64_t base_seed = 1;         // root of every cell's RNG stream

  SimulatorKind simulator = SimulatorKind::kFluid;
  double horizon = 50.0;     // simulated time (fluid/agent/service)
  double stop_gap = 1e-6;    // convergence threshold (0 disables early stop)

  // Round-simulator knobs (used when simulator == kRound). The period T is
  // mapped to rounds_per_update = max(1, round(T / round_length)).
  double activation_probability = 0.1;
  double round_length = 0.01;  // simulated time one round represents

  // Agent-simulator knob (used when simulator == kAgent).
  std::size_t num_agents = 10'000;

  // Service-simulator axes and knobs (simulator == kService only; expand()
  // rejects them under any other simulator so a mis-addressed axis fails
  // loudly instead of being silently ignored). Each cell serves
  // max(1, round(horizon / T)) epochs of its workload over `shard_counts`
  // logical shards on the sweep's shared Executor — in-cell sub-batch and
  // snapshot-build tasks interleave with other cells on the one pool, and
  // cell outcomes are thread-count independent by the service determinism
  // contract.
  std::vector<std::string> workloads;     // make_workload() specs (axis)
  std::vector<std::size_t> shard_counts;  // logical shards (axis, all > 0)
  // Tenant counts (axis, all >= 1; empty = {1}): a cell with tenants = N
  // runs N replicas of its configuration co-scheduled on the sweep's
  // shared executor via TenantRegistry (per-tenant seeds split from the
  // cell stream in tenant order) — capacity planning over co-tenancy.
  // N = 1 is the plain single-server cell.
  std::vector<std::size_t> tenant_counts;
  // Fault-plan specs (axis, empty = {healthy}): each cell materializes
  // its spec against the cell's own seed (src/faults/), so chaos cells
  // stay bit-identical across thread counts like healthy ones. "none" is
  // the explicit healthy point (so a sweep can compare faulted vs not).
  // expand() rejects crash/stall clauses here: a crash kills the whole
  // sweep process, and worker stalls only perturb the shared pool's wall
  // clock — neither is a per-cell dynamics axis.
  std::vector<std::string> fault_specs;
  std::size_t num_clients = 2'000;        // virtual client fleet per cell
  // Serving sub-batch split threshold handed to every cell's RouteServer
  // (see RouteServerOptions::sub_batch_queries). Part of the dynamics
  // configuration, like shard_counts — not a parallelism knob.
  std::size_t sub_batch_queries = 16'384;
  // Adaptive per-epoch split threshold instead of the fixed one (see
  // RouteServerOptions::sub_batch_auto); sub_batch_queries is then
  // ignored.
  bool sub_batch_auto = false;
};

/// One executable cell of the sweep grid.
struct CellSpec {
  std::size_t index = 0;  // position in expansion order
  std::string scenario;
  std::string policy;
  double update_period = 0.0;
  std::size_t replica = 0;

  // Service axes; empty / 0 for non-service cells.
  std::string workload;
  std::size_t shards = 0;
  std::size_t tenants = 0;  // co-scheduled tenant replicas (1 = solo cell)
  std::string faults;       // fault-plan spec ("" / "none" = healthy)
};

/// Number of cells the spec expands to.
std::size_t cell_count(const ExperimentSpec& spec);

/// Expands the cartesian product in the canonical order: scenario-major,
/// then policy, then period, then workload, then shard count, then
/// tenant count, then fault spec, then replica (the service axes collapse to one
/// iteration for the other simulators). Validates the spec (non-empty
/// axes, positive periods, resolvable scenario names, parseable
/// workloads, non-zero shard and tenant counts, service axes only under
/// kService) and throws std::invalid_argument / std::out_of_range on
/// violations.
std::vector<CellSpec> expand(const ExperimentSpec& spec,
                             const ScenarioRegistry& registry);

}  // namespace staleflow
