#include "sweep/runner.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <mutex>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "agents/agent_simulator.h"
#include "analysis/oscillation.h"
#include "analysis/trajectory.h"
#include "core/fluid_simulator.h"
#include "core/round_simulator.h"
#include "equilibrium/metrics.h"
#include "equilibrium/potential.h"
#include "faults/fault_plan.h"
#include "net/flow.h"
#include "exec/executor.h"
#include "service/tenant.h"
#include "service/workload.h"

namespace staleflow {
namespace {

/// max(1, round(x)) as a count, saturating at 2^63: casting a double past
/// size_t's range is undefined, and no such budget finishes anyway.
std::size_t round_count(double x) {
  return static_cast<std::size_t>(std::clamp(std::round(x), 1.0, 0x1p63));
}

/// Fills the tail-behaviour fields from the recorder's flow snapshots.
void analyse_tail(const TrajectoryRecorder& recorder, CellResult& out) {
  const auto& flows = recorder.flows();
  if (flows.size() < 4) return;  // too short to classify
  const OscillationReport report = analyse_oscillation(flows);
  out.oscillation_amplitude = report.step_amplitude;
  out.settled = report.settled;
  out.period_two = report.period_two;
}

void run_fluid(const Instance& instance, const Policy& policy,
               const ExperimentSpec& spec, CellResult& out) {
  SimulationOptions options;
  options.update_period = out.cell.update_period;
  options.horizon = spec.horizon;
  options.stop_gap = spec.stop_gap;

  TrajectoryOptions record;
  record.store_flows = true;
  TrajectoryRecorder recorder(instance, record);

  const FluidSimulator simulator(instance, policy);
  const SimulationResult result =
      simulator.run(FlowVector::uniform(instance), options,
                    recorder.observer());

  out.phases = result.phases;
  out.final_time = result.final_time;
  out.final_gap = result.final_gap;
  out.final_potential = result.final_potential;
  out.converged = result.stopped_by_gap ||
                  (spec.stop_gap > 0.0 && result.final_gap <= spec.stop_gap);
  if (out.converged) {
    const auto when = recorder.time_to_gap(spec.stop_gap);
    out.time_to_converge = when ? *when : result.final_time;
  }
  analyse_tail(recorder, out);
}

void run_round(const Instance& instance, const Policy& policy,
               const ExperimentSpec& spec, CellResult& out) {
  RoundSimOptions options;
  options.activation_probability = spec.activation_probability;
  options.rounds_per_update =
      round_count(out.cell.update_period / spec.round_length);
  options.total_rounds = round_count(spec.horizon / spec.round_length);
  options.stop_gap = spec.stop_gap;

  TrajectoryOptions record;
  record.store_flows = true;
  TrajectoryRecorder recorder(instance, record);
  // Adapt the round observer to the phase observer the recorder expects;
  // a round of the map represents `round_length` units of fluid time.
  const PhaseObserver phase_observer = recorder.observer();
  const RoundObserver observer = [&](const RoundInfo& info) {
    PhaseInfo phase;
    phase.index = info.round;
    phase.start_time = spec.round_length * static_cast<double>(info.round);
    phase.end_time = spec.round_length * static_cast<double>(info.round + 1);
    phase.flow_before = info.flow_before;
    phase.flow_after = info.flow_after;
    phase_observer(phase);
  };

  const RoundSimulator simulator(instance, policy);
  const RoundSimResult result =
      simulator.run(FlowVector::uniform(instance), options, observer);

  out.phases = result.rounds;
  out.final_time = spec.round_length * static_cast<double>(result.rounds);
  out.final_gap = result.final_gap;
  out.final_potential = result.final_potential;
  out.converged = result.stopped_by_gap ||
                  (spec.stop_gap > 0.0 && result.final_gap <= spec.stop_gap);
  if (out.converged) {
    const auto when = recorder.time_to_gap(spec.stop_gap);
    out.time_to_converge = when ? *when : out.final_time;
  }
  analyse_tail(recorder, out);
}

void run_agent(const Instance& instance, const Policy& policy,
               const ExperimentSpec& spec, Rng& sim_rng, CellResult& out) {
  AgentSimOptions options;
  options.num_agents = spec.num_agents;
  options.update_period = out.cell.update_period;
  options.horizon = spec.horizon;
  options.seed = sim_rng();

  TrajectoryOptions record;
  record.store_flows = true;
  TrajectoryRecorder recorder(instance, record);

  const AgentSimulator simulator(instance, policy);
  const AgentSimResult result =
      simulator.run(FlowVector::uniform(instance), options,
                    recorder.observer());

  out.phases = result.phases;
  out.final_time = result.final_time;
  out.final_gap = wardrop_gap(instance, result.final_flow.values());
  out.final_potential = potential(instance, result.final_flow.values());
  out.converged = spec.stop_gap > 0.0 && out.final_gap <= spec.stop_gap;
  if (out.converged) {
    const auto when = recorder.time_to_gap(spec.stop_gap);
    out.time_to_converge = when ? *when : result.final_time;
  }
  analyse_tail(recorder, out);
}

void run_service(const Instance& instance, const Policy& policy,
                 const ExperimentSpec& spec, Rng& sim_rng,
                 Executor& executor, CellResult& out) {
  const WorkloadPtr workload = make_workload(out.cell.workload);

  RouteServerOptions options;
  options.update_period = out.cell.update_period;
  options.epochs = round_count(spec.horizon / out.cell.update_period);
  options.num_clients = spec.num_clients;
  options.shards = out.cell.shards;
  options.sub_batch_queries = spec.sub_batch_queries;
  options.sub_batch_auto = spec.sub_batch_auto;
  options.record_latency = false;  // replay mode: fully deterministic

  // Seeds first, THEN the fault schedule: the schedule is derived from
  // the first tenant's seed, and drawing all seeds up front keeps the
  // sim_rng walk identical to the pre-faults runner (same cell, same
  // seeds, healthy or not).
  const std::size_t tenants = std::max<std::size_t>(1, out.cell.tenants);
  std::vector<std::uint64_t> seeds(tenants);
  for (std::uint64_t& seed : seeds) seed = sim_rng();

  faults::FaultSchedule fault_schedule;
  if (!out.cell.faults.empty() && out.cell.faults != "none") {
    fault_schedule = faults::FaultSchedule::materialize(
        faults::parse_fault_plan(out.cell.faults), seeds.front(),
        options.epochs);
    options.faults = &fault_schedule;
  }

  // N replicas of the configuration (per-tenant seeds split from the cell
  // stream in tenant order) multiplexed on the shared executor; a plain
  // cell is the one-tenant registry. The aggregate reports the host's
  // view: queries/migrations and the latency histogram pool over tenants,
  // the gap is the WORST tenant's, convergence means EVERY tenant
  // converged (time = the last tenant's crossing), and the potential is
  // the tenant mean. A one-tenant cell reports its tenant's own values bit
  // for bit: the gap starts from the first tenant's, and the potential sum
  // from -0.0, IEEE addition's exact identity.
  TenantRegistry registry;
  for (std::size_t t = 0; t < tenants; ++t) {
    TenantOptions tenant;
    tenant.server = options;
    tenant.server.seed = seeds[t];
    registry.add("t" + std::to_string(t), instance, policy, *workload,
                 tenant);
  }
  const MultiTenantResult multi = registry.run(executor);

  out.phases = multi.total_epochs();
  out.final_time = out.cell.update_period *
                   static_cast<double>(
                       multi.tenants.front().server.epochs.size());
  out.final_gap = multi.tenants.front().server.final_gap;
  out.converged = spec.stop_gap > 0.0;
  double potential_sum = -0.0;
  for (const TenantResult& tenant : multi.tenants) {
    const RouteServerResult& result = tenant.server;
    out.final_gap = std::max(out.final_gap, result.final_gap);
    potential_sum += potential(instance, result.final_flow.values());
    out.queries += result.total_queries;
    out.migrations += result.total_migrations;
    out.latency.merge(result.route_latency);

    bool tenant_converged = false;
    if (spec.stop_gap > 0.0) {
      for (const EpochSummary& epoch : result.epochs) {
        if (epoch.wardrop_gap <= spec.stop_gap) {
          out.time_to_converge =
              std::max(out.time_to_converge, epoch.end_time);
          tenant_converged = true;
          break;
        }
      }
    }
    out.converged = out.converged && tenant_converged &&
                    result.final_gap <= spec.stop_gap;
  }
  if (!out.converged) out.time_to_converge = 0.0;
  out.final_potential =
      potential_sum / static_cast<double>(multi.tenants.size());
  out.migration_rate =
      out.queries > 0 ? static_cast<double>(out.migrations) /
                            static_cast<double>(out.queries)
                      : 0.0;
}

CellResult run_cell(const Scenario& scenario, const PolicySpec& policy_spec,
                    const ExperimentSpec& spec, Executor& executor,
                    CellSpec cell, Rng rng) {
  CellResult out;
  out.cell = std::move(cell);
  try {
    // Fixed stream layout per cell: one child for instance generation, one
    // for simulator randomness. Splitting both up front keeps the layout
    // stable if one consumer is skipped.
    Rng instance_rng = rng.split();
    Rng sim_rng = rng.split();

    const Instance instance = scenario.make(instance_rng);
    out.paths = instance.path_count();
    out.commodities = instance.commodity_count();
    const Policy policy =
        policy_spec.make(instance, out.cell.update_period);

    switch (spec.simulator) {
      case SimulatorKind::kFluid:
        run_fluid(instance, policy, spec, out);
        break;
      case SimulatorKind::kRound:
        run_round(instance, policy, spec, out);
        break;
      case SimulatorKind::kAgent:
        run_agent(instance, policy, spec, sim_rng, out);
        break;
      case SimulatorKind::kService:
        run_service(instance, policy, spec, sim_rng, executor, out);
        break;
    }
  } catch (const std::exception& e) {
    out.ok = false;
    out.error = e.what();
  }
  return out;
}

}  // namespace

SweepRunner::SweepRunner() : registry_(ScenarioRegistry::builtin()) {}

SweepRunner::SweepRunner(ScenarioRegistry registry)
    : registry_(std::move(registry)) {}

SweepResult SweepRunner::run(const ExperimentSpec& spec, std::size_t threads,
                             const SweepProgress& progress) const {
  Executor executor(threads);
  return run(spec, executor, progress);
}

SweepResult SweepRunner::run(const ExperimentSpec& spec, Executor& executor,
                             const SweepProgress& progress) const {
  const std::vector<CellSpec> cells = expand(spec, registry_);

  std::unordered_map<std::string, const PolicySpec*> policies;
  for (const PolicySpec& policy : spec.policies) {
    policies.emplace(policy.name, &policy);
  }

  // Derive every cell's RNG stream by walking the canonical order. This is
  // the determinism linchpin: streams depend only on (base_seed, index),
  // never on which thread runs the cell or when.
  Rng master(spec.base_seed);
  std::vector<Rng> streams;
  streams.reserve(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    streams.push_back(master.split());
  }

  SweepResult result;
  result.simulator = spec.simulator;
  result.cells.resize(cells.size());

  std::size_t done = 0;
  std::mutex progress_mutex;

  const auto start = std::chrono::steady_clock::now();
  executor.parallel_for(cells.size(), [&](std::size_t i) {
    const CellSpec& cell = cells[i];
    result.cells[i] = run_cell(registry_.at(cell.scenario),
                               *policies.at(cell.policy), spec, executor,
                               cell, streams[i]);
    if (progress) {
      // Count under the same lock as the callback so completion counts
      // arrive in order (the final (total, total) call really is last).
      const std::lock_guard<std::mutex> lock(progress_mutex);
      progress(++done, cells.size());
    }
  });
  const auto end = std::chrono::steady_clock::now();
  result.wall_seconds =
      std::chrono::duration<double>(end - start).count();
  return result;
}

}  // namespace staleflow
