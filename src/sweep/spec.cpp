#include "sweep/spec.h"

#include <stdexcept>

#include "faults/fault_plan.h"
#include "service/workload.h"
#include "util/spec_parse.h"

namespace staleflow {

PolicySpec named_policy(const std::string& spec) {
  const std::size_t colon = spec.find(':');
  const std::string head = spec.substr(0, colon);
  const auto parameter = [&] {
    return parse_number(spec.substr(colon + 1),
                        "the parameter of policy '" + spec + "'");
  };

  // Parameter-less policies must not silently swallow a ":value" suffix —
  // the full spec string labels every result row, so running "replicator"
  // under the name "replicator:2" would mis-attribute the data.
  const auto reject_parameter = [&] {
    if (colon != std::string::npos) {
      throw std::invalid_argument("named_policy: '" + head +
                                  "' takes no parameter (got '" + spec +
                                  "')");
    }
  };

  if (head == "replicator") {
    reject_parameter();
    return {spec, [](const Instance& instance, double) {
              return make_replicator_policy(instance);
            }};
  }
  if (head == "uniform-linear") {
    reject_parameter();
    return {spec, [](const Instance& instance, double) {
              return make_uniform_linear_policy(instance);
            }};
  }
  if (head == "alpha") {
    if (colon == std::string::npos) {
      throw std::invalid_argument("named_policy: 'alpha' needs a parameter, "
                                  "e.g. 'alpha:0.5'");
    }
    const double alpha = parameter();
    if (!(alpha > 0.0)) {
      throw std::invalid_argument("named_policy: alpha must be > 0");
    }
    return {spec,
            [alpha](const Instance&, double) { return make_alpha_policy(alpha); }};
  }
  if (head == "logit") {
    if (colon == std::string::npos) {
      throw std::invalid_argument("named_policy: 'logit' needs a parameter, "
                                  "e.g. 'logit:10'");
    }
    const double c = parameter();
    if (!(c > 0.0)) {
      throw std::invalid_argument("named_policy: logit c must be > 0");
    }
    return {spec, [c](const Instance& instance, double) {
              return make_logit_policy(instance, c);
            }};
  }
  if (head == "naive") {
    reject_parameter();
    return {spec, [](const Instance&, double) {
              return make_naive_better_response_policy();
            }};
  }
  if (head == "relative-slack") {
    const double shift = colon == std::string::npos ? 0.0 : parameter();
    if (shift < 0.0) {
      throw std::invalid_argument("named_policy: shift must be >= 0");
    }
    return {spec, [shift](const Instance&, double) {
              return make_relative_slack_policy(shift);
            }};
  }
  if (head == "safe") {
    reject_parameter();
    return {spec, [](const Instance& instance, double update_period) {
              return make_safe_policy(instance, update_period);
            }};
  }
  throw std::invalid_argument("named_policy: unknown policy '" + spec +
                              "' (have: " + std::string(kPolicyGrammar) + ")");
}

SimulatorKind parse_simulator_kind(const std::string& name) {
  if (name == "fluid") return SimulatorKind::kFluid;
  if (name == "round") return SimulatorKind::kRound;
  if (name == "agent") return SimulatorKind::kAgent;
  if (name == "service") return SimulatorKind::kService;
  throw std::invalid_argument(
      "parse_simulator_kind: unknown simulator '" + name +
      "' (have: fluid, round, agent, service)");
}

std::string to_string(SimulatorKind kind) {
  switch (kind) {
    case SimulatorKind::kFluid: return "fluid";
    case SimulatorKind::kRound: return "round";
    case SimulatorKind::kAgent: return "agent";
    case SimulatorKind::kService: return "service";
  }
  throw std::logic_error("to_string: unknown SimulatorKind");
}

std::size_t cell_count(const ExperimentSpec& spec) {
  std::size_t count = spec.scenarios.size() * spec.policies.size() *
                      spec.update_periods.size() * spec.replicas;
  if (spec.simulator == SimulatorKind::kService) {
    count *= spec.workloads.size() * spec.shard_counts.size() *
             std::max<std::size_t>(1, spec.tenant_counts.size()) *
             std::max<std::size_t>(1, spec.fault_specs.size());
  }
  return count;
}

std::vector<CellSpec> expand(const ExperimentSpec& spec,
                             const ScenarioRegistry& registry) {
  if (spec.scenarios.empty()) {
    throw std::invalid_argument("expand: no scenarios");
  }
  if (spec.policies.empty()) {
    throw std::invalid_argument("expand: no policies");
  }
  if (spec.update_periods.empty()) {
    throw std::invalid_argument("expand: no update periods");
  }
  if (spec.replicas == 0) {
    throw std::invalid_argument("expand: replicas must be >= 1");
  }
  for (std::size_t i = 0; i < spec.policies.size(); ++i) {
    if (!spec.policies[i].make) {
      throw std::invalid_argument("expand: null policy factory '" +
                                  spec.policies[i].name + "'");
    }
    for (std::size_t j = i + 1; j < spec.policies.size(); ++j) {
      if (spec.policies[i].name == spec.policies[j].name) {
        throw std::invalid_argument("expand: duplicate policy '" +
                                    spec.policies[i].name + "'");
      }
    }
  }
  for (std::size_t i = 0; i < spec.scenarios.size(); ++i) {
    for (std::size_t j = i + 1; j < spec.scenarios.size(); ++j) {
      if (spec.scenarios[i] == spec.scenarios[j]) {
        throw std::invalid_argument("expand: duplicate scenario '" +
                                    spec.scenarios[i] + "'");
      }
    }
  }
  for (const double period : spec.update_periods) {
    if (!(period > 0.0)) {
      throw std::invalid_argument("expand: update periods must be > 0");
    }
  }
  if (!(spec.horizon > 0.0)) {
    throw std::invalid_argument("expand: horizon must be > 0");
  }
  for (const std::string& name : spec.scenarios) {
    registry.at(name);  // throws std::out_of_range on unknown names
  }

  const bool service = spec.simulator == SimulatorKind::kService;
  if (!service && (!spec.workloads.empty() || !spec.shard_counts.empty() ||
                   !spec.tenant_counts.empty() || !spec.fault_specs.empty())) {
    throw std::invalid_argument(
        "expand: workload/shard/tenant/fault axes require the service "
        "simulator (--simulator service)");
  }
  if (service) {
    if (spec.workloads.empty()) {
      throw std::invalid_argument(
          "expand: the service simulator needs at least one workload "
          "(e.g. poisson:<rate>, closed-loop:<n>)");
    }
    if (spec.shard_counts.empty()) {
      throw std::invalid_argument(
          "expand: the service simulator needs at least one shard count");
    }
    for (std::size_t i = 0; i < spec.workloads.size(); ++i) {
      make_workload(spec.workloads[i]);  // typos fail here, not mid-sweep
      for (std::size_t j = i + 1; j < spec.workloads.size(); ++j) {
        if (spec.workloads[i] == spec.workloads[j]) {
          throw std::invalid_argument("expand: duplicate workload '" +
                                      spec.workloads[i] + "'");
        }
      }
    }
    for (std::size_t i = 0; i < spec.shard_counts.size(); ++i) {
      if (spec.shard_counts[i] == 0) {
        throw std::invalid_argument(
            "expand: shard counts must be >= 1 (a cell cannot serve over "
            "zero shards)");
      }
      if (spec.shard_counts[i] > spec.num_clients) {
        throw std::invalid_argument(
            "expand: shard counts must be <= num_clients");
      }
      for (std::size_t j = i + 1; j < spec.shard_counts.size(); ++j) {
        if (spec.shard_counts[i] == spec.shard_counts[j]) {
          throw std::invalid_argument("expand: duplicate shard count");
        }
      }
    }
    for (std::size_t i = 0; i < spec.tenant_counts.size(); ++i) {
      if (spec.tenant_counts[i] == 0) {
        throw std::invalid_argument(
            "expand: tenant counts must be >= 1 (a cell cannot co-schedule "
            "zero tenants)");
      }
      for (std::size_t j = i + 1; j < spec.tenant_counts.size(); ++j) {
        if (spec.tenant_counts[i] == spec.tenant_counts[j]) {
          throw std::invalid_argument("expand: duplicate tenant count");
        }
      }
    }
    for (std::size_t i = 0; i < spec.fault_specs.size(); ++i) {
      // Typos fail here, not mid-sweep; and per-cell chaos must stay
      // per-cell — a crash clause kills the whole sweep process, a
      // worker-stall clause perturbs the SHARED pool every other cell is
      // running on, so both are rejected as sweep axes.
      const faults::FaultPlan plan =
          faults::parse_fault_plan(spec.fault_specs[i]);
      for (const faults::FaultClause& clause : plan.clauses) {
        if (clause.kind == faults::FaultKind::kCrash ||
            clause.kind == faults::FaultKind::kWorkerStall) {
          throw std::invalid_argument(
              "expand: crash/stall clauses are not sweepable (crash kills "
              "the sweep process, stall perturbs the shared pool); use "
              "route_server_cli --faults for those");
        }
      }
      for (std::size_t j = i + 1; j < spec.fault_specs.size(); ++j) {
        if (spec.fault_specs[i] == spec.fault_specs[j]) {
          throw std::invalid_argument("expand: duplicate fault spec '" +
                                      spec.fault_specs[i] + "'");
        }
      }
    }
    if (spec.num_clients == 0) {
      throw std::invalid_argument("expand: num_clients must be >= 1");
    }
    if (!spec.sub_batch_auto && spec.sub_batch_queries == 0) {
      throw std::invalid_argument(
          "expand: sub_batch_queries must be >= 1 (it is a dynamics "
          "parameter, not a parallelism knob)");
    }
  }

  // The service axes collapse to a single sentinel iteration for the
  // other simulators, keeping one expansion loop (and one canonical
  // order) for every simulator kind. An omitted tenant axis means plain
  // single-tenant cells.
  const std::vector<std::string> workloads =
      service ? spec.workloads : std::vector<std::string>{""};
  const std::vector<std::size_t> shard_counts =
      service ? spec.shard_counts : std::vector<std::size_t>{0};
  const std::vector<std::size_t> tenant_counts =
      !service ? std::vector<std::size_t>{0}
               : (spec.tenant_counts.empty() ? std::vector<std::size_t>{1}
                                             : spec.tenant_counts);
  const std::vector<std::string> fault_specs =
      !service ? std::vector<std::string>{""}
               : (spec.fault_specs.empty() ? std::vector<std::string>{""}
                                           : spec.fault_specs);

  std::vector<CellSpec> cells;
  cells.reserve(cell_count(spec));
  for (const std::string& scenario : spec.scenarios) {
    for (const PolicySpec& policy : spec.policies) {
      for (const double period : spec.update_periods) {
        for (const std::string& workload : workloads) {
          for (const std::size_t shards : shard_counts) {
            for (const std::size_t tenants : tenant_counts) {
              for (const std::string& fault_spec : fault_specs) {
                for (std::size_t replica = 0; replica < spec.replicas;
                     ++replica) {
                  CellSpec cell;
                  cell.index = cells.size();
                  cell.scenario = scenario;
                  cell.policy = policy.name;
                  cell.update_period = period;
                  cell.replica = replica;
                  cell.workload = workload;
                  cell.shards = shards;
                  cell.tenants = tenants;
                  cell.faults = fault_spec;
                  cells.push_back(std::move(cell));
                }
              }
            }
          }
        }
      }
    }
  }
  return cells;
}

}  // namespace staleflow
