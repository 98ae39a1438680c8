// staleflow_cli — command-line front end for the library.
//
// Usage:
//   staleflow_cli info <instance-file>
//   staleflow_cli dot <instance-file>
//   staleflow_cli solve <instance-file> [--tolerance <gap>]
//   staleflow_cli poa <instance-file>
//   staleflow_cli report <instance-file> [--flow uniform|equilibrium]
//   staleflow_cli simulate <instance-file> --policy <name> [--T <period>]
//                 [--horizon <t>] [--stop-gap <g>] [--trace]
//
// Policies: the sweep grammar (named_policy: replicator | uniform-linear |
// alpha:<a> | logit:<c> | naive | relative-slack[:<s>] | safe) plus
// best-response, which runs BestResponseSimulator. Every policy is built
// for --T (default 0.1). Without --T, a policy with a smoothness alpha
// then runs at the Corollary 5 safe period for alpha (for "safe" that is
// the T it was built for) and any other at T = 0.1. Numbers follow the
// library's one rule (util/spec_parse.h); a bad one exits 2.
//
// Instance files use the text format documented in net/io.h (see also
// `examples/` and the README).
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "cli_common.h"
#include "staleflow/staleflow.h"

namespace staleflow {
namespace {

[[noreturn]] void usage(const std::string& error = "") {
  if (!error.empty()) std::cerr << "error: " << error << "\n\n";
  std::cerr <<
      "usage:\n"
      "  staleflow_cli info <instance-file>\n"
      "  staleflow_cli dot <instance-file>\n"
      "  staleflow_cli solve <instance-file> [--tolerance <gap>]\n"
      "  staleflow_cli poa <instance-file>\n"
      "  staleflow_cli report <instance-file> [--flow uniform|equilibrium]\n"
      "  staleflow_cli simulate <instance-file> --policy <name>\n"
      "                [--T <period>] [--horizon <t>] [--stop-gap <g>]\n"
      "                [--trace]\n"
      "policies: " << kPolicyGrammar << " | best-response\n";
  std::exit(2);
}

int cmd_info(const Instance& inst) {
  std::cout << inst.describe() << "\n";
  std::cout << "safe update period at alpha = 1/l_max: "
            << inst.safe_update_period(1.0 / inst.max_latency()) << "\n";
  for (std::size_t c = 0; c < inst.commodity_count(); ++c) {
    const Commodity& commodity = inst.commodity(CommodityId{c});
    std::cout << "commodity " << c << ": v" << commodity.source.value
              << " -> v" << commodity.sink.value << ", demand "
              << commodity.demand << ", " << commodity.paths.size()
              << " paths\n";
  }
  double worst_elasticity = 0.0;
  for (std::size_t e = 0; e < inst.edge_count(); ++e) {
    worst_elasticity = std::max(
        worst_elasticity, max_elasticity(inst.latency(EdgeId{e})));
  }
  std::cout << "max latency elasticity: " << worst_elasticity << "\n";
  return 0;
}

int cmd_solve(const Instance& inst,
              const std::map<std::string, std::string>& flags) {
  FrankWolfeOptions options;
  if (const auto it = flags.find("tolerance"); it != flags.end()) {
    options.gap_tolerance = cli::parse_number(it->second, "--tolerance");
  }
  const FrankWolfeResult result = solve_equilibrium(inst, options);
  std::cout << "converged: " << fmt_bool(result.converged)
            << "  iterations: " << result.iterations
            << "  gap: " << fmt_sci(result.gap)
            << "  potential: " << fmt(result.potential, 8) << "\n";
  const FlowEvaluation eval = evaluate(inst, result.flow.values());
  std::cout << "average latency: " << fmt(eval.average_latency, 6) << "\n";
  for (std::size_t p = 0; p < inst.path_count(); ++p) {
    if (result.flow[PathId{p}] < 1e-9) continue;
    std::cout << "  P" << p << "  flow " << fmt(result.flow[PathId{p}], 6)
              << "  latency " << fmt(eval.path_latency[p], 6) << "  ("
              << inst.path(PathId{p}).describe(inst.graph()) << ")\n";
  }
  return result.converged ? 0 : 1;
}

int cmd_report(const Instance& inst,
               const std::map<std::string, std::string>& flags) {
  FlowVector flow = FlowVector::uniform(inst);
  if (const auto it = flags.find("flow"); it != flags.end()) {
    if (it->second == "equilibrium") {
      flow = solve_equilibrium(inst).flow;
    } else if (it->second != "uniform") {
      usage("--flow must be uniform or equilibrium");
    }
  }
  std::cout << describe_flow(inst, flow.values());
  return 0;
}

int cmd_poa(const Instance& inst) {
  const PriceOfAnarchyResult poa = price_of_anarchy(inst);
  std::cout << "equilibrium social cost: " << fmt(poa.equilibrium_cost, 8)
            << "\noptimal social cost:     " << fmt(poa.optimum_cost, 8)
            << "\nprice of anarchy:        " << fmt(poa.ratio, 6) << "\n";
  return 0;
}

int cmd_simulate(const Instance& inst,
                 const std::map<std::string, std::string>& flags) {
  const auto policy_it = flags.find("policy");
  if (policy_it == flags.end()) usage("simulate requires --policy");
  const std::string& policy_spec = policy_it->second;

  double horizon = 200.0;
  if (const auto it = flags.find("horizon"); it != flags.end()) {
    horizon = cli::parse_number(it->second, "--horizon");
  }
  double stop_gap = 0.0;
  if (const auto it = flags.find("stop-gap"); it != flags.end()) {
    stop_gap = cli::parse_number(it->second, "--stop-gap");
  }
  const bool trace = flags.count("trace") > 0;

  TrajectoryRecorder recorder(inst);
  SimulationResult result{FlowVector::uniform(inst)};

  if (policy_spec == "best-response") {
    BestResponseOptions options;
    options.update_period = 0.1;
    if (const auto it = flags.find("T"); it != flags.end()) {
      options.update_period = cli::parse_number(it->second, "--T");
    }
    options.horizon = horizon;
    options.stop_gap = stop_gap;
    const BestResponseSimulator sim(inst);
    result = sim.run(FlowVector::uniform(inst), options,
                     recorder.observer());
    std::cout << "policy: best response, T = " << options.update_period
              << "\n";
  } else {
    const auto period_flag = flags.find("T");
    const double period = period_flag == flags.end()
                              ? 0.1
                              : cli::parse_number(period_flag->second, "--T");
    const Policy policy = cli::usage_error(
        [&] { return named_policy(policy_spec).make(inst, period); });
    SimulationOptions options;
    options.update_period =
        policy.smoothness()
            ? inst.safe_update_period(*policy.smoothness())
            : 0.1;
    if (period_flag != flags.end()) options.update_period = period;
    options.horizon = horizon;
    options.stop_gap = stop_gap;
    const FluidSimulator sim(inst, policy);
    result = sim.run(FlowVector::uniform(inst), options,
                     recorder.observer());
    std::cout << "policy: " << policy.name()
              << ", T = " << options.update_period << "\n";
  }

  if (trace) {
    Table table({"phase", "t", "potential", "gap", "avg latency"});
    const std::size_t stride =
        std::max<std::size_t>(recorder.samples().size() / 25, 1);
    for (std::size_t i = 0; i < recorder.samples().size(); i += stride) {
      const PhaseSample& s = recorder.samples()[i];
      table.add_row({fmt_int(static_cast<long long>(s.phase)),
                     fmt(s.time, 2), fmt(s.potential, 8), fmt_sci(s.gap),
                     fmt(s.average_latency, 6)});
    }
    table.print(std::cout);
  }
  std::cout << "simulated " << result.phases << " phases to t = "
            << result.final_time << "\nfinal gap: "
            << fmt_sci(result.final_gap)
            << "  final potential: " << fmt(result.final_potential, 8)
            << (result.stopped_by_gap ? "  (stopped by --stop-gap)" : "")
            << "\n";
  return 0;
}

int run(const std::vector<std::string>& args) {
  if (args.size() < 2) usage();
  const std::string& command = args[0];
  const Instance inst = load_instance(args[1]);
  const auto flags = cli::parse_flags(args, 2, {"trace"});

  if (command == "info") return cmd_info(inst);
  if (command == "dot") {
    std::cout << to_dot(inst);
    return 0;
  }
  if (command == "solve") return cmd_solve(inst, flags);
  if (command == "poa") return cmd_poa(inst);
  if (command == "report") return cmd_report(inst, flags);
  if (command == "simulate") return cmd_simulate(inst, flags);
  usage("unknown command " + command);
}

}  // namespace
}  // namespace staleflow

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  try {
    return staleflow::run(args);
  } catch (const staleflow::cli::UsageError& e) {
    staleflow::usage(e.what());
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
