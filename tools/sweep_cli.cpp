// sweep_cli — run declarative experiment sweeps from the command line.
//
// Usage:
//   sweep_cli run [--scenarios a,b,...] [--policies p,q,...]
//                 [--periods 0.05,0.1,...] [--replicas <n>] [--seed <s>]
//                 [--simulator fluid|round|agent|service] [--horizon <t>]
//                 [--stop-gap <g>] [--agents <n>]
//                 [--workloads w1,w2,...] [--shards 1,8,...]
//                 [--tenants 1,4,...] [--faults f1;f2;...] [--clients <n>]
//                 [--sub-batch <q>|auto] [--threads <k>]
//                 [--cells-csv <path>] [--summary-csv <path>]
//                 [--hist-out <path>] [--trace <path>] [--quiet]
//   sweep_cli list
//
// `list` prints the scenario catalogue plus the policy and workload
// grammars. `run` expands the cartesian product scenarios x policies x
// periods x replicas — times workloads x shard counts x tenant counts x
// fault specs under `--simulator service`, which drives a full
// RouteServer epoch pipeline per cell (a TenantRegistry of co-scheduled
// replicas when the tenant count exceeds 1) for capacity planning —
// executes it on a thread pool and prints a scenario x policy summary
// table, throughput and the deterministic cell digest.
//
// The --faults axis (src/faults/) splits on ';' so one axis value can
// hold a multi-clause plan joined with '+', e.g.
//   --faults "none;brownout:shed=0.5+slow:shard=0,us=50"
// Each cell materializes its spec against the cell's own seed, so chaos
// cells pin to the same digest at any --threads. Crash/stall clauses
// are rejected here (crash kills the sweep process, stalls perturb the
// shared pool); use route_server_cli --faults for those.
//
// Unknown scenario/policy/workload
// names and mis-addressed axes (service axes without --simulator
// service, zero shard or tenant counts, bad fault clauses) are usage
// errors: exit 2 with
// the catalogue in hand. `--threads 0` means hardware concurrency.
// Results (and the CSVs) are bit-identical for any --threads value.
// --trace <path> records the sweep's binary trace (src/trace/) for
// offline analysis with trace_dump_cli; tracing never changes the
// digest.
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli_common.h"
#include "staleflow/staleflow.h"

namespace staleflow {
namespace {

/// The grammars `list` and the usage text end with; the spec grammars
/// are the library's own strings.
void print_grammars(std::ostream& out) {
  out << "policies: " << kPolicyGrammar
      << "\nworkloads (service simulator): " << kWorkloadGrammar
      << "\nfaults (service simulator): " << faults::kFaultGrammar
      << "\n        (';' separates axis values, so one value joins its\n"
         "        clauses with '+'; crash/stall: route_server_cli only)\n";
}

[[noreturn]] void usage(const std::string& error = "") {
  if (!error.empty()) std::cerr << "error: " << error << "\n\n";
  std::cerr <<
      "usage:\n"
      "  sweep_cli run [--scenarios a,b,...] [--policies p,q,...]\n"
      "                [--periods 0.05,0.1,...] [--replicas <n>]\n"
      "                [--seed <s>] [--simulator fluid|round|agent|service]\n"
      "                [--horizon <t>] [--stop-gap <g>] [--agents <n>]\n"
      "                [--workloads w1,w2,...] [--shards 1,8,...]\n"
      "                [--tenants 1,4,...] [--faults f1;f2;...]\n"
      "                [--clients <n>] [--sub-batch <q>|auto]\n"
      "                [--threads <k>]\n"
      "                [--cells-csv <path>] [--summary-csv <path>]\n"
      "                [--hist-out <path>] [--trace <path>] [--quiet]\n"
      "  sweep_cli list\n";
  print_grammars(std::cerr);
  std::exit(2);
}

int do_list() {
  const ScenarioRegistry registry = ScenarioRegistry::builtin();
  Table table({"scenario", "description"});
  for (const std::string& name : registry.names()) {
    table.add_row({name, registry.at(name).description});
  }
  table.print(std::cout);
  std::cout << '\n';
  print_grammars(std::cout);
  return 0;
}

int do_run(const std::map<std::string, std::string>& flags) {
  ExperimentSpec spec;
  spec.scenarios = {"two-link-pulse", "braess", "uniform-links-8",
                    "random-links-8"};
  std::vector<std::string> policy_names = {"replicator", "uniform-linear",
                                           "alpha:0.5", "logit:10", "safe"};
  spec.update_periods = {0.05, 0.1};
  spec.replicas = 3;

  std::size_t threads = 1;
  std::string cells_csv, summary_csv, hist_csv, trace_path;
  bool quiet = false;

  for (const auto& [key, value] : flags) {
    if (key == "scenarios") {
      spec.scenarios = split_nonempty(value, ",");
    } else if (key == "policies") {
      policy_names = split_nonempty(value, ",");
    } else if (key == "periods") {
      spec.update_periods.clear();
      for (const std::string& item : split_nonempty(value, ",")) {
        spec.update_periods.push_back(cli::parse_number(item, "--periods"));
      }
    } else if (key == "replicas") {
      spec.replicas = cli::parse_count(value, "--replicas");
    } else if (key == "seed") {
      spec.base_seed = cli::parse_count(value, "--seed");
    } else if (key == "simulator") {
      // Unknown kinds are usage errors (exit 2, catalogue printed), not
      // plain runtime failures.
      try {
        spec.simulator = parse_simulator_kind(value);
      } catch (const std::invalid_argument& e) {
        throw cli::UsageError(e.what());
      }
    } else if (key == "horizon") {
      spec.horizon = cli::parse_number(value, "--horizon");
    } else if (key == "stop-gap") {
      spec.stop_gap = cli::parse_number(value, "--stop-gap");
    } else if (key == "agents") {
      spec.num_agents = cli::parse_count(value, "--agents");
    } else if (key == "workloads") {
      spec.workloads = split_nonempty(value, ",");
    } else if (key == "shards") {
      spec.shard_counts.clear();
      for (const std::string& item : split_nonempty(value, ",")) {
        spec.shard_counts.push_back(cli::parse_count(item, "--shards"));
      }
    } else if (key == "tenants") {
      spec.tenant_counts.clear();
      for (const std::string& item : split_nonempty(value, ",")) {
        spec.tenant_counts.push_back(cli::parse_count(item, "--tenants"));
      }
    } else if (key == "faults") {
      // ';' splits axis values; clause lists within one value use '+'
      // (fault clauses contain commas, so ',' cannot separate values).
      spec.fault_specs = split_nonempty(value, ";");
    } else if (key == "clients") {
      spec.num_clients = cli::parse_count(value, "--clients");
    } else if (key == "sub-batch") {
      if (value == "auto") {
        spec.sub_batch_auto = true;
      } else {
        spec.sub_batch_queries = cli::parse_count(value, "--sub-batch");
      }
    } else if (key == "threads") {
      threads = cli::parse_count(value, "--threads");
    } else if (key == "cells-csv") {
      cells_csv = value;
    } else if (key == "summary-csv") {
      summary_csv = value;
    } else if (key == "hist-out") {
      hist_csv = value;
    } else if (key == "trace") {
      trace_path = value;
    } else if (key == "quiet") {
      quiet = true;
    } else {
      usage("unknown flag --" + key);
    }
  }

  // A service sweep with no explicit axes gets a small default
  // capacity-planning grid: open-loop load below and around saturation,
  // serial vs sharded serving.
  if (spec.simulator == SimulatorKind::kService) {
    if (spec.workloads.empty()) {
      spec.workloads = {"poisson:10000", "poisson:40000"};
    }
    if (spec.shard_counts.empty()) spec.shard_counts = {1, 8};
  }

  const SweepRunner runner;

  // Validate names eagerly, before any cell runs: a typo should fail with
  // the catalogue in hand, not deep inside the sweep.
  for (const std::string& name : spec.scenarios) {
    cli::require_known(name, runner.registry().names(), "scenario");
  }
  for (const std::string& name : policy_names) {
    try {
      spec.policies.push_back(named_policy(name));
    } catch (const std::invalid_argument& e) {
      usage(e.what());
    }
  }
  // Same for the whole spec: a mis-addressed axis (workloads under a
  // non-service simulator, a zero shard count, a bad workload spec) is a
  // usage error, not a mid-sweep surprise.
  try {
    expand(spec, runner.registry());
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }

  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  Executor executor = cli::usage_error([&] { return Executor(threads); });
  const std::size_t total = cell_count(spec);
  if (!quiet) {
    std::cout << "sweep: " << spec.scenarios.size() << " scenarios x "
              << spec.policies.size() << " policies x "
              << spec.update_periods.size() << " periods x ";
    if (spec.simulator == SimulatorKind::kService) {
      std::cout << spec.workloads.size() << " workloads x "
                << spec.shard_counts.size() << " shard counts x ";
      if (!spec.tenant_counts.empty()) {
        std::cout << spec.tenant_counts.size() << " tenant counts x ";
      }
      if (!spec.fault_specs.empty()) {
        std::cout << spec.fault_specs.size() << " fault specs x ";
      }
    }
    std::cout << spec.replicas << " replicas = " << total << " cells ("
              << to_string(spec.simulator) << ", threads=" << threads
              << ")\n";
  }

  SweepProgress progress = nullptr;
  if (!quiet) {
    progress = [total](std::size_t done, std::size_t) {
      if (done % 25 == 0 || done == total) {
        std::cerr << "  " << done << "/" << total << " cells\r";
        if (done == total) std::cerr << '\n';
      }
    };
  }

  // Tracing brackets the sweep itself (not flag parsing/validation); the
  // recorder's stop() below writes the trailer even on a failed cell.
  if (!trace_path.empty()) {
    cli::require_writable(trace_path, "--trace");
    trace::start(trace_path, "sweep_cli");
  }
  SweepResult result;
  try {
    result = runner.run(spec, executor, progress);
  } catch (...) {
    if (!trace_path.empty()) trace::stop();
    throw;
  }
  if (!trace_path.empty()) trace::stop();

  const std::vector<GroupSummary> groups = summarise(result);

  summary_table(groups).print(std::cout);
  std::size_t errors = 0;
  for (const CellResult& cell : result.cells) {
    if (!cell.ok) ++errors;
  }
  if (errors > 0) {
    std::cout << "\n" << errors << " cell(s) failed; see ";
    std::cout << (cells_csv.empty() ? "--cells-csv output" : cells_csv)
              << " for messages\n";
  }
  if (!quiet) {
    std::cout << "\n" << result.cells.size() << " cells in "
              << fmt(result.wall_seconds, 2) << " s ("
              << fmt(result.cells_per_second(), 1) << " cells/s)\n";
  }
  // Deterministic digest of every cell's outcome — what the CI smoke and
  // golden tests pin (thread-count independent by contract).
  std::cout << "digest=" << std::hex << cells_digest(result) << std::dec
            << "\n";

  if (!cells_csv.empty()) {
    write_cells_csv(cells_csv, result);
    if (!quiet) std::cout << "wrote " << cells_csv << "\n";
  }
  if (!summary_csv.empty()) {
    write_summary_csv(summary_csv, groups);
    if (!quiet) std::cout << "wrote " << summary_csv << "\n";
  }
  if (!hist_csv.empty()) {
    write_hist_csv(hist_csv, result);
    if (!quiet) std::cout << "wrote " << hist_csv << "\n";
  }
  return errors == 0 ? 0 : 1;
}

int run_main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) usage();
  const std::string& command = args[0];
  try {
    if (command == "list") return do_list();
    if (command == "run") {
      return do_run(cli::parse_flags(args, 1, {"quiet"}));
    }
  } catch (const cli::UsageError& e) {
    usage(e.what());
  } catch (const std::bad_alloc& e) {
    return cli::out_of_memory(e);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  usage("unknown command " + command);
}

}  // namespace
}  // namespace staleflow

int main(int argc, char** argv) { return staleflow::run_main(argc, argv); }
