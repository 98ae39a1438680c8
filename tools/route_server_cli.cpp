// route_server_cli — run the online stale-routing service engine.
//
// Usage:
//   route_server_cli run [--scenario <name>] [--policy <spec>]
//                        [--period <T>] [--epochs <n>] [--clients <n>]
//                        [--workload <spec>] [--shards <k>]
//                        [--sub-batch <q>|auto] [--threads <k>]
//                        [--seed <s>] [--deterministic] [--csv <path>]
//                        [--tenants <spec>[;<spec>...]]
//                        [--wal <path> | --resume <path>]
//                        [--faults <spec>] [--trace <path>] [--progress <n>]
//                        [--report-every <n>] [--quiet]
//   route_server_cli list
//
// `list` prints the scenario catalogue plus the policy, workload,
// tenant and fault grammars — the library's own strings. Every number
// in a flag or spec follows one rule (util/spec_parse.h); a bad one
// exits 2. `run` serves the workload for the configured number of
// epochs, printing per-epoch telemetry and a final summary including a
// digest of the deterministic telemetry (used by the CI golden test).
// The only wall-clock figures are throughput and wall seconds, per epoch
// and per run; per-query serve time is read from --trace sub-batch spans
// (trace_dump_cli). With --deterministic there are no wall-clock figures
// and the CSV holds only deterministic columns — byte-identical for any
// --threads.
//
// Every run is served by a TenantRegistry on one executor: a solo run is
// the one tenant "run", and only the banner, the per-epoch report and
// the result lines differ. --tenants switches to multi-tenant mode: each
// ;-separated spec (kTenantGrammar, printed by `list`) hosts one
// independent serving instance, all multiplexed on ONE shared executor;
// unset keys inherit the top-level flags (seed defaults to --seed +
// tenant position). Every tenant gets its own digest[<name>]= line and,
// with --csv out.csv, its own out.<name>.csv — per-tenant telemetry that
// is byte-identical to the same tenant served alone, at any --threads.
//
// Crash recovery (src/recovery/): --wal <path> writes a write-ahead
// epoch log — the run's full configuration, then every scheduler
// round's cuts and committing round mark — alongside the run. --resume
// <path> recovers a crashed run from its WAL and serves only the
// remaining epochs, appending to the same file; the resumed run's
// digests are byte-identical to the uninterrupted run's. --resume takes
// the ENTIRE dynamics configuration from the WAL header, so
// configuration flags (--scenario, --seed, --epochs, ...) conflict with
// it; runtime knobs (--threads, --csv, --report-every, --quiet, --trace,
// --progress) remain legal. A WAL whose header reads pipeline=1 was
// written by the retired pipelined schedule; it resumes like any other.
// Inspect or re-execute a WAL offline with wal_replay_cli.
//
// Fault injection (src/faults/): --faults <spec> schedules typed faults
// (shard slowdowns, worker stalls, dropped telemetry, tenant brownouts,
// a mid-run crash point) whose activation windows are drawn from a
// seed-derived stream — every chaos run is bit-for-bit replayable. The
// spec is part of the dynamics configuration: it is recorded in the WAL
// header (so --resume rebuilds the exact schedule) and conflicts with
// --resume on the command line like any config flag. A crash clause
// exits 137 right after its commit point — compose with --wal and
// re-run with --resume to finish the run.
//
// Observability (src/trace/): --trace <path> records the run's binary
// trace (epoch/sub-batch/publish spans, scheduler rounds, WAL appends,
// counter samples) for offline analysis with trace_dump_cli. Tracing is
// wall-clock telemetry only: digests with and without --trace are
// byte-identical. --progress <n> prints a stderr heartbeat every n
// epochs (epochs/s and the last route_p99) — never part of the digest
// or the CSV.
#include <algorithm>
#include <cstdlib>
#include <deque>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cli_common.h"
#include "staleflow/staleflow.h"
#include "tenant_host.h"

namespace staleflow {
namespace {

constexpr const char* kRecoveryGrammar =
    "recovery:  --wal <path> logs every epoch cut to a write-ahead log;\n"
    "           --resume <path> continues a crashed run from its WAL\n"
    "           (configuration flags conflict — the WAL header is the\n"
    "           configuration; --threads/--csv/--report-every/--quiet ok)\n";
constexpr const char* kTraceGrammar =
    "tracing:   --trace <path> records a binary trace for trace_dump_cli\n"
    "           (digest-neutral); --progress <n> prints a stderr\n"
    "           heartbeat every n epochs (epochs/s, last route_p99)\n";

/// The flags that ARE the run's dynamics configuration — all of them
/// recorded in the WAL header, hence all of them conflicts with --resume.
const std::set<std::string> kConfigFlags = {
    "scenario", "policy",    "workload", "tenants", "period",
    "epochs",   "clients",   "shards",   "sub-batch",
    "seed",     "deterministic", "faults"};

/// The grammars `list` and the usage text end with; the spec grammars
/// are the library's own strings.
void print_grammars(std::ostream& out) {
  out << "policies:  " << kPolicyGrammar << "\nworkloads: " << kWorkloadGrammar
      << "\ntenants:   " << kTenantGrammar
      << "; unset keys inherit the top-level flags\n"
      << kRecoveryGrammar << kTraceGrammar
      << "faults:    --faults \"<spec>\" with " << faults::kFaultGrammar
      << ";\n           omitted at/for windows are drawn from a seed-derived\n"
         "           stream (deterministic chaos)\n";
}

[[noreturn]] void usage(const std::string& error = "") {
  if (!error.empty()) std::cerr << "error: " << error << "\n\n";
  std::cerr <<
      "usage:\n"
      "  route_server_cli run [--scenario <name>] [--policy <spec>]\n"
      "                       [--period <T>] [--epochs <n>] [--clients <n>]\n"
      "                       [--workload <spec>] [--shards <k>]\n"
      "                       [--sub-batch <q>|auto] [--threads <k>]\n"
      "                       [--seed <s>] [--deterministic] [--csv <path>]\n"
      "                       [--tenants <spec>[;<spec>...]]\n"
      "                       [--wal <path> | --resume <path>]\n"
      "                       [--faults <spec>] [--trace <path>]\n"
      "                       [--progress <n>] [--report-every <n>]\n"
      "                       [--quiet]\n"
      "  route_server_cli list\n";
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

/// The --progress heartbeat: epochs/s and the last route_p99, to stderr
/// only — wall-clock chatter that never reaches the digest or the CSV.
class ProgressMeter {
 public:
  explicit ProgressMeter(std::size_t every) : every_(every) {}

  void tick(const EpochSummary& summary) {
    ++count_;
    if (every_ == 0 || count_ % every_ != 0) return;
    // safe_rate: a first tick inside the clock's resolution must not
    // print inf epochs/s (or divide by zero).
    const double rate =
        cli::safe_rate(static_cast<double>(count_), watch_.seconds());
    std::cerr << "progress: " << count_ << " epochs, " << fmt(rate, 1)
              << " epochs/s, last route_p99 " << fmt(summary.route_p99, 4)
              << "\n";
  }

 private:
  std::size_t every_;
  std::size_t count_ = 0;
  Stopwatch watch_;
};

/// "epochs.csv" + "a" -> "epochs.a.csv" (no extension: "out" -> "out.a").
std::string tenant_csv_path(const std::string& base,
                            const std::string& name) {
  const std::size_t dot = base.find_last_of('.');
  const std::size_t slash = base.find_last_of("/\\");
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash)) {
    return base + "." + name;
  }
  return base.substr(0, dot) + "." + name + base.substr(dot);
}

/// Materializes the manifest's --faults spec against the run's seed and
/// epoch horizon (max over tenants). Fresh and resumed runs call this
/// with the same manifest bits — the WAL header carries the spec — so a
/// resumed chaos run rebuilds the crashed run's exact fault timing.
/// Returns an empty schedule for a healthy manifest.
faults::FaultSchedule make_fault_schedule(
    const recovery::RunManifest& manifest, bool quiet) {
  if (manifest.faults.empty()) return {};
  std::size_t epochs = 0;
  for (const recovery::TenantManifest& tenant : manifest.tenants) {
    epochs = std::max(epochs, tenant.options.epochs);
  }
  faults::FaultSchedule schedule = cli::usage_error([&] {
    return faults::FaultSchedule::materialize(
        faults::parse_fault_plan(manifest.faults),
        manifest.tenants.front().options.seed, epochs);
  });
  if (!quiet) {
    std::cout << "faults: " << manifest.faults << " ("
              << schedule.faults().size() << " windows)\n";
  }
  return schedule;
}

void print_resume_banner(const recovery::RecoveredRun& state, bool quiet) {
  if (quiet) return;
  if (state.truncated) {
    std::cout << "wal: discarded uncommitted tail (" << state.note << ")\n";
  }
  std::cout << "wal: resuming at round " << state.rounds;
  for (std::size_t i = 0; i < state.manifest.tenants.size(); ++i) {
    const recovery::TenantManifest& tenant = state.manifest.tenants[i];
    std::cout << (i == 0 ? ": " : ", ") << cli::tenant_label(tenant) << " "
              << state.cuts[i].size() << "/" << tenant.options.epochs
              << " epochs done";
  }
  std::cout << "\n";
}

/// Tail of a solo run (fresh, WAL-logged or resumed): summary lines,
/// digest, CSV.
int print_single_result(const RouteServerResult& result, bool record_latency,
                        const std::string& csv_path, bool quiet) {
  std::cout << result.total_queries << " queries, "
            << result.total_migrations << " migrations over "
            << result.epochs.size() << " epochs; final gap "
            << fmt(result.final_gap, 6) << "\n";
  if (record_latency) {
    std::cout << "throughput " << fmt(result.queries_per_second / 1e6, 3)
              << " Mq/s (" << fmt(result.wall_seconds, 2) << " s wall)\n";
  }
  std::cout << "digest=" << std::hex << telemetry_digest(result.epochs)
            << std::dec << "\n";
  if (!csv_path.empty()) {
    write_epoch_csv(csv_path, result.epochs, record_latency);
    if (!quiet) std::cout << "wrote " << csv_path << "\n";
  }
  return 0;
}

/// Tail of a multi-tenant run.
int print_multi_result(const MultiTenantResult& result, bool record_latency,
                       const std::string& csv_path, bool quiet) {
  for (const TenantResult& tenant : result.tenants) {
    std::cout << "tenant " << tenant.name << ": "
              << tenant.server.total_queries << " queries, "
              << tenant.server.total_migrations << " migrations over "
              << tenant.server.epochs.size() << " epochs; final gap "
              << fmt(tenant.server.final_gap, 6) << "\n";
    std::cout << "digest[" << tenant.name << "]=" << std::hex
              << telemetry_digest(tenant.server.epochs) << std::dec << "\n";
    if (!csv_path.empty()) {
      const std::string path = tenant_csv_path(csv_path, tenant.name);
      write_epoch_csv(path, tenant.server.epochs, record_latency);
      if (!quiet) std::cout << "wrote " << path << "\n";
    }
  }
  std::cout << result.total_queries() << " queries over "
            << result.total_epochs() << " epochs in " << result.rounds
            << " rounds";
  if (record_latency && result.wall_seconds > 0.0) {
    std::cout << "; " << fmt(result.wall_seconds, 2) << " s wall, "
              << fmt(static_cast<double>(result.total_epochs()) /
                         result.wall_seconds,
                     1)
              << " epochs/s aggregate";
  }
  std::cout << "\n";
  return 0;
}

/// The per-epoch report line. A solo run reports every report_every-th
/// epoch and its last one, with wall-clock throughput when recorded; a
/// multi-tenant run prefixes each line with the tenant's name.
TenantObserver make_reporter(const recovery::RunManifest& manifest,
                             const TenantRegistry& tenants,
                             std::size_t report_every) {
  if (manifest.multi_tenant) {
    return [&tenants, report_every](std::size_t tenant,
                                    const EpochSummary& e) {
      if (e.epoch % report_every != 0) return;
      std::cout << "  [" << tenants.name(tenant) << "] epoch " << e.epoch
                << ": " << e.queries << " queries, migration rate "
                << fmt(e.migration_rate, 4) << ", gap "
                << fmt(e.wardrop_gap, 6) << "\n";
    };
  }
  const std::size_t total_epochs = manifest.tenants.front().options.epochs;
  return [report_every, total_epochs](std::size_t, const EpochSummary& e) {
    if (e.epoch % report_every != 0 && e.epoch + 1 != total_epochs) {
      return;
    }
    std::cout << "  epoch " << e.epoch << ": " << e.queries
              << " queries, migration rate " << fmt(e.migration_rate, 4)
              << ", gap " << fmt(e.wardrop_gap, 6) << ", board latency "
              << fmt(e.board_latency, 4);
    if (e.queries_per_second > 0.0) {
      std::cout << ", " << fmt(e.queries_per_second / 1e6, 2) << " Mq/s";
    }
    std::cout << "\n";
  };
}

/// Serves a resolved manifest — solo or --tenants, fresh or resumed — as
/// a TenantRegistry on one shared executor (a solo run is the one tenant
/// "run"). `resume`, when set, replaces spec resolution entirely — the
/// manifests come from the WAL — and `wal_path` is the file being
/// appended to. Only the banner, the per-epoch report and the result
/// printing depend on manifest.multi_tenant.
int run_manifest(const std::string& wal_path,
                 const recovery::RunManifest& manifest,
                 const recovery::RecoveredRun* resume, std::size_t threads,
                 const std::string& csv_path, std::size_t report_every,
                 std::size_t progress_every, bool quiet) {
  // First, so a thread count the host cannot run exits 2 before any
  // client state is built or a WAL is written.
  Executor executor = cli::usage_error([&] { return Executor(threads); });
  const ScenarioRegistry registry = ScenarioRegistry::builtin();
  const faults::FaultSchedule fault_schedule =
      make_fault_schedule(manifest, quiet);
  std::deque<cli::Host> hosts;  // stable addresses: the registry borrows
  TenantRegistry tenants;
  for (const recovery::TenantManifest& tenant : manifest.tenants) {
    const cli::Host& host =
        hosts.emplace_back(cli::make_host(tenant, registry));
    TenantOptions options;
    options.server = tenant.options;
    // All tenants share the run's one fault schedule; per-tenant clauses
    // select their victim with tenant= (registry index).
    options.server.faults =
        fault_schedule.empty() ? nullptr : &fault_schedule;
    options.weight = tenant.weight;
    cli::usage_error([&] {
      tenants.add(cli::tenant_label(tenant), host.instance, host.policy,
                  *host.workload, options);
      return 0;
    });
  }

  const recovery::TenantManifest& first = manifest.tenants.front();
  const bool record_latency = first.options.record_latency;
  if (!quiet && manifest.multi_tenant) {
    std::cout << "route_server: " << tenants.size()
              << " tenants on one executor (threads=" << threads
              << (record_latency ? "" : ", deterministic") << ")\n";
  } else if (!quiet) {
    const cli::Host& host = hosts.front();
    const RouteServerOptions& options = first.options;
    std::cout << "route_server: " << first.scenario << " ("
              << host.instance.describe() << ")\n  policy "
              << host.policy.name() << ", workload " << host.workload->name()
              << ", T=" << options.update_period << ", epochs="
              << options.epochs << ", clients=" << options.num_clients
              << ", shards=" << options.shards << ", threads=" << threads
              << (record_latency ? "" : ", deterministic") << "\n";
  }

  TenantObserver observer = nullptr;
  if (!quiet && report_every > 0) {
    observer = make_reporter(manifest, tenants, report_every);
  }
  if (progress_every > 0) {
    // Heartbeat counts epochs across ALL tenants (the host's serving
    // rate), chained in front of the reporting observer.
    auto meter = std::make_shared<ProgressMeter>(progress_every);
    observer = [meter, inner = std::move(observer)](
                   std::size_t tenant, const EpochSummary& e) {
      meter->tick(e);
      if (inner) inner(tenant, e);
    };
  }

  std::optional<recovery::WalLog> log;
  RegistryResume registry_state;
  const RegistryResume* resume_state = nullptr;
  if (resume != nullptr) {
    print_resume_banner(*resume, quiet);
    log.emplace(wal_path, *resume);
    registry_state = recovery::registry_resume(*resume);
    resume_state = &registry_state;
  } else if (!wal_path.empty()) {
    log.emplace(wal_path, manifest);
  }

  if (!fault_schedule.empty()) executor.set_fault_schedule(&fault_schedule);
  // Options the library rejects (a zero epoch budget, more shards than
  // clients, an offered load past the Poisson sampler's range) surface
  // as invalid_argument from the first epoch: usage errors, exit 2.
  const MultiTenantResult result = cli::usage_error([&] {
    return tenants.run(executor, observer,
                       log ? log->round_observer() : RoundCutObserver{},
                       resume_state);
  });
  if (log) log->finish();
  if (manifest.multi_tenant) {
    return print_multi_result(result, record_latency, csv_path, quiet);
  }
  return print_single_result(result.tenants.front().server, record_latency,
                             csv_path, quiet);
}

/// Resolves --tenants specs against the top-level defaults into the WAL
/// manifest shape (also used WITHOUT a WAL — the manifest is simply the
/// resolved configuration).
recovery::RunManifest resolve_tenant_manifest(
    const std::string& tenants_flag, const std::string& default_scenario,
    const std::string& default_policy, const std::string& default_workload,
    const RouteServerOptions& defaults) {
  const std::vector<TenantSpec> specs =
      cli::usage_error([&] { return parse_tenant_specs(tenants_flag); });
  recovery::RunManifest manifest;
  manifest.multi_tenant = true;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const TenantSpec& spec = specs[i];
    recovery::TenantManifest tenant;
    tenant.name = spec.name;
    tenant.options = defaults;
    if (spec.clients) tenant.options.num_clients = *spec.clients;
    if (spec.shards) tenant.options.shards = *spec.shards;
    if (spec.epochs) tenant.options.epochs = *spec.epochs;
    if (spec.period) tenant.options.update_period = *spec.period;
    tenant.options.seed =
        spec.seed ? *spec.seed : defaults.seed + i;  // distinct by default
    if (spec.sub_batch) {
      tenant.options.sub_batch_queries = *spec.sub_batch;
      tenant.options.sub_batch_auto = false;
    } else if (spec.sub_batch_auto) {
      tenant.options.sub_batch_auto = true;
    }
    tenant.weight = spec.weight ? *spec.weight : 1;
    tenant.scenario =
        spec.scenario.empty() ? default_scenario : spec.scenario;
    tenant.policy = spec.policy.empty() ? default_policy : spec.policy;
    tenant.workload =
        spec.workload.empty() ? default_workload : spec.workload;
    if (tenant.workload.empty()) {
      tenant.workload =
          "poisson:" + std::to_string(tenant.options.num_clients);
    }
    manifest.tenants.push_back(std::move(tenant));
  }
  return manifest;
}

/// --resume: the WAL header is the configuration (the schedule
/// included); serve what remains.
int do_resume(const std::string& path, std::size_t threads,
              const std::string& csv_path, std::size_t report_every,
              std::size_t progress_every, bool quiet) {
  recovery::RecoveredRun state;
  try {
    state = recovery::recover_wal(path);
  } catch (const std::runtime_error& e) {
    throw cli::UsageError(e.what());
  }

  if (state.clean_shutdown) {
    // Nothing to serve: report the completed run's digests and succeed —
    // retry-after-crash loops can re-run the same command line safely.
    std::cout << "wal: run already completed cleanly; nothing to resume\n";
    for (std::size_t i = 0; i < state.manifest.tenants.size(); ++i) {
      const std::string& name = state.manifest.tenants[i].name;
      if (name.empty()) {
        std::cout << "digest=";
      } else {
        std::cout << "digest[" << name << "]=";
      }
      std::cout << std::hex << state.digests[i] << std::dec << "\n";
    }
    return 0;
  }

  return run_manifest(path, state.manifest, &state, threads, csv_path,
                      report_every, progress_every, quiet);
}

/// Starts the recorder for --trace and guarantees the trailer is written
/// on every exit path (including UsageError/exception unwinds).
class TraceScope {
 public:
  explicit TraceScope(const std::string& path) {
    if (path.empty()) return;
    cli::require_writable(path, "--trace");
    trace::start(path, "route_server_cli");
    started_ = true;
  }
  ~TraceScope() {
    if (started_) trace::stop();
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  bool started_ = false;
};

int do_run(const std::map<std::string, std::string>& flags) {
  std::string scenario_name = "braess";
  std::string policy_name = "replicator";
  std::string workload_spec;  // default derived from --clients below
  std::string tenants_flag;
  bool tenants_given = false;  // an EMPTY --tenants is "zero tenants"
  RouteServerOptions options;
  options.epochs = 50;
  std::string csv_path;
  std::string trace_path;
  std::string faults_spec;
  std::size_t report_every = 10;
  std::size_t progress_every = 0;
  bool quiet = false;
  cli::RecoveryFlags recovery_flags;

  for (const auto& [key, value] : flags) {
    if (key == "scenario") {
      scenario_name = value;
    } else if (key == "policy") {
      policy_name = value;
    } else if (key == "workload") {
      workload_spec = value;
    } else if (key == "tenants") {
      tenants_flag = value;
      tenants_given = true;
    } else if (key == "period") {
      options.update_period = cli::parse_number(value, "--period");
    } else if (key == "epochs") {
      options.epochs = cli::parse_count(value, "--epochs");
    } else if (key == "clients") {
      options.num_clients = cli::parse_count(value, "--clients");
    } else if (key == "shards") {
      options.shards = cli::parse_count(value, "--shards");
    } else if (key == "sub-batch") {
      if (value == "auto") {
        options.sub_batch_auto = true;
      } else {
        options.sub_batch_queries = cli::parse_count(value, "--sub-batch");
      }
    } else if (key == "threads") {
      options.threads = cli::parse_count(value, "--threads");
    } else if (key == "seed") {
      options.seed = cli::parse_count(value, "--seed");
    } else if (key == "deterministic") {
      options.record_latency = false;
    } else if (key == "csv") {
      csv_path = value;
    } else if (key == "wal") {
      recovery_flags.wal = value;
    } else if (key == "resume") {
      recovery_flags.resume = value;
    } else if (key == "trace") {
      trace_path = value;
    } else if (key == "faults") {
      // Eager grammar check: a typo'd spec must exit 2 before any epoch
      // is served (the schedule itself is materialized per run path).
      const faults::FaultPlan plan =
          cli::usage_error([&] { return faults::parse_fault_plan(value); });
      faults_spec = plan.empty() ? std::string() : value;
    } else if (key == "progress") {
      progress_every = cli::parse_count(value, "--progress");
    } else if (key == "report-every") {
      report_every = cli::parse_count(value, "--report-every");
    } else if (key == "quiet") {
      quiet = true;
    } else {
      usage("unknown flag --" + key);
    }
  }
  cli::validate_recovery_flags(recovery_flags, flags, kConfigFlags);

  // --trace/--progress are runtime knobs (wall-clock telemetry only), so
  // like --threads/--csv they stay legal alongside --resume.
  const TraceScope trace_scope(trace_path);

  if (recovery_flags.resuming()) {
    return do_resume(recovery_flags.resume, options.threads, csv_path,
                     report_every, progress_every, quiet);
  }

  recovery::RunManifest manifest;
  if (tenants_given) {
    manifest = resolve_tenant_manifest(tenants_flag, scenario_name,
                                       policy_name, workload_spec, options);
  } else {
    // Default offered load: every client activates once per unit time on
    // average, the finite-population analogue of the paper's unit-rate
    // Poisson clocks.
    recovery::TenantManifest self;
    self.scenario = scenario_name;
    self.policy = policy_name;
    self.workload = workload_spec.empty()
                        ? "poisson:" + std::to_string(options.num_clients)
                        : workload_spec;
    self.options = options;
    manifest.tenants.push_back(std::move(self));
  }
  manifest.faults = faults_spec;
  return run_manifest(recovery_flags.wal, manifest, nullptr, options.threads,
                      csv_path, report_every, progress_every, quiet);
}

int run_main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) usage();
  const std::string& command = args[0];
  try {
    if (command == "list") return do_list();
    if (command == "run") {
      return do_run(cli::parse_flags(args, 1, {"quiet", "deterministic"}));
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
