#include "session.h"

#include <algorithm>
#include <deque>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "exec/executor.h"
#include "net/flow.h"
#include "recovery/run_log.h"
#include "service/tenant.h"
#include "service/telemetry.h"
#include "stats.h"
#include "sweep/scenario.h"
#include "sweep/spec.h"

namespace perfbench {

using namespace staleflow;

Workload find_workload(const std::string& name) {
  const std::size_t nproc =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  Workload w;
  w.name = name;
  if (name == "serve-steady") {
    // Solo, one inline thread, batches below the split threshold: the
    // per-query serve path plus the 50k-client set-up.
    w.threads = 1;
    w.tenants = {{"", "random-links-32", "closed-loop:200000", 50'000, 32, 1,
                  60, 200'000}};
    w.pinned = {0x334d3f4976d6f560ULL};
  } else if (name == "bursty-split") {
    // Solo on the pool: peak epochs split into ~128 serve nodes, off
    // epochs into 32 small ones. One core stays free for the rest of the
    // machine: with a worker on every core the fold barrier waits on
    // whichever core the host happens to be slowing (on a 4-core VM, 4
    // threads spread 17-21% across ten seeds, 3 threads 14%).
    w.threads = std::clamp<std::size_t>(nproc - 1, 2, 4);
    w.sub_batch = 2048;
    w.tenants = {{"", "random-links-32", "bursty:4000000,200000,3,2", 50'000,
                  32, 1, 100, 0}};
    w.pinned = {0xc0822275c7347104ULL};
  } else if (name == "tenants-durable") {
    // Four small heterogeneous tenants with WAL logging: per-epoch
    // boundary work and the write path dominate.
    w.registry = true;
    w.threads = 2;
    w.tenants = {
        {"grid", "multicommodity-grid-3x3", "closed-loop:4000", 4000, 8, 1,
         150, 4000},
        {"layer", "layered-4x3", "poisson:80000", 4000, 8, 1, 150, 0},
        {"braess", "braess", "closed-loop:4000", 2000, 4, 2, 300, 4000},
        {"links", "random-links-32", "diurnal:100000,0.8,5", 8000, 8, 1, 150,
         0},
    };
    w.pinned = {0x02b0c533f4351f9cULL, 0x171807e492331d93ULL,
                0xa9bcf4b05acb93aaULL, 0xe448a106196d0f47ULL};
  } else {
    throw std::invalid_argument(
        "unknown workload '" + name +
        "' (known: serve-steady, bursty-split, tenants-durable)");
  }
  return w;
}

Host make_host(const TenantShape& shape, std::uint64_t seed) {
  Rng scenario_rng(seed);
  Instance instance =
      ScenarioRegistry::builtin().at(shape.scenario).make(scenario_rng);
  Policy policy = named_policy(kPolicy).make(instance, kPeriod);
  return Host{std::move(instance), std::move(policy),
              make_workload(shape.workload)};
}

RouteServerOptions server_options(const Workload& workload,
                                  const TenantShape& shape,
                                  std::uint64_t seed, bool record_latency) {
  RouteServerOptions options;
  options.update_period = kPeriod;
  options.epochs = shape.epochs;
  options.num_clients = shape.clients;
  options.shards = shape.shards;
  options.threads = workload.threads;
  options.sub_batch_queries = workload.sub_batch;
  options.pipeline = true;
  options.seed = seed;
  options.record_latency = record_latency;
  return options;
}

namespace {

recovery::RunManifest manifest_of(const Workload& workload,
                                  std::uint64_t seed, bool record_latency) {
  recovery::RunManifest manifest;
  manifest.multi_tenant = workload.registry;
  manifest.pipeline = true;
  for (std::size_t i = 0; i < workload.tenants.size(); ++i) {
    const TenantShape& shape = workload.tenants[i];
    recovery::TenantManifest tenant;
    tenant.name = shape.name;
    tenant.scenario = shape.scenario;
    tenant.policy = kPolicy;
    tenant.workload = shape.workload;
    tenant.options = server_options(workload, shape, tenant_seed(seed, i),
                                    record_latency);
    tenant.weight = shape.weight;
    manifest.tenants.push_back(std::move(tenant));
  }
  return manifest;
}

void fail(Session& session, const std::string& what) {
  session.failures.push_back(what);
}

/// The per-tenant invariants that hold at any seed.
void check_tenant(const TenantShape& shape, const Instance& instance,
                  const RouteServerResult& result, Session& session) {
  const std::string who = shape.name.empty() ? "server" : shape.name;
  if (result.epochs.size() != shape.epochs) {
    fail(session, who + ": served " + std::to_string(result.epochs.size()) +
                      " epochs, expected " + std::to_string(shape.epochs));
  }
  if (shape.closed_loop != 0 &&
      result.total_queries != shape.epochs * shape.closed_loop) {
    fail(session, who + ": closed loop served " +
                      std::to_string(result.total_queries) +
                      " queries, expected " +
                      std::to_string(shape.epochs * shape.closed_loop));
  }
  if (!is_feasible(instance, result.final_flow.values(), 1e-6)) {
    fail(session, who + ": final flow is infeasible");
  }
}

/// Recovers the session's WAL, checks it against the run, deletes it.
void check_wal(const Workload& workload, const std::string& path,
               Session& session) {
  session.wal_bytes = std::filesystem::file_size(path);
  const std::uint64_t begin = now_ns();
  const recovery::RecoveredRun recovered = recovery::recover_wal(path);
  session.recover_s = static_cast<double>(now_ns() - begin) * 1e-9;
  std::filesystem::remove(path);
  if (!recovered.clean_shutdown) fail(session, "wal: no clean shutdown");
  if (recovered.digests != session.digests) {
    fail(session, "wal: recovered digests differ from the run's");
  }
  for (std::size_t i = 0; i < workload.tenants.size(); ++i) {
    if (i >= recovered.cuts.size() ||
        recovered.cuts[i].size() != workload.tenants[i].epochs) {
      fail(session, "wal: tenant " + std::to_string(i) +
                        " recovered a short cut prefix");
    }
  }
}

Session run_solo(const Workload& workload, const SessionOptions& options) {
  Session session;
  const TenantShape& shape = workload.tenants.front();
  session.mark_ns.reserve(shape.epochs + 1);
  session.mark_queries.reserve(shape.epochs + 1);
  session.mark_epochs.reserve(shape.epochs + 1);
  session.append_ns.reserve(shape.epochs + 1);
  const std::uint64_t start = now_ns();

  const Host host = make_host(shape, tenant_seed(options.seed, 0));
  const RouteServerOptions server = server_options(
      workload, shape, tenant_seed(options.seed, 0), options.record_latency);
  std::optional<recovery::WalLog> log;
  CutObserver cuts;
  if (!options.wal_path.empty()) {
    log.emplace(options.wal_path,
                manifest_of(workload, options.seed, options.record_latency));
    cuts = [&session, inner = log->single_observer()](
               const EngineCheckpoint& cut) {
      const std::uint64_t begin = now_ns();
      inner(cut);
      session.append_ns.push_back(now_ns() - begin);
    };
  }

  std::size_t peak = 0;
  const EpochObserver observer = [&](const EpochSummary& epoch) {
    session.mark_ns.push_back(now_ns() - start);
    session.queries += epoch.queries;
    ++session.tenant_epochs;
    session.mark_queries.push_back(session.queries);
    session.mark_epochs.push_back(session.tenant_epochs);
    peak = std::max(peak, epoch.queries);
  };
  RouteServer route_server(host.instance, host.policy, *host.workload);
  const RouteServerResult result = route_server.run(
      FlowVector::uniform(host.instance), server, observer, cuts);
  if (log) log->finish();
  session.wall_s = static_cast<double>(now_ns() - start) * 1e-9;

  session.digests = {telemetry_digest(result.epochs)};
  session.peak_queries = {peak};
  check_tenant(shape, host.instance, result, session);
  if (log) check_wal(workload, options.wal_path, session);
  return session;
}

Session run_registry(const Workload& workload,
                     const SessionOptions& options) {
  if (options.wal_path.empty()) {
    throw std::invalid_argument("the registry workload needs a WAL path");
  }
  Session session;
  std::size_t rounds_hint = 0;
  for (const TenantShape& shape : workload.tenants) {
    session.cycle = std::max(session.cycle, shape.weight);
    rounds_hint = std::max(rounds_hint, shape.epochs);
  }
  rounds_hint += 2 * session.cycle;
  session.mark_ns.reserve(rounds_hint);
  session.mark_queries.reserve(rounds_hint);
  session.mark_epochs.reserve(rounds_hint);
  session.append_ns.reserve(rounds_hint);
  const std::uint64_t start = now_ns();

  // Hosts live in a deque: the registry borrows their addresses.
  std::deque<Host> hosts;
  TenantRegistry registry;
  for (std::size_t i = 0; i < workload.tenants.size(); ++i) {
    const TenantShape& shape = workload.tenants[i];
    hosts.push_back(make_host(shape, tenant_seed(options.seed, i)));
    TenantOptions tenant;
    tenant.server = server_options(workload, shape, tenant_seed(options.seed, i),
                                   options.record_latency);
    tenant.weight = shape.weight;
    registry.add(shape.name, hosts.back().instance, hosts.back().policy,
                 *hosts.back().workload, tenant);
  }
  Executor executor(workload.threads);
  recovery::WalLog log(
      options.wal_path,
      manifest_of(workload, options.seed, options.record_latency));

  std::vector<std::size_t> peak(workload.tenants.size(), 0);
  const TenantObserver observer = [&](std::size_t tenant,
                                      const EpochSummary& epoch) {
    session.queries += epoch.queries;
    ++session.tenant_epochs;
    peak[tenant] = std::max(peak[tenant], epoch.queries);
  };
  // The round mark is taken as the round's WAL append starts, so the
  // interval between marks holds one full round including its append.
  const RoundCutObserver rounds = [&session, start,
                                   inner = log.round_observer()](
                                      const RoundCheckpoint& round) {
    const std::uint64_t begin = now_ns();
    session.mark_ns.push_back(begin - start);
    session.mark_queries.push_back(session.queries);
    session.mark_epochs.push_back(session.tenant_epochs);
    inner(round);
    session.append_ns.push_back(now_ns() - begin);
  };
  const MultiTenantResult result = registry.run(executor, observer, rounds);
  log.finish();
  session.wall_s = static_cast<double>(now_ns() - start) * 1e-9;

  for (std::size_t i = 0; i < result.tenants.size(); ++i) {
    const RouteServerResult& server = result.tenants[i].server;
    session.digests.push_back(telemetry_digest(server.epochs));
    check_tenant(workload.tenants[i], hosts[i].instance, server, session);
  }
  session.peak_queries = std::move(peak);
  check_wal(workload, options.wal_path, session);
  return session;
}

}  // namespace

Session run_session(const Workload& workload, const SessionOptions& options) {
  Session session = workload.registry ? run_registry(workload, options)
                                      : run_solo(workload, options);
  if (!session.mark_ns.empty()) {
    session.setup_s = static_cast<double>(session.mark_ns.front()) * 1e-9;
  }
  return session;
}

double session_qps(const Session& session) {
  if (session.mark_ns.size() < 2) return 0.0;
  const double seconds =
      static_cast<double>(session.mark_ns.back() - session.mark_ns.front()) *
      1e-9;
  return static_cast<double>(session.mark_queries.back() -
                             session.mark_queries.front()) /
         seconds;
}

double session_epochs_per_s(const Session& session) {
  if (session.mark_ns.size() < 2) return 0.0;
  const double seconds =
      static_cast<double>(session.mark_ns.back() - session.mark_ns.front()) *
      1e-9;
  return static_cast<double>(session.mark_epochs.back() -
                             session.mark_epochs.front()) /
         seconds;
}

void append_intervals_ms(const Session& session, std::size_t stride,
                         std::vector<double>& out) {
  for (std::size_t i = stride; i < session.mark_ns.size(); i += stride) {
    out.push_back(
        static_cast<double>(session.mark_ns[i] - session.mark_ns[i - stride]) *
        1e-6);
  }
}

}  // namespace perfbench
