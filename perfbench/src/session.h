// The benchmark's workloads and one "session" of a workload.
//
// A session is what a user of the service pays for once: build the
// instances, policy and workload generators, the executor and (for a
// durable host) the WAL header, then serve a fixed epoch budget through
// the public entry points — RouteServer::run for a solo server,
// TenantRegistry::run for the multi-tenant host, recovery::WalLog for
// logging. Everything is timed from outside: the session timestamps the
// epoch / round-observer callbacks and wraps the WAL observer, and adds
// no instrumentation to the library.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/policy.h"
#include "net/instance.h"
#include "service/route_server.h"
#include "service/workload.h"

namespace perfbench {

/// Seed at which the pinned digests below are checked.
inline constexpr std::uint64_t kDefaultSeed = 1;
/// Bulletin-board period T of every workload, and the epoch-turnaround
/// limit the epoch_p* metrics are read against.
inline constexpr double kPeriod = 0.05;
inline constexpr const char* kPolicy = "replicator";

/// One serving instance of a workload (the single server of a solo
/// workload, or one registry tenant).
struct TenantShape {
  std::string name;      // registry tenant name; "" for a solo server
  std::string scenario;  // ScenarioRegistry key
  std::string workload;  // workload spec (make_workload grammar)
  std::size_t clients = 0;
  std::size_t shards = 0;
  std::size_t weight = 1;
  std::size_t epochs = 0;       // epochs served per session
  std::size_t closed_loop = 0;  // closed-loop batch per epoch; 0 = open loop
};

struct Workload {
  std::string name;
  bool registry = false;  // TenantRegistry + WAL; otherwise one RouteServer
  std::size_t threads = 1;
  std::size_t sub_batch = 16384;  // RouteServerOptions::sub_batch_queries
  std::vector<TenantShape> tenants;
  /// telemetry_digest of each tenant's session at kDefaultSeed.
  std::vector<std::uint64_t> pinned;
};

/// The workload called `name`; throws std::invalid_argument naming the
/// known workloads otherwise.
Workload find_workload(const std::string& name);

/// Seed of tenant `index` in a run seeded `seed` (route_server_cli's
/// --tenants default: the run seed plus the tenant position).
inline std::uint64_t tenant_seed(std::uint64_t seed, std::size_t index) {
  return seed + index;
}

/// The live objects behind one tenant: built from its seed exactly as
/// route_server_cli builds them.
struct Host {
  staleflow::Instance instance;
  staleflow::Policy policy;
  staleflow::WorkloadPtr workload;
};
Host make_host(const TenantShape& shape, std::uint64_t seed);

staleflow::RouteServerOptions server_options(const Workload& workload,
                                             const TenantShape& shape,
                                             std::uint64_t seed,
                                             bool record_latency);

struct SessionOptions {
  std::uint64_t seed = kDefaultSeed;
  bool record_latency = true;
  /// WAL file. The registry workload always logs and needs one; a solo
  /// workload logs through WalLog::single_observer when it is set. The
  /// file is recovered, checked and deleted before the session returns.
  std::string wal_path;
};

struct Session {
  double setup_s = 0.0;  // session start to the first completion callback
  double wall_s = 0.0;   // session start to the end of serving
  /// Completion callbacks — epochs of a solo server, scheduler rounds of
  /// the registry — in ns since the session started, with the cumulative
  /// queries and tenant-epochs completed at each.
  std::vector<std::uint64_t> mark_ns;
  std::vector<std::uint64_t> mark_queries;
  std::vector<std::uint64_t> mark_epochs;
  /// WAL append time right after each mark (empty without a WAL).
  std::vector<std::uint64_t> append_ns;
  /// Marks per scheduler cycle: the registry's maximum tenant weight,
  /// 1 for a solo server.
  std::size_t cycle = 1;
  std::size_t queries = 0;
  std::size_t tenant_epochs = 0;
  std::vector<std::uint64_t> digests;     // per tenant
  std::vector<std::size_t> peak_queries;  // per tenant: largest epoch batch
  std::uint64_t wal_bytes = 0;            // WAL file size
  double recover_s = 0.0;                 // recover_wal on that file
  std::vector<std::string> failures;      // invariant checks that failed
};

Session run_session(const Workload& workload, const SessionOptions& options);

/// Queries per second between the first and last completion callback.
double session_qps(const Session& session);
/// Tenant-epochs per second over the same window.
double session_epochs_per_s(const Session& session);
/// Appends the intervals (ms) between every `stride`-th completion
/// callback to `out`.
void append_intervals_ms(const Session& session, std::size_t stride,
                         std::vector<double>& out);

}  // namespace perfbench
