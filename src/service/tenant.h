// Multi-tenant serving: many independent route-service instances
// multiplexed onto ONE shared executor.
//
// The paper's bulletin board is one shared stale view serving many
// selfish clients; a production host runs MANY such boards — independent
// tenants, each with its own scenario, policy, workload, client fleet,
// boards and telemetry stream — on one worker pool. TenantRegistry
// is that host. Each tenant is an EpochEngine; a scheduler round builds
// one combined TaskGraph holding one epoch per scheduled tenant (the
// engines share no mutable state, so their serve/fold/board nodes
// interleave freely on the pool) and runs it on the caller's Executor.
//
// Scheduling is weighted round-robin over epochs: per round every
// unfinished tenant accrues `weight` credits and runs one epoch when its
// credits reach the registry's maximum weight — so a weight-w tenant
// serves w epochs for every max_weight rounds, and tenants of different
// sizes make proportional progress. All weights 1 (the default) is plain
// round-robin. The schedule is a pure function of the weights and epoch
// budgets — never of threads or timing.
//
// serve_rounds() is that round loop, and it is the only host loop in the
// service: RouteServer::run drives it over its one engine at weight 1, so
// a solo run is a one-tenant registry by construction — same rounds, same
// round cuts, same crash points.
//
// Isolation contract (pinned by tests/tenant_test.cpp, `ctest -L
// tenant`): a tenant's deterministic telemetry — its per-epoch FNV digest,
// final flow, route-latency histogram — is byte-identical whether the
// tenant runs alone, co-scheduled with any mix of other tenants, or on
// any worker-thread count. Co-tenancy and parallelism change wall-clock
// figures only.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/policy.h"
#include "net/instance.h"
#include "service/checkpoint.h"
#include "service/route_server.h"
#include "service/workload.h"

namespace staleflow {

class Executor;

struct TenantOptions {
  /// The tenant's serving configuration (epochs, clients, shards, seed,
  /// sub-batch, latency recording, ...). `threads` is ignored: the
  /// registry serves every tenant on the executor handed to run().
  RouteServerOptions server;

  /// Relative epoch rate: the tenant serves `weight` epochs for every
  /// `max weight in the registry` scheduler rounds. Must be >= 1.
  std::size_t weight = 1;
};

/// One tenant's finished run, in registration order.
struct TenantResult {
  std::string name;
  RouteServerResult server;
};

struct MultiTenantResult {
  std::vector<TenantResult> tenants;  // registration order
  std::size_t rounds = 0;             // scheduler rounds executed
  double wall_seconds = 0.0;          // whole multiplexed run

  std::size_t total_queries() const noexcept;
  std::size_t total_epochs() const noexcept;
};

/// Called at every finished epoch with the tenant's registration index
/// and the epoch's summary. Invoked on the driving thread, between
/// scheduler rounds, in registration order within a round.
using TenantObserver =
    std::function<void(std::size_t tenant, const EpochSummary&)>;

class EpochEngine;

/// The host round loop. Each round every unfinished engine accrues its
/// weight in credits; engines whose credits reach the maximum weight
/// serve one epoch each in ONE combined TaskGraph on `executor`, then
/// finish it (calling `observer` with the engine's index). After the
/// round `round_cuts`, when set, receives the round count, the credits
/// and the cut of every engine that closed an epoch; then the crash
/// clause of `faults` (nullptr = none) is checked against the round
/// count. `engines` must be begun (and restored, for a resume). `rounds`
/// and `credits` are the scheduler state to start from (credits empty =
/// all zero). Returns the round count after the last round.
std::size_t serve_rounds(Executor& executor,
                         std::span<EpochEngine* const> engines,
                         std::span<const std::size_t> weights,
                         std::size_t rounds, std::vector<std::size_t> credits,
                         const faults::FaultSchedule* faults,
                         const TenantObserver& observer,
                         const RoundCutObserver& round_cuts);

class TenantRegistry {
 public:
  /// Registers a tenant. The instance, policy and workload must outlive
  /// the registry. Throws std::invalid_argument on an empty or duplicate
  /// name (names label result rows and per-tenant output files; they must
  /// be [A-Za-z0-9_-]+) or a zero weight. Server options are validated at
  /// run() (the RouteServer::run contract).
  void add(const std::string& name, const Instance& instance,
           const Policy& policy, const WorkloadGenerator& workload,
           const TenantOptions& options);

  std::size_t size() const noexcept { return tenants_.size(); }
  const std::string& name(std::size_t tenant) const;

  /// Serves every tenant's full epoch budget, multiplexed on `executor`
  /// (each tenant starting from the uniform split of its instance).
  /// Throws std::invalid_argument when the registry is empty or a
  /// tenant's options are invalid. May be called again for a fresh run
  /// (each run rebuilds every tenant's state from scratch).
  ///
  /// Recovery hooks: `rounds`, when set, is called after every scheduler
  /// round with the post-round credit state and the cut of every tenant
  /// that served an epoch (the multi-tenant WAL write path). `resume`,
  /// when set, restores every tenant's run prefix and the scheduler's
  /// round/credit state from a matching round boundary before serving —
  /// the remaining rounds replay exactly, so every tenant's deterministic
  /// telemetry is byte-identical to the uninterrupted run.
  /// resume->tenants and resume->credits must be empty or have one entry
  /// per tenant.
  MultiTenantResult run(Executor& executor,
                        const TenantObserver& observer = nullptr,
                        const RoundCutObserver& rounds = nullptr,
                        const RegistryResume* resume = nullptr);

 private:
  struct Tenant {
    std::string name;
    const Instance* instance = nullptr;
    const Policy* policy = nullptr;
    const WorkloadGenerator* workload = nullptr;
    TenantOptions options;
  };
  std::vector<Tenant> tenants_;
};

// --------------------------------------------------------------------------
// --tenants command-line grammar
// --------------------------------------------------------------------------

/// One tenant's textual configuration from a `--tenants` flag. Every
/// field but the name is optional; unset fields inherit the host tool's
/// top-level flags.
struct TenantSpec {
  std::string name;
  std::string scenario;  // empty = inherit
  std::string policy;    // empty = inherit
  std::string workload;  // empty = inherit
  std::optional<std::size_t> clients;
  std::optional<std::size_t> shards;
  std::optional<std::size_t> epochs;
  std::optional<double> period;
  std::optional<std::uint64_t> seed;
  std::optional<std::size_t> weight;
  std::optional<std::size_t> sub_batch;  // unset and !sub_batch_auto = inherit
  bool sub_batch_auto = false;
};

/// The `--tenants` grammar, as parse_tenant_specs' errors and the tools'
/// usage print it. `period` is a number, the other numeric keys counts
/// (util/spec_parse.h).
inline constexpr std::string_view kTenantGrammar =
    "<name>[:key=value,...][;<name>...] with keys scenario, policy, "
    "workload, clients, shards, epochs, period, seed, weight, sub-batch "
    "(a count or auto)";

/// Parses a `--tenants` value in kTenantGrammar: semicolon-separated
/// tenant specs (empty ones are skipped). Values may themselves
/// contain commas (e.g. workload=bursty:40000,2000,3,2): an item without
/// '=' continues the previous value. Repeated keys: the last one wins.
/// Throws std::invalid_argument (listing the key catalogue or the
/// offending item) on an empty spec list, an empty/illegal/duplicate
/// name, an unknown key, or a malformed value — name resolution
/// (scenario/policy/workload catalogues) is the caller's job.
std::vector<TenantSpec> parse_tenant_specs(const std::string& text);

}  // namespace staleflow
