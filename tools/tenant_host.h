// The world behind one WAL tenant manifest, rebuilt the one way every
// tool rebuilds it: route_server_cli serves it (fresh or resumed) and
// wal_replay_cli replays it. Replay's bit-exact check depends on both
// constructing the instance, policy and workload in the same order from
// the same seed, so there is exactly one definition.
#pragma once

#include <string>
#include <utility>

#include "cli_common.h"
#include "staleflow/staleflow.h"

namespace staleflow::cli {

/// The live objects behind one tenant manifest. Everything a tenant
/// borrows must outlive the engine or registry serving it.
struct Host {
  Instance instance;
  Policy policy;
  WorkloadPtr workload;
};

/// Rebuilds a manifest's instance/policy/workload exactly as a fresh run
/// would: same scenario registry, same seed-derived scenario Rng, same
/// grammar factories — the construction order the resume contract pins.
/// Unknown names and bad specs are usage errors.
inline Host make_host(const recovery::TenantManifest& manifest,
                      const ScenarioRegistry& registry) {
  require_known(manifest.scenario, registry.names(), "scenario");
  Rng scenario_rng(manifest.options.seed);
  Instance instance = registry.at(manifest.scenario).make(scenario_rng);
  Policy policy = usage_error([&] {
    return named_policy(manifest.policy)
        .make(instance, manifest.options.update_period);
  });
  WorkloadPtr workload =
      usage_error([&] { return make_workload(manifest.workload); });
  return Host{std::move(instance), std::move(policy), std::move(workload)};
}

/// The registry name of a manifest tenant: a solo run (unnamed in the
/// WAL header) is served as the one tenant "run".
inline std::string tenant_label(const recovery::TenantManifest& tenant) {
  return tenant.name.empty() ? std::string("run") : tenant.name;
}

}  // namespace staleflow::cli
