// Checkpoint state of the serving engines — the cut points the recovery
// WAL persists.
//
// The determinism contract (route_server.h) makes crash recovery cheap:
// every epoch's outcome is a pure function of the configuration and the
// state at the previous phase boundary, so a checkpoint needs only that
// boundary state — the master RNG cursor, the folded flow, each client's
// current path, and the accumulated telemetry — never a log of individual
// mutations. An EngineCheckpoint is exactly that cut for one engine; a
// RoundCheckpoint adds the round loop's credit state so a run — solo or
// multi-tenant — resumes at a scheduler-round boundary with every
// tenant's interleaving intact. A resume (EngineResume) hands an engine
// the summaries of its finished epochs and ONE BoundaryState — the last
// cut plus the run histogram merged through it — never a cut per epoch,
// so what recovery holds does not grow with the run's length beyond the
// summaries.
//
// These are plain service-layer value types: src/recovery/ serializes
// them into WAL records, the engines produce and consume them, and
// neither layer depends on the other's internals.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "service/telemetry.h"
#include "util/log_histogram.h"

namespace staleflow {

/// One engine's dynamics state at an epoch boundary: everything
/// EpochEngine needs to continue bit-identically after `summary.epoch`.
struct EngineCheckpoint {
  /// The finished epoch this cut closes (summary.epoch == e means epochs
  /// 0..e are done and the next served epoch is e + 1).
  EpochSummary summary;

  /// Master RNG cursor AFTER epoch e's splits — the stream every later
  /// epoch's workload and sub-batch streams derive from.
  std::array<std::uint64_t, 4> rng_state{};

  /// The folded master flow at the boundary (by path) — the exact flow
  /// the epoch-(e+1) board is posted from.
  std::vector<double> flow;

  /// Each client's current local path index (by client id).
  std::vector<std::uint32_t> client_paths;

  /// Epoch e's route-latency histogram; merging these over epochs 0..e
  /// in order rebuilds the run distribution exactly.
  LogHistogram route_hist;
};

/// Called after every finished epoch with that epoch's cut (RouteServer's
/// recovery hook, fed from the round cuts of its one-tenant round loop).
/// Capture cost — copying flow, client paths and the epoch histogram — is
/// paid only when an observer is installed.
using CutObserver = std::function<void(const EngineCheckpoint&)>;

/// One finished scheduler round of a TenantRegistry: the post-round
/// credit state plus the cut of every tenant that served an epoch this
/// round (registration order). Rounds where credits merely accrued carry
/// no cuts but still checkpoint the credit change.
struct RoundCheckpoint {
  std::size_t rounds = 0;                  // rounds executed so far
  std::vector<std::size_t> credits;        // per tenant, post-round
  std::vector<std::pair<std::size_t, EngineCheckpoint>> cuts;
};

/// Called after every scheduler round (the WAL hook of every serving
/// path: a solo run is a one-tenant round loop).
using RoundCutObserver = std::function<void(const RoundCheckpoint&)>;

/// The full state at one epoch boundary, as a resumed engine reads it:
/// the cut that closed epoch e and the route histograms of epochs 0..e
/// merged in epoch order — the run histogram an uninterrupted run holds
/// at that boundary. Recovery keeps one per tenant, not one per epoch.
struct BoundaryState {
  EngineCheckpoint cut;
  LogHistogram route_latency;
};

/// A run prefix an engine continues from (EpochEngine::restore): the
/// summaries of its finished epochs 0..n-1, in order, and the state at
/// the boundary after epoch n-1 (`at->cut.summary.epoch == n - 1`). No
/// epochs = start fresh; `at` is then not read. Both views alias state
/// the caller keeps alive.
struct EngineResume {
  std::span<const EpochSummary> epochs;
  const BoundaryState* at = nullptr;
};

/// Restored registry state handed to TenantRegistry::run: each tenant's
/// run prefix (no epochs = that tenant starts fresh) plus the
/// scheduler's round counter and credit vector at the matching round
/// boundary.
struct RegistryResume {
  std::size_t rounds = 0;
  std::vector<std::size_t> credits;    // per tenant
  std::vector<EngineResume> tenants;   // per tenant
};

}  // namespace staleflow
