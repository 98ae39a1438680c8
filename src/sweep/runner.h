// The sweep executor: expands an ExperimentSpec and runs its cells on the
// shared execution layer (src/exec/).
//
// Determinism contract: every cell gets its own Rng stream, derived by
// walking the canonical cell order with Rng::split() *before* any cell is
// dispatched. Cells share nothing mutable (the simulators are const and
// keep all run state local), so the result vector is bit-identical for any
// thread count — `sweep --threads 1` and `--threads 64` produce the same
// CSV byte for byte. A kService cell is a TenantRegistry (one tenant per
// cell.tenants, at least one) served on the sweep's own Executor, so
// in-cell parallelism (sub-batch serving, snapshot builds) runs on the
// same workers as the cell graph instead of spawning nested pools — one
// set of workers, no oversubscription, same bits.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "exec/executor.h"
#include "sweep/scenario.h"
#include "sweep/spec.h"
#include "util/log_histogram.h"

namespace staleflow {

/// Everything recorded about one executed cell.
struct CellResult {
  CellSpec cell;

  /// False if the cell threw; `error` holds the message and every metric
  /// below is left at its default.
  bool ok = true;
  std::string error;

  // Instance shape (useful when scenarios are randomised per replica).
  std::size_t paths = 0;
  std::size_t commodities = 0;

  // Outcome.
  std::size_t phases = 0;       // phases (fluid/agent) or rounds (round)
  double final_time = 0.0;      // simulated time reached
  bool converged = false;       // gap <= spec.stop_gap by the end
  double time_to_converge = 0;  // first recorded time with gap <= stop_gap;
                                // meaningful only when converged
  double final_gap = 0.0;       // Wardrop gap at the final flow
  double final_potential = 0.0;

  // Tail behaviour (analysis/oscillation over recorded phase flows).
  double oscillation_amplitude = 0.0;  // max step between consecutive phases
  bool settled = false;
  bool period_two = false;

  // Service outcome (simulator == kService only; defaults elsewhere).
  // A co-tenancy cell (cell.tenants > 1) aggregates over its tenants:
  // queries/migrations/latency pool, phases sums every tenant's epochs,
  // final_gap is the worst tenant's, converged requires every tenant,
  // time_to_converge is the last tenant's crossing, and final_potential
  // is the tenant mean.
  std::size_t queries = 0;
  std::size_t migrations = 0;
  double migration_rate = 0.0;  // migrations / queries over the whole run
  /// Deterministic per-query route-latency distribution of the cell
  /// (board latency of the served path), mergeable across cells — all
  /// cells share the default LogHistogram configuration.
  LogHistogram latency;
};

/// A finished sweep: per-cell results in canonical cell order.
struct SweepResult {
  SimulatorKind simulator = SimulatorKind::kFluid;
  std::vector<CellResult> cells;
  double wall_seconds = 0.0;  // wall-clock of the whole run (not per cell)

  double cells_per_second() const {
    return wall_seconds > 0.0
               ? static_cast<double>(cells.size()) / wall_seconds
               : 0.0;
  }
};

/// Called after each finished cell with (cells done, cells total). Invoked
/// from worker threads under a lock; keep it cheap.
using SweepProgress = std::function<void(std::size_t, std::size_t)>;

/// Expands and executes ExperimentSpecs against a scenario registry.
class SweepRunner {
 public:
  /// Uses the built-in scenario catalogue.
  SweepRunner();
  explicit SweepRunner(ScenarioRegistry registry);

  const ScenarioRegistry& registry() const noexcept { return registry_; }

  /// Runs every cell of the spec on `threads` workers (1 = inline on the
  /// calling thread; 0 = hardware concurrency). A cell that throws is
  /// recorded as ok = false rather than aborting the sweep. Throws on an
  /// invalid spec (see expand()).
  SweepResult run(const ExperimentSpec& spec, std::size_t threads = 1,
                  const SweepProgress& progress = nullptr) const;

  /// Same, on a caller-owned Executor — the shared form: cells run as
  /// independent nodes of one graph, and kService cells run their epoch
  /// graphs on the same executor.
  SweepResult run(const ExperimentSpec& spec, Executor& executor,
                  const SweepProgress& progress = nullptr) const;

 private:
  ScenarioRegistry registry_;
};

}  // namespace staleflow
