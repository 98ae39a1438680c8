// Named scenario registry: the sweep engine's catalogue of instances.
//
// A scenario is a named, deterministic recipe for an Instance. Randomised
// families (random parallel links, grids, layered DAGs) draw from the Rng
// handed in, so the same scenario + rng state always yields the same
// instance — which is what lets sweep cells be replayed bit-identically.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "net/instance.h"
#include "util/rng.h"

namespace staleflow {

/// A named instance recipe. `make` must be a pure function of the rng
/// state (no other hidden inputs), so identical seeds reproduce the
/// instance exactly.
struct Scenario {
  std::string name;
  std::string description;
  std::function<Instance(Rng&)> make;
};

/// Lookup table of scenarios, keyed by name.
class ScenarioRegistry {
 public:
  /// The standard catalogue wrapping net/generators.h: the paper's
  /// two-link pulse, Braess variants, parallel-link families, grids,
  /// layered DAGs, series-parallel networks and multi-commodity
  /// instances. See builtin_scenarios() for the full list.
  static ScenarioRegistry builtin();

  /// Registers a scenario. Throws std::invalid_argument on an empty name,
  /// a null factory, or a duplicate name.
  void add(Scenario scenario);

  bool contains(const std::string& name) const;

  /// Throws std::out_of_range with a helpful message for unknown names.
  const Scenario& at(const std::string& name) const;

  /// Registered names in registration order.
  std::vector<std::string> names() const;

 private:
  std::vector<Scenario> scenarios_;  // registration order; linear lookup
};

}  // namespace staleflow
