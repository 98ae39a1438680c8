// Robustness and degenerate-case tests: single-path commodities, shared
// edges and extreme parameters.
#include <gtest/gtest.h>

#include <cmath>

#include "staleflow/staleflow.h"

namespace staleflow {
namespace {

/// A commodity with exactly one admissible path: every dynamics must be
/// stationary on it.
Instance single_path_instance() {
  Graph g(3);
  const EdgeId e01 = g.add_edge(VertexId{0}, VertexId{1});
  const EdgeId e12 = g.add_edge(VertexId{1}, VertexId{2});
  InstanceBuilder b(std::move(g));
  b.set_latency(e01, affine(0.5, 1.0));
  b.set_latency(e12, linear(2.0));
  b.add_commodity(VertexId{0}, VertexId{2}, 1.0);
  return std::move(b).build();
}

TEST(Degenerate, SinglePathIsAlwaysAtEquilibrium) {
  const Instance inst = single_path_instance();
  ASSERT_EQ(inst.path_count(), 1u);
  const FlowVector f = FlowVector::uniform(inst);
  EXPECT_DOUBLE_EQ(wardrop_gap(inst, f.values()), 0.0);
  EXPECT_DOUBLE_EQ(unsatisfied_volume(inst, f.values(), 0.01), 0.0);

  const FrankWolfeResult eq = solve_equilibrium(inst);
  EXPECT_TRUE(eq.converged);
  EXPECT_EQ(eq.iterations, 0u);
}

TEST(Degenerate, DynamicsStationaryOnSinglePath) {
  const Instance inst = single_path_instance();
  const Policy policy = make_uniform_linear_policy(inst);
  const FluidSimulator sim(inst, policy);
  SimulationOptions options;
  options.update_period = 0.5;
  options.horizon = 5.0;
  const SimulationResult result = sim.run(FlowVector::uniform(inst), options);
  EXPECT_DOUBLE_EQ(result.final_flow[PathId{0}], 1.0);
  EXPECT_DOUBLE_EQ(result.final_gap, 0.0);

  const BestResponseSimulator br(inst);
  BestResponseOptions br_options;
  br_options.update_period = 0.5;
  br_options.horizon = 5.0;
  const SimulationResult br_result =
      br.run(FlowVector::uniform(inst), br_options);
  EXPECT_DOUBLE_EQ(br_result.final_flow[PathId{0}], 1.0);
}

TEST(Degenerate, ZeroLatencyNetwork) {
  // All-zero latencies: everything is an equilibrium; dynamics must not
  // divide by zero anywhere.
  Graph g(2);
  const EdgeId e1 = g.add_edge(VertexId{0}, VertexId{1});
  const EdgeId e2 = g.add_edge(VertexId{0}, VertexId{1});
  InstanceBuilder b(std::move(g));
  b.set_latency(e1, constant(0.0));
  b.set_latency(e2, constant(0.0));
  b.add_commodity(VertexId{0}, VertexId{1}, 1.0);
  const Instance inst = std::move(b).build();

  EXPECT_DOUBLE_EQ(inst.max_latency(), 0.0);
  const FlowVector f(inst, {0.3, 0.7});
  EXPECT_DOUBLE_EQ(wardrop_gap(inst, f.values()), 0.0);

  // Relative-slack handles l_P = 0 without dividing by zero.
  const Policy policy = make_relative_slack_policy(0.0);
  const FluidSimulator sim(inst, policy);
  SimulationOptions options;
  options.update_period = 0.5;
  options.horizon = 2.0;
  const SimulationResult result = sim.run(f, options);
  EXPECT_DOUBLE_EQ(result.final_flow[PathId{0}], 0.3);
}

TEST(Robustness, HugeBetaStillConverges) {
  const Instance inst = two_link_pulse(1e4);
  const Policy policy = make_uniform_linear_policy(inst);
  const double T = inst.safe_update_period(*policy.smoothness());
  // For the pulse family l_max = beta/2, so the linear rule's alpha
  // shrinks exactly as beta grows and T_safe = l_max/(4*D*beta) = 1/8
  // independent of beta.
  EXPECT_DOUBLE_EQ(T, 0.125);
  const FluidSimulator sim(inst, policy);
  SimulationOptions options;
  options.update_period = T;
  options.horizon = 50.0;
  options.stop_gap = 1e-8;
  const SimulationResult result =
      sim.run(FlowVector(inst, {0.6, 0.4}), options);
  EXPECT_LT(result.final_gap, 1e-3);
}

TEST(Robustness, TinyDemandCommodity) {
  // 1e-6 of the demand on commodity 2: everything stays finite and
  // feasible, and the tiny commodity still equilibrates.
  Graph g(2);
  const EdgeId e1 = g.add_edge(VertexId{0}, VertexId{1});
  const EdgeId e2 = g.add_edge(VertexId{0}, VertexId{1});
  InstanceBuilder b(std::move(g));
  b.set_latency(e1, linear(1.0));
  b.set_latency(e2, affine(0.1, 1.0));
  b.add_commodity(VertexId{0}, VertexId{1}, 1.0);
  b.add_commodity(VertexId{0}, VertexId{1}, 1e-6);
  const Instance inst = std::move(b).build();
  const FrankWolfeResult eq = solve_equilibrium(inst);
  EXPECT_TRUE(eq.converged);
  EXPECT_TRUE(is_feasible(inst, eq.flow.values(), 1e-12));
}

TEST(Robustness, SharedEdgesAcrossCommodities) {
  // Both commodities cross the same middle edge: the latency coupling
  // must show up in both commodities' path latencies.
  const Instance inst = shared_bottleneck(0.5);
  std::vector<double> all_on_bottleneck(inst.path_count(), 0.0);
  for (std::size_t c = 0; c < inst.commodity_count(); ++c) {
    const Commodity& commodity = inst.commodity(CommodityId{c});
    // The first enumerated path of each commodity routes via the hub.
    for (const PathId p : commodity.paths) {
      if (inst.path(p).length() == 2) {
        all_on_bottleneck[p.index()] = commodity.demand;
        break;
      }
    }
  }
  ASSERT_TRUE(is_feasible(inst, all_on_bottleneck, 1e-12));
  const FlowEvaluation eval = evaluate(inst, all_on_bottleneck);
  // Bottleneck carries the full unit of demand; latency 2.0 * 1.
  bool found_shared = false;
  for (std::size_t e = 0; e < inst.edge_count(); ++e) {
    if (eval.edge_flow[e] > 0.99) {
      found_shared = true;
      EXPECT_NEAR(eval.edge_latency[e], 2.0, 1e-12);
    }
  }
  EXPECT_TRUE(found_shared);
}

TEST(Robustness, LongSimulationNumericallyStable) {
  // 10^4 phases: feasibility and the potential's floor must survive.
  const Instance inst = braess(true);
  const Policy policy = make_replicator_policy(inst, 0.01);
  const double phi_star = optimal_potential(inst);
  const FluidSimulator sim(inst, policy);
  SimulationOptions options;
  options.update_period = 0.05;
  options.horizon = 500.0;
  const SimulationResult result = sim.run(FlowVector::uniform(inst), options);
  EXPECT_TRUE(is_feasible(inst, result.final_flow.values(), 1e-9));
  EXPECT_GE(result.final_potential, phi_star - 1e-9);
}

// ---------------------------------------------------- serialisation round 2

TEST(Robustness, SerialisationOfGeneratedFamilies) {
  Rng rng(9);
  const Instance sp = series_parallel(2, rng);
  const Instance sp2 = parse_instance(serialize_instance(sp));
  EXPECT_EQ(sp2.path_count(), sp.path_count());
  const Instance cb = chained_braess(2);
  const Instance cb2 = parse_instance(serialize_instance(cb));
  EXPECT_EQ(cb2.path_count(), cb.path_count());
  EXPECT_NEAR(optimal_potential(cb2), optimal_potential(cb), 1e-9);
}

}  // namespace
}  // namespace staleflow
