// Tests for the equilibrium module: potential computation, the Lemma 3
// accounting identity, approximate equilibrium metrics, and Frank-Wolfe
// against hand-computable Wardrop equilibria.
#include <gtest/gtest.h>

#include <cmath>

#include "equilibrium/frank_wolfe.h"
#include "equilibrium/metrics.h"
#include "equilibrium/potential.h"
#include "latency/functions.h"
#include "net/generators.h"
#include "util/rng.h"

namespace staleflow {
namespace {

/// Pigou's example: l1(x) = x, l2(x) = 1. Wardrop equilibrium: all flow on
/// link 1 (f = (1, 0)), equilibrium latency 1, Phi* = 1/2.
Instance pigou() {
  Graph g(2);
  const EdgeId e1 = g.add_edge(VertexId{0}, VertexId{1});
  const EdgeId e2 = g.add_edge(VertexId{0}, VertexId{1});
  InstanceBuilder b(std::move(g));
  b.set_latency(e1, linear(1.0));
  b.set_latency(e2, constant(1.0));
  b.add_commodity(VertexId{0}, VertexId{1}, 1.0);
  return std::move(b).build();
}

/// Two affine links l1 = x, l2 = 0.5 + x. Equilibrium: f = (0.75, 0.25),
/// both latencies 0.75.
Instance two_affine_links() {
  Graph g(2);
  const EdgeId e1 = g.add_edge(VertexId{0}, VertexId{1});
  const EdgeId e2 = g.add_edge(VertexId{0}, VertexId{1});
  InstanceBuilder b(std::move(g));
  b.set_latency(e1, linear(1.0));
  b.set_latency(e2, affine(0.5, 1.0));
  b.add_commodity(VertexId{0}, VertexId{1}, 1.0);
  return std::move(b).build();
}

TEST(Potential, ClosedFormOnPigou) {
  const Instance inst = pigou();
  // Phi(f) = f1^2/2 + f2.
  EXPECT_DOUBLE_EQ(potential(inst, std::vector<double>{1.0, 0.0}), 0.5);
  EXPECT_DOUBLE_EQ(potential(inst, std::vector<double>{0.0, 1.0}), 1.0);
  EXPECT_DOUBLE_EQ(potential(inst, std::vector<double>{0.5, 0.5}),
                   0.125 + 0.5);
}

TEST(Potential, FromEdgeFlowsMatchesPathVersion) {
  const Instance inst = braess(true);
  const FlowVector f = FlowVector::uniform(inst);
  const double via_paths = potential(inst, f.values());
  const double via_edges =
      potential_from_edge_flows(inst, edge_flows(inst, f.values()));
  EXPECT_DOUBLE_EQ(via_paths, via_edges);
  EXPECT_THROW(potential_from_edge_flows(inst, std::vector<double>{1.0}),
               std::invalid_argument);
}

TEST(VirtualGain, ZeroWhenFlowsEqual) {
  const Instance inst = pigou();
  const std::vector<double> f{0.6, 0.4};
  EXPECT_DOUBLE_EQ(virtual_gain(inst, f, f), 0.0);
}

TEST(VirtualGain, MatchesHandComputation) {
  const Instance inst = pigou();
  const std::vector<double> before{0.5, 0.5};
  const std::vector<double> after{0.75, 0.25};
  // V = l1(0.5)*(0.75-0.5) + l2(0.5)*(0.25-0.5) = 0.5*0.25 + 1*(-0.25).
  EXPECT_NEAR(virtual_gain(inst, before, after), -0.125, 1e-15);
}

TEST(ErrorTerms, Lemma3IdentityHoldsExactly) {
  // Phi(f) - Phi(f̂) == sum U_e + V for arbitrary feasible pairs.
  const Instance inst = braess(true);
  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> a(inst.path_count()), b(inst.path_count());
    for (auto& v : a) v = rng.uniform();
    for (auto& v : b) v = rng.uniform();
    renormalise(inst, a);
    renormalise(inst, b);
    const PhaseAccounting acc = account_phase(inst, a, b);
    EXPECT_LT(acc.identity_residual, 1e-12)
        << "trial " << trial;
  }
}

TEST(ErrorTerms, NonNegativeForConvexLatencies) {
  // For non-decreasing latencies U_e = INT (l(u) - l(f̂)) du over a growing
  // or shrinking range is always >= 0.
  const Instance inst = two_affine_links();
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> a(2), b(2);
    a[0] = rng.uniform();
    a[1] = 1.0 - a[0];
    b[0] = rng.uniform();
    b[1] = 1.0 - b[0];
    for (const double u : error_terms(inst, a, b)) {
      EXPECT_GE(u, -1e-15);
    }
  }
}

TEST(WardropGap, ZeroAtEquilibrium) {
  const Instance inst = pigou();
  EXPECT_NEAR(wardrop_gap(inst, std::vector<double>{1.0, 0.0}), 0.0, 1e-15);
  EXPECT_GT(wardrop_gap(inst, std::vector<double>{0.2, 0.8}), 0.0);
}

TEST(WardropGap, MatchesHandComputation) {
  const Instance inst = pigou();
  // f = (0.5, 0.5): l = (0.5, 1), min = 0.5, gap = 0.5 * (1 - 0.5).
  EXPECT_DOUBLE_EQ(wardrop_gap(inst, std::vector<double>{0.5, 0.5}), 0.25);
}

TEST(UnsatisfiedVolume, CountsOnlyAboveDelta) {
  const Instance inst = pigou();
  const std::vector<double> f{0.5, 0.5};
  // Deviation of link 2 over the minimum is 0.5.
  EXPECT_DOUBLE_EQ(unsatisfied_volume(inst, f, 0.4), 0.5);
  EXPECT_DOUBLE_EQ(unsatisfied_volume(inst, f, 0.6), 0.0);
}

TEST(WeaklyUnsatisfiedVolume, UsesAverageLatency) {
  const Instance inst = pigou();
  const std::vector<double> f{0.5, 0.5};
  // L = 0.75; link 2 latency 1 is 0.25 above it.
  EXPECT_DOUBLE_EQ(weakly_unsatisfied_volume(inst, f, 0.2), 0.5);
  EXPECT_DOUBLE_EQ(weakly_unsatisfied_volume(inst, f, 0.3), 0.0);
}

TEST(ApproximateEquilibria, StrictImpliesWeak) {
  // Every weakly delta-unsatisfied agent is delta-unsatisfied (min <=
  // average), so every (delta, eps)-equilibrium is also a weak one.
  const Instance inst = two_affine_links();
  Rng rng(3);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<double> f(2);
    f[0] = rng.uniform();
    f[1] = 1.0 - f[0];
    const double delta = rng.uniform(0.01, 0.5);
    EXPECT_LE(weakly_unsatisfied_volume(inst, f, delta),
              unsatisfied_volume(inst, f, delta));
  }
}

TEST(MaxLatencyDeviation, IgnoresUnusedPaths) {
  const Instance inst = pigou();
  // All flow on link 1; link 2 is worse but unused.
  EXPECT_DOUBLE_EQ(
      max_latency_deviation(inst, std::vector<double>{1.0, 0.0}), 0.0);
  EXPECT_DOUBLE_EQ(
      max_latency_deviation(inst, std::vector<double>{0.5, 0.5}), 0.5);
}

TEST(FrankWolfe, SolvesPigou) {
  const Instance inst = pigou();
  const FrankWolfeResult result = solve_equilibrium(inst);
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.flow[PathId{0}], 1.0, 1e-4);
  EXPECT_NEAR(result.potential, 0.5, 1e-7);
  EXPECT_LE(result.gap, 1e-10);
}

TEST(FrankWolfe, SolvesTwoAffineLinks) {
  const Instance inst = two_affine_links();
  const FrankWolfeResult result = solve_equilibrium(inst);
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.flow[PathId{0}], 0.75, 1e-4);
  EXPECT_NEAR(result.flow[PathId{1}], 0.25, 1e-4);
  const auto latencies = path_latencies(inst, result.flow.values());
  EXPECT_NEAR(latencies[0], latencies[1], 1e-4);
}

TEST(FrankWolfe, BraessEquilibriumUsesShortcut) {
  // With the zero-cost shortcut everyone routes s->a->b->t; the
  // equilibrium latency is 2 (the paradox: worse than 1.5 without it).
  const Instance inst = braess(true);
  const FrankWolfeResult result = solve_equilibrium(inst);
  EXPECT_TRUE(result.converged);
  const FlowEvaluation eval = evaluate(inst, result.flow.values());
  EXPECT_NEAR(eval.average_latency, 2.0, 1e-5);

  const Instance inst2 = braess(false);
  const FrankWolfeResult result2 = solve_equilibrium(inst2);
  const FlowEvaluation eval2 = evaluate(inst2, result2.flow.values());
  EXPECT_NEAR(eval2.average_latency, 1.5, 1e-5);
}

TEST(FrankWolfe, PulseInstanceEquilibrium) {
  const Instance inst = two_link_pulse(4.0);
  const FrankWolfeResult result = solve_equilibrium(inst);
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.flow[PathId{0}], 0.5, 1e-3);
  EXPECT_NEAR(result.potential, 0.0, 1e-9);
}

TEST(FrankWolfe, OptimalPotentialIsMinimal) {
  const Instance inst = braess(true);
  const double opt = optimal_potential(inst);
  Rng rng(21);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> f(inst.path_count());
    for (auto& v : f) v = rng.uniform();
    renormalise(inst, f);
    EXPECT_GE(potential(inst, f), opt - 1e-9);
  }
}

TEST(FrankWolfe, MultiCommodity) {
  const Instance inst = shared_bottleneck(0.5);
  const FrankWolfeResult result = solve_equilibrium(inst);
  EXPECT_TRUE(result.converged);
  EXPECT_LE(result.gap, 1e-10);
  EXPECT_TRUE(is_feasible(inst, result.flow.values(), 1e-9));
}

TEST(FrankWolfe, RandomInstancesReachSmallGap) {
  Rng rng(17);
  for (int trial = 0; trial < 5; ++trial) {
    const Instance inst = random_parallel_links(6, rng);
    FrankWolfeOptions options;
    options.gap_tolerance = 1e-9;
    const FrankWolfeResult result = solve_equilibrium(inst, options);
    EXPECT_TRUE(result.converged);
    EXPECT_LE(result.gap, 1e-9);
  }
}

TEST(FrankWolfe, GridInstance) {
  Rng rng(29);
  const Instance inst = grid(3, 3, rng);
  const FrankWolfeResult result = solve_equilibrium(inst);
  EXPECT_TRUE(result.converged);
  // At equilibrium every used path has (near-)minimal latency.
  const FlowEvaluation eval = evaluate(inst, result.flow.values());
  for (std::size_t p = 0; p < inst.path_count(); ++p) {
    if (result.flow[PathId{p}] > 1e-6) {
      EXPECT_NEAR(eval.path_latency[p], eval.commodity_min_latency[0], 1e-4);
    }
  }
}

class GapToleranceSweep : public ::testing::TestWithParam<double> {};

TEST_P(GapToleranceSweep, FrankWolfeMeetsRequestedTolerance) {
  const double tol = GetParam();
  const Instance inst = two_affine_links();
  FrankWolfeOptions options;
  options.gap_tolerance = tol;
  const FrankWolfeResult result = solve_equilibrium(inst, options);
  EXPECT_TRUE(result.converged);
  EXPECT_LE(result.gap, tol);
}

INSTANTIATE_TEST_SUITE_P(Tolerances, GapToleranceSweep,
                         ::testing::Values(1e-4, 1e-6, 1e-8, 1e-10));

}  // namespace
}  // namespace staleflow
