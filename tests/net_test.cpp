// Tests for the net module: instance building, flow vectors, derived
// quantities and the generator families.
#include <gtest/gtest.h>

#include <cmath>

#include "latency/functions.h"
#include "net/flow.h"
#include "net/generators.h"
#include "net/instance.h"

namespace staleflow {
namespace {

Instance simple_two_link() {
  Graph g(2);
  const EdgeId e1 = g.add_edge(VertexId{0}, VertexId{1});
  const EdgeId e2 = g.add_edge(VertexId{0}, VertexId{1});
  InstanceBuilder b(std::move(g));
  b.set_latency(e1, affine(0.0, 1.0));  // l(x) = x
  b.set_latency(e2, constant(0.75));    // l(x) = 3/4
  b.add_commodity(VertexId{0}, VertexId{1}, 1.0);
  return std::move(b).build();
}

TEST(InstanceBuilder, BuildsAndComputesParameters) {
  const Instance inst = simple_two_link();
  EXPECT_EQ(inst.edge_count(), 2u);
  EXPECT_EQ(inst.path_count(), 2u);
  EXPECT_EQ(inst.commodity_count(), 1u);
  EXPECT_EQ(inst.max_path_length(), 1u);       // D
  EXPECT_DOUBLE_EQ(inst.max_slope(), 1.0);     // beta
  EXPECT_DOUBLE_EQ(inst.max_latency(), 1.0);   // max path latency at x = 1
  EXPECT_EQ(inst.commodity(CommodityId{0}).paths.size(), 2u);
}

TEST(InstanceBuilder, NormalisesDemands) {
  Graph g(2);
  const EdgeId e1 = g.add_edge(VertexId{0}, VertexId{1});
  const EdgeId e2 = g.add_edge(VertexId{0}, VertexId{1});
  InstanceBuilder b(std::move(g));
  b.set_latency(e1, linear(1.0));
  b.set_latency(e2, linear(1.0));
  b.add_commodity(VertexId{0}, VertexId{1}, 3.0);
  b.add_commodity(VertexId{0}, VertexId{1}, 1.0);
  const Instance inst = std::move(b).build();
  EXPECT_DOUBLE_EQ(inst.commodity(CommodityId{0}).demand, 0.75);
  EXPECT_DOUBLE_EQ(inst.commodity(CommodityId{1}).demand, 0.25);
}

TEST(InstanceBuilder, RejectsMissingLatency) {
  Graph g(2);
  g.add_edge(VertexId{0}, VertexId{1});
  InstanceBuilder b(std::move(g));
  b.add_commodity(VertexId{0}, VertexId{1}, 1.0);
  EXPECT_THROW(std::move(b).build(), std::logic_error);
}

TEST(InstanceBuilder, RejectsNoCommodities) {
  Graph g(2);
  const EdgeId e = g.add_edge(VertexId{0}, VertexId{1});
  InstanceBuilder b(std::move(g));
  b.set_latency(e, linear(1.0));
  EXPECT_THROW(std::move(b).build(), std::logic_error);
}

TEST(InstanceBuilder, RejectsUnreachableSink) {
  Graph g(3);
  const EdgeId e = g.add_edge(VertexId{0}, VertexId{1});
  InstanceBuilder b(std::move(g));
  b.set_latency(e, linear(1.0));
  b.add_commodity(VertexId{0}, VertexId{2}, 1.0);
  EXPECT_THROW(std::move(b).build(), std::logic_error);
}

TEST(InstanceBuilder, RejectsBadExplicitPath) {
  Graph g(3);
  const EdgeId e01 = g.add_edge(VertexId{0}, VertexId{1});
  const EdgeId e12 = g.add_edge(VertexId{1}, VertexId{2});
  InstanceBuilder b(std::move(g));
  b.set_latency(e01, linear(1.0));
  b.set_latency(e12, linear(1.0));
  // Path ends at v1 but the commodity wants v2.
  b.add_commodity(VertexId{0}, VertexId{2}, 1.0, {{e01}});
  EXPECT_THROW(std::move(b).build(), std::invalid_argument);
}

TEST(InstanceBuilder, ExplicitPathsRestrictStrategySpace) {
  Graph g(3);
  const EdgeId e01 = g.add_edge(VertexId{0}, VertexId{1});
  const EdgeId e12 = g.add_edge(VertexId{1}, VertexId{2});
  const EdgeId e02 = g.add_edge(VertexId{0}, VertexId{2});
  InstanceBuilder b(std::move(g));
  b.set_latency(e01, linear(1.0));
  b.set_latency(e12, linear(1.0));
  b.set_latency(e02, linear(1.0));
  b.add_commodity(VertexId{0}, VertexId{2}, 1.0, {{e02}});  // direct only
  const Instance inst = std::move(b).build();
  EXPECT_EQ(inst.path_count(), 1u);
}

TEST(InstanceBuilder, RejectsInvalidArguments) {
  Graph g(2);
  const EdgeId e = g.add_edge(VertexId{0}, VertexId{1});
  InstanceBuilder b(std::move(g));
  EXPECT_THROW(b.set_latency(EdgeId{5}, linear(1.0)), std::out_of_range);
  EXPECT_THROW(b.set_latency(e, nullptr), std::invalid_argument);
  EXPECT_THROW(b.add_commodity(VertexId{0}, VertexId{1}, 0.0),
               std::invalid_argument);
  EXPECT_THROW(b.add_commodity(VertexId{0}, VertexId{9}, 1.0),
               std::out_of_range);
}

TEST(Instance, SafeUpdatePeriodFormula) {
  const Instance inst = simple_two_link();
  // T = 1/(4 D alpha beta) with D = 1, beta = 1.
  EXPECT_DOUBLE_EQ(inst.safe_update_period(2.0), 1.0 / 8.0);
  EXPECT_THROW(inst.safe_update_period(0.0), std::invalid_argument);
}

TEST(Instance, SafeUpdatePeriodInfiniteForConstantLatencies) {
  Graph g(2);
  const EdgeId e1 = g.add_edge(VertexId{0}, VertexId{1});
  const EdgeId e2 = g.add_edge(VertexId{0}, VertexId{1});
  InstanceBuilder b(std::move(g));
  b.set_latency(e1, constant(1.0));
  b.set_latency(e2, constant(2.0));
  b.add_commodity(VertexId{0}, VertexId{1}, 1.0);
  const Instance inst = std::move(b).build();
  EXPECT_TRUE(std::isinf(inst.safe_update_period(1.0)));
}

TEST(Instance, LookupsThrowOnBadIds) {
  const Instance inst = simple_two_link();
  EXPECT_THROW(inst.latency(EdgeId{9}), std::out_of_range);
  EXPECT_THROW(inst.path(PathId{9}), std::out_of_range);
  EXPECT_THROW(inst.commodity(CommodityId{9}), std::out_of_range);
  EXPECT_THROW(inst.commodity_of(PathId{9}), std::out_of_range);
}

TEST(Instance, DescribeMentionsParameters) {
  const std::string desc = simple_two_link().describe();
  EXPECT_NE(desc.find("E=2"), std::string::npos);
  EXPECT_NE(desc.find("beta="), std::string::npos);
}

TEST(FlowVector, UniformSplitsDemand) {
  const Instance inst = simple_two_link();
  const FlowVector f = FlowVector::uniform(inst);
  EXPECT_DOUBLE_EQ(f[PathId{0}], 0.5);
  EXPECT_DOUBLE_EQ(f[PathId{1}], 0.5);
  EXPECT_TRUE(is_feasible(inst, f.values()));
}

TEST(FlowVector, ConcentratedPutsAllOnOnePath) {
  const Instance inst = simple_two_link();
  const std::vector<std::size_t> choice{1};
  const FlowVector f = FlowVector::concentrated(inst, choice);
  EXPECT_DOUBLE_EQ(f[PathId{0}], 0.0);
  EXPECT_DOUBLE_EQ(f[PathId{1}], 1.0);
  EXPECT_TRUE(is_feasible(inst, f.values()));
  const std::vector<std::size_t> bad{7};
  EXPECT_THROW(FlowVector::concentrated(inst, bad), std::out_of_range);
}

TEST(FlowVector, WrapRejectsWrongSize) {
  const Instance inst = simple_two_link();
  EXPECT_THROW(FlowVector(inst, {1.0}), std::invalid_argument);
}

TEST(Feasibility, DetectsViolations) {
  const Instance inst = simple_two_link();
  EXPECT_FALSE(is_feasible(inst, std::vector<double>{0.7, 0.7}));  // sum != 1
  EXPECT_FALSE(is_feasible(inst, std::vector<double>{1.5, -0.5}));  // negative
  EXPECT_TRUE(is_feasible(inst, std::vector<double>{0.3, 0.7}));
}

TEST(Renormalise, ProjectsBackToSimplex) {
  const Instance inst = simple_two_link();
  std::vector<double> f{0.62, 0.40};  // drifted above 1
  renormalise(inst, f);
  EXPECT_TRUE(is_feasible(inst, f, 1e-12));
  EXPECT_NEAR(f[0] / f[1], 0.62 / 0.40, 1e-12);  // ratios preserved

  std::vector<double> negative{-0.1, 1.0};
  renormalise(inst, negative);
  EXPECT_DOUBLE_EQ(negative[0], 0.0);
  EXPECT_DOUBLE_EQ(negative[1], 1.0);

  std::vector<double> zero{0.0, 0.0};
  EXPECT_THROW(renormalise(inst, zero), std::invalid_argument);
}

TEST(EdgeFlows, AggregatesSharedEdges) {
  // Two paths sharing the middle edge: 0->1->2 via e0,e1 and e2,e1 where
  // e2 is a parallel first hop.
  Graph g(3);
  const EdgeId e0 = g.add_edge(VertexId{0}, VertexId{1});
  const EdgeId e1 = g.add_edge(VertexId{1}, VertexId{2});
  const EdgeId e2 = g.add_edge(VertexId{0}, VertexId{1});
  InstanceBuilder b(std::move(g));
  b.set_latency(e0, linear(1.0));
  b.set_latency(e1, linear(1.0));
  b.set_latency(e2, linear(1.0));
  b.add_commodity(VertexId{0}, VertexId{2}, 1.0);
  const Instance inst = std::move(b).build();
  ASSERT_EQ(inst.path_count(), 2u);
  const std::vector<double> f{0.3, 0.7};
  const std::vector<double> fe = edge_flows(inst, f);
  EXPECT_DOUBLE_EQ(fe[e1.index()], 1.0);  // shared by both paths
  EXPECT_DOUBLE_EQ(fe[e0.index()] + fe[e2.index()], 1.0);
}

TEST(Evaluate, ComputesLatenciesAndAverages) {
  const Instance inst = simple_two_link();
  const std::vector<double> f{0.25, 0.75};
  const FlowEvaluation eval = evaluate(inst, f);
  EXPECT_DOUBLE_EQ(eval.edge_flow[0], 0.25);
  EXPECT_DOUBLE_EQ(eval.path_latency[0], 0.25);   // l = x
  EXPECT_DOUBLE_EQ(eval.path_latency[1], 0.75);   // l = 3/4
  EXPECT_DOUBLE_EQ(eval.commodity_min_latency[0], 0.25);
  EXPECT_DOUBLE_EQ(eval.commodity_avg_latency[0],
                   0.25 * 0.25 + 0.75 * 0.75);
  EXPECT_DOUBLE_EQ(eval.average_latency, 0.25 * 0.25 + 0.75 * 0.75);
}

TEST(PathLatencies, MatchesEvaluate) {
  const Instance inst = simple_two_link();
  const std::vector<double> f{0.4, 0.6};
  const FlowEvaluation eval = evaluate(inst, f);
  const std::vector<double> direct = path_latencies(inst, f);
  ASSERT_EQ(direct.size(), eval.path_latency.size());
  for (std::size_t p = 0; p < direct.size(); ++p) {
    EXPECT_DOUBLE_EQ(direct[p], eval.path_latency[p]);
  }
}

// -------------------------------------------------------------- generators

TEST(Generators, TwoLinkPulseMatchesPaper) {
  const Instance inst = two_link_pulse(4.0);
  EXPECT_EQ(inst.path_count(), 2u);
  EXPECT_DOUBLE_EQ(inst.max_slope(), 4.0);
  EXPECT_EQ(inst.max_path_length(), 1u);
  // At the Wardrop equilibrium f = (1/2, 1/2) both latencies are 0.
  const std::vector<double> eq{0.5, 0.5};
  const FlowEvaluation eval = evaluate(inst, eq);
  EXPECT_DOUBLE_EQ(eval.path_latency[0], 0.0);
  EXPECT_DOUBLE_EQ(eval.path_latency[1], 0.0);
}

TEST(Generators, ParallelLinks) {
  const Instance inst = uniform_parallel_links(8, 0.5, 1.0);
  EXPECT_EQ(inst.path_count(), 8u);
  EXPECT_EQ(inst.commodity_count(), 1u);
  EXPECT_EQ(inst.commodity(CommodityId{0}).paths.size(), 8u);
  EXPECT_THROW(uniform_parallel_links(0, 0.0, 1.0), std::invalid_argument);
}

TEST(Generators, RandomParallelLinksDeterministic) {
  Rng rng1(5), rng2(5);
  const Instance a = random_parallel_links(4, rng1);
  const Instance b = random_parallel_links(4, rng2);
  const std::vector<double> f{0.25, 0.25, 0.25, 0.25};
  const auto la = path_latencies(a, f);
  const auto lb = path_latencies(b, f);
  for (std::size_t p = 0; p < 4; ++p) EXPECT_DOUBLE_EQ(la[p], lb[p]);
}

TEST(Generators, BraessTopology) {
  const Instance with = braess(true);
  const Instance without = braess(false);
  EXPECT_EQ(with.path_count(), 3u);     // upper, lower, zig-zag
  EXPECT_EQ(without.path_count(), 2u);
  EXPECT_EQ(with.max_path_length(), 3u);
}

TEST(Generators, GridHasBinomialPathCount) {
  Rng rng(7);
  const Instance inst = grid(3, 3, rng);
  // C(4, 2) = 6 monotone paths in a 3x3 grid.
  EXPECT_EQ(inst.path_count(), 6u);
  EXPECT_EQ(inst.max_path_length(), 4u);
  EXPECT_THROW(grid(1, 3, rng), std::invalid_argument);
}

TEST(Generators, LayeredDagIsConnected) {
  Rng rng(11);
  const Instance inst = layered_dag(3, 4, 2, rng);
  EXPECT_GE(inst.path_count(), 1u);
  EXPECT_EQ(inst.commodity_count(), 1u);
  EXPECT_TRUE(inst.graph().is_acyclic());
  EXPECT_THROW(layered_dag(0, 4, 2, rng), std::invalid_argument);
}

TEST(Generators, SharedBottleneckHasTwoCommodities) {
  const Instance inst = shared_bottleneck(0.5);
  EXPECT_EQ(inst.commodity_count(), 2u);
  EXPECT_DOUBLE_EQ(inst.commodity(CommodityId{0}).demand, 0.5);
  EXPECT_THROW(shared_bottleneck(0.0), std::invalid_argument);
  EXPECT_THROW(shared_bottleneck(1.0), std::invalid_argument);
}

TEST(Generators, MulticommodityGrid) {
  Rng rng(13);
  const Instance inst = multicommodity_grid(3, 3, 2, rng);
  EXPECT_EQ(inst.commodity_count(), 2u);
  EXPECT_DOUBLE_EQ(inst.commodity(CommodityId{0}).demand, 0.5);
  EXPECT_THROW(multicommodity_grid(3, 3, 9, rng), std::invalid_argument);
}

class ParallelLinkSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ParallelLinkSweep, UniformFlowIsFeasibleAndSymmetric) {
  const std::size_t m = GetParam();
  const Instance inst = uniform_parallel_links(m, 0.0, 1.0);
  const FlowVector f = FlowVector::uniform(inst);
  EXPECT_TRUE(is_feasible(inst, f.values()));
  const auto latencies = path_latencies(inst, f.values());
  for (const double l : latencies) {
    EXPECT_NEAR(l, 1.0 / static_cast<double>(m), 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ParallelLinkSweep,
                         ::testing::Values(1, 2, 4, 8, 16, 64));

}  // namespace
}  // namespace staleflow
