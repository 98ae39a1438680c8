// Tests for instance serialisation: DOT export, text round trips and
// parse error reporting.
#include <gtest/gtest.h>

#include <cstdio>

#include "latency/functions.h"
#include "net/flow.h"
#include "net/generators.h"
#include "net/io.h"
#include "util/rng.h"

namespace staleflow {
namespace {

/// An instance exercising every serialisable latency family.
Instance kitchen_sink() {
  Graph g(2);
  std::vector<EdgeId> edges;
  for (int i = 0; i < 8; ++i) {
    edges.push_back(g.add_edge(VertexId{0}, VertexId{1}));
  }
  InstanceBuilder b(std::move(g));
  b.set_latency(edges[0], constant(0.7));
  b.set_latency(edges[1], affine(0.25, 1.5));
  b.set_latency(edges[2], monomial(2.0, 3.0));
  b.set_latency(edges[3], polynomial({0.1, 0.0, 0.5, 0.25}));
  b.set_latency(edges[4], shifted_linear(4.0, 0.5));
  b.set_latency(edges[5],
                piecewise_linear({{0.0, 0.0}, {0.3, 0.5}, {1.0, 2.0}}));
  b.set_latency(edges[6], bpr(1.0, 0.15, 0.8, 4.0));
  b.set_latency(edges[7], mm1(2.5));
  b.add_commodity(VertexId{0}, VertexId{1}, 1.0);
  return std::move(b).build();
}

void expect_same_behaviour(const Instance& a, const Instance& b) {
  ASSERT_EQ(a.path_count(), b.path_count());
  ASSERT_EQ(a.commodity_count(), b.commodity_count());
  ASSERT_EQ(a.edge_count(), b.edge_count());
  Rng rng(5);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<double> f(a.path_count());
    for (auto& v : f) v = rng.uniform();
    renormalise(a, f);
    const auto la = path_latencies(a, f);
    const auto lb = path_latencies(b, f);
    for (std::size_t p = 0; p < la.size(); ++p) {
      EXPECT_DOUBLE_EQ(la[p], lb[p]);
    }
  }
  for (std::size_t c = 0; c < a.commodity_count(); ++c) {
    EXPECT_DOUBLE_EQ(a.commodity(CommodityId{c}).demand,
                     b.commodity(CommodityId{c}).demand);
  }
}

TEST(Dot, ContainsEdgesAndLabels) {
  const Instance inst = braess(true);
  const std::string dot = to_dot(inst);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("v0 -> v1"), std::string::npos);
  EXPECT_NE(dot.find("label="), std::string::npos);
  EXPECT_NE(dot.find("commodity 0"), std::string::npos);
}

TEST(Serialize, RoundTripsAllFamilies) {
  const Instance original = kitchen_sink();
  const std::string text = serialize_instance(original);
  const Instance parsed = parse_instance(text);
  expect_same_behaviour(original, parsed);
}

TEST(Serialize, RoundTripsGenerators) {
  Rng rng(11);
  expect_same_behaviour(braess(true),
                        parse_instance(serialize_instance(braess(true))));
  const Instance g = grid(3, 3, rng);
  expect_same_behaviour(g, parse_instance(serialize_instance(g)));
  const Instance sb = shared_bottleneck(0.3);
  expect_same_behaviour(sb, parse_instance(serialize_instance(sb)));
}

TEST(Serialize, ExactDoubleRoundTrip) {
  // Full-precision printing: an awkward demand must survive.
  Graph g(2);
  const EdgeId e1 = g.add_edge(VertexId{0}, VertexId{1});
  const EdgeId e2 = g.add_edge(VertexId{0}, VertexId{1});
  InstanceBuilder b(std::move(g));
  b.set_latency(e1, affine(0.1, 1.0 / 3.0));
  b.set_latency(e2, constant(0.7));
  b.add_commodity(VertexId{0}, VertexId{1}, 1.0);
  const Instance inst = std::move(b).build();
  const Instance parsed = parse_instance(serialize_instance(inst));
  EXPECT_DOUBLE_EQ(
      parsed.latency(EdgeId{0}).value(1.0), 0.1 + 1.0 / 3.0);
}

TEST(Parse, AcceptsCommentsAndBlankLines) {
  const std::string text =
      "# a comment\n"
      "\n"
      "vertices 2\n"
      "edge 0 1 affine 0 1\n"
      "# another comment\n"
      "edge 0 1 constant 1\n"
      "commodity 0 1 1.0\n";
  const Instance inst = parse_instance(text);
  EXPECT_EQ(inst.edge_count(), 2u);
  EXPECT_EQ(inst.path_count(), 2u);
}

TEST(Parse, ReportsLineNumbers) {
  const std::string bad =
      "vertices 2\n"
      "edge 0 1 affine 0 1\n"
      "edge 0 7 constant 1\n";  // endpoint out of range on line 3
  try {
    parse_instance(bad);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

TEST(Parse, RejectsMalformedInput) {
  EXPECT_THROW(parse_instance(std::string{"edge 0 1 constant 1\n"}),
               std::invalid_argument);  // no vertices
  EXPECT_THROW(parse_instance(std::string{"vertices 0\n"}),
               std::invalid_argument);
  EXPECT_THROW(
      parse_instance(std::string{"vertices 2\nedge 0 1 nosuch 1\n"}),
      std::invalid_argument);
  EXPECT_THROW(parse_instance(std::string{"vertices 2\nfrobnicate\n"}),
               std::invalid_argument);
  EXPECT_THROW(
      parse_instance(std::string{"vertices 2\nedge 0 1 affine 0\n"}),
      std::invalid_argument);  // missing parameter
  EXPECT_THROW(
      parse_instance(std::string{"vertices 2\nvertices 2\n"}),
      std::invalid_argument);  // duplicate
}

TEST(Parse, MissingCommodityFailsAtBuild) {
  const std::string text =
      "vertices 2\n"
      "edge 0 1 constant 1\n";
  EXPECT_THROW(parse_instance(text), std::logic_error);
}

TEST(Files, SaveAndLoad) {
  const std::string path = testing::TempDir() + "/staleflow_io_test.txt";
  const Instance original = braess(true);
  save_instance(original, path);
  const Instance loaded = load_instance(path);
  expect_same_behaviour(original, loaded);
  std::remove(path.c_str());
  EXPECT_THROW(load_instance("/nonexistent/dir/file.txt"),
               std::runtime_error);
}

// Round-trip property over randomly generated instances of every family.
class RoundTripSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RoundTripSweep, GeneratedInstancesSurviveRoundTrip) {
  const auto [family, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  Instance inst = [&]() {
    switch (family) {
      case 0:
        return random_parallel_links(3 + static_cast<std::size_t>(seed % 4),
                                     rng);
      case 1:
        return grid(2 + static_cast<std::size_t>(seed % 2), 3, rng);
      case 2:
        return layered_dag(2, 3, 2, rng);
      case 3:
        return series_parallel(2, rng);
      default:
        return multicommodity_grid(3, 3, 2, rng);
    }
  }();
  const Instance parsed = parse_instance(serialize_instance(inst));
  expect_same_behaviour(inst, parsed);
  // Structural parameters survive too.
  EXPECT_EQ(parsed.max_path_length(), inst.max_path_length());
  EXPECT_DOUBLE_EQ(parsed.max_slope(), inst.max_slope());
  EXPECT_DOUBLE_EQ(parsed.max_latency(), inst.max_latency());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RoundTripSweep,
    ::testing::Combine(::testing::Range(0, 5), ::testing::Values(1, 2, 3)));

}  // namespace
}  // namespace staleflow
