// Tests for the graph module: multigraph, paths and simple-path
// enumeration.
#include <gtest/gtest.h>

#include "graph/graph.h"
#include "graph/path.h"
#include "graph/path_enumeration.h"

namespace staleflow {
namespace {

Graph diamond() {
  // 0 -> 1 -> 3 and 0 -> 2 -> 3 plus chord 1 -> 2.
  Graph g(4);
  g.add_edge(VertexId{0}, VertexId{1});  // e0
  g.add_edge(VertexId{0}, VertexId{2});  // e1
  g.add_edge(VertexId{1}, VertexId{3});  // e2
  g.add_edge(VertexId{2}, VertexId{3});  // e3
  g.add_edge(VertexId{1}, VertexId{2});  // e4
  return g;
}

TEST(StrongIds, AreDistinctTypes) {
  static_assert(!std::is_convertible_v<VertexId, EdgeId>);
  static_assert(!std::is_convertible_v<PathId, EdgeId>);
  static_assert(!std::is_convertible_v<int, VertexId>);
  EXPECT_FALSE(VertexId{}.valid());
  EXPECT_TRUE(VertexId{0}.valid());
  EXPECT_EQ(VertexId{3}.index(), 3u);
  EXPECT_EQ(VertexId{3}, VertexId{3});
  EXPECT_LT(VertexId{1}, VertexId{2});
}

TEST(Graph, BuildsVerticesAndEdges) {
  Graph g;
  EXPECT_EQ(g.vertex_count(), 0u);
  const VertexId a = g.add_vertex();
  const VertexId b = g.add_vertex();
  EXPECT_EQ(g.vertex_count(), 2u);
  const EdgeId e = g.add_edge(a, b);
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_EQ(g.source(e), a);
  EXPECT_EQ(g.target(e), b);
}

TEST(Graph, SupportsParallelEdgesAndLoops) {
  Graph g(2);
  const EdgeId e1 = g.add_edge(VertexId{0}, VertexId{1});
  const EdgeId e2 = g.add_edge(VertexId{0}, VertexId{1});
  const EdgeId loop = g.add_edge(VertexId{0}, VertexId{0});
  EXPECT_NE(e1, e2);
  EXPECT_EQ(g.out_edges(VertexId{0}).size(), 3u);
  EXPECT_EQ(g.source(loop), g.target(loop));
}

TEST(Graph, RejectsUnknownIds) {
  Graph g(1);
  EXPECT_THROW(g.add_edge(VertexId{0}, VertexId{7}), std::out_of_range);
  EXPECT_THROW(g.add_edge(VertexId{}, VertexId{0}), std::out_of_range);
  EXPECT_THROW(g.edge(EdgeId{0}), std::out_of_range);
  EXPECT_THROW(g.out_edges(VertexId{1}), std::out_of_range);
}

TEST(Graph, AdjacencyLists) {
  const Graph g = diamond();
  EXPECT_EQ(g.out_edges(VertexId{0}).size(), 2u);
  EXPECT_EQ(g.out_edges(VertexId{1}).size(), 2u);
  EXPECT_EQ(g.out_edges(VertexId{3}).size(), 0u);
}

TEST(Graph, AcyclicityDetection) {
  Graph dag = diamond();
  EXPECT_TRUE(dag.is_acyclic());
  dag.add_edge(VertexId{3}, VertexId{0});
  EXPECT_FALSE(dag.is_acyclic());
}

TEST(Path, ValidatesContiguity) {
  const Graph g = diamond();
  const Path ok(g, {EdgeId{0}, EdgeId{2}});  // 0->1->3
  EXPECT_EQ(ok.source(), VertexId{0});
  EXPECT_EQ(ok.sink(), VertexId{3});
  EXPECT_EQ(ok.length(), 2u);
  EXPECT_THROW(Path(g, {EdgeId{0}, EdgeId{3}}), std::invalid_argument);
  EXPECT_THROW(Path(g, {}), std::invalid_argument);
  EXPECT_THROW(Path(g, {EdgeId{9}}), std::invalid_argument);
}

TEST(Path, UsesAndSimplicity) {
  const Graph g = diamond();
  const Path p(g, {EdgeId{0}, EdgeId{4}, EdgeId{3}});  // 0->1->2->3
  EXPECT_TRUE(p.uses(EdgeId{4}));
  EXPECT_FALSE(p.uses(EdgeId{2}));
  EXPECT_TRUE(p.is_simple(g));

  Graph cyclic(2);
  const EdgeId fwd = cyclic.add_edge(VertexId{0}, VertexId{1});
  const EdgeId back = cyclic.add_edge(VertexId{1}, VertexId{0});
  const Path loop(cyclic, {fwd, back});
  EXPECT_FALSE(loop.is_simple(cyclic));
}

TEST(Path, EqualityAndDescribe) {
  const Graph g = diamond();
  const Path a(g, {EdgeId{0}, EdgeId{2}});
  const Path b(g, {EdgeId{0}, EdgeId{2}});
  const Path c(g, {EdgeId{1}, EdgeId{3}});
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
  EXPECT_NE(a.describe(g).find("-e0->"), std::string::npos);
}

TEST(PathEnumeration, FindsAllSimplePaths) {
  const Graph g = diamond();
  const std::vector<Path> paths =
      enumerate_simple_paths(g, VertexId{0}, VertexId{3});
  // 0->1->3, 0->1->2->3, 0->2->3.
  EXPECT_EQ(paths.size(), 3u);
  for (const Path& p : paths) {
    EXPECT_EQ(p.source(), VertexId{0});
    EXPECT_EQ(p.sink(), VertexId{3});
    EXPECT_TRUE(p.is_simple(g));
  }
}

TEST(PathEnumeration, CountMatchesEnumerate) {
  const Graph g = diamond();
  EXPECT_EQ(count_simple_paths(g, VertexId{0}, VertexId{3}), 3u);
}

TEST(PathEnumeration, RespectsLengthLimit) {
  const Graph g = diamond();
  EnumerationLimits limits;
  limits.max_length = 2;
  const std::vector<Path> paths =
      enumerate_simple_paths(g, VertexId{0}, VertexId{3}, limits);
  EXPECT_EQ(paths.size(), 2u);  // the length-3 path is excluded
}

TEST(PathEnumeration, ThrowsOnPathBudget) {
  const Graph g = diamond();
  EnumerationLimits limits;
  limits.max_paths = 2;
  EXPECT_THROW(enumerate_simple_paths(g, VertexId{0}, VertexId{3}, limits),
               std::length_error);
}

TEST(PathEnumeration, EmptyWhenUnreachable) {
  Graph g(3);
  g.add_edge(VertexId{0}, VertexId{1});
  EXPECT_TRUE(enumerate_simple_paths(g, VertexId{0}, VertexId{2}).empty());
}

TEST(PathEnumeration, RejectsSourceEqualsSink) {
  const Graph g = diamond();
  EXPECT_THROW(enumerate_simple_paths(g, VertexId{0}, VertexId{0}),
               std::invalid_argument);
}

TEST(PathEnumeration, HandlesParallelEdges) {
  Graph g(2);
  g.add_edge(VertexId{0}, VertexId{1});
  g.add_edge(VertexId{0}, VertexId{1});
  g.add_edge(VertexId{0}, VertexId{1});
  EXPECT_EQ(count_simple_paths(g, VertexId{0}, VertexId{1}), 3u);
}

TEST(PathEnumeration, SkipsCycles) {
  Graph g(3);
  g.add_edge(VertexId{0}, VertexId{1});  // e0
  g.add_edge(VertexId{1}, VertexId{0});  // e1 back edge
  g.add_edge(VertexId{1}, VertexId{2});  // e2
  const std::vector<Path> paths =
      enumerate_simple_paths(g, VertexId{0}, VertexId{2});
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].length(), 2u);
}

TEST(PathEnumeration, LargeGridCountIsBinomial) {
  // In a 4x4 right/down grid there are C(6,3) = 20 monotone paths.
  const std::size_t n = 4;
  Graph g(n * n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      if (c + 1 < n) g.add_edge(VertexId{r * n + c}, VertexId{r * n + c + 1});
      if (r + 1 < n) g.add_edge(VertexId{r * n + c}, VertexId{(r + 1) * n + c});
    }
  }
  EXPECT_EQ(count_simple_paths(g, VertexId{0}, VertexId{n * n - 1}), 20u);
}

}  // namespace
}  // namespace staleflow
