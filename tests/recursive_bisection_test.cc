#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/recursive_bisection.h"
#include "graph/grid_graph.h"
#include "graph/subgraph.h"
#include "graph/traversal.h"
#include "workload/generators.h"

namespace spectral {
namespace {

TEST(Subgraph, InducedEdgesAndMapping) {
  // Path 0-1-2-3-4; induce {1, 2, 4}.
  const Graph g = BuildGridGraph(GridSpec({5}));
  const std::vector<int64_t> verts = {1, 2, 4};
  const InducedSubgraph sub = BuildInducedSubgraph(g, verts);
  EXPECT_EQ(sub.graph.num_vertices(), 3);
  EXPECT_EQ(sub.graph.num_edges(), 1);  // only 1-2 survives
  EXPECT_EQ(sub.local_to_global[0], 1);
  EXPECT_EQ(sub.local_to_global[2], 4);
  EXPECT_EQ(sub.graph.Degree(2), 0);  // vertex 4 is isolated
}

TEST(Subgraph, KeepsWeights) {
  std::vector<GraphEdge> edges = {{0, 1, 2.5}, {1, 2, 1.0}};
  const Graph g = Graph::FromEdges(3, edges);
  const std::vector<int64_t> verts = {0, 1};
  const InducedSubgraph sub = BuildInducedSubgraph(g, verts);
  EXPECT_DOUBLE_EQ(sub.graph.WeightedDegree(0), 2.5);
}

TEST(Subgraph, EmptySelection) {
  const Graph g = BuildGridGraph(GridSpec({3}));
  const InducedSubgraph sub = BuildInducedSubgraph(g, {});
  EXPECT_EQ(sub.graph.num_vertices(), 0);
}

// A 10x7 grid with uneven weights; edges with (u + v) % divisor == 0 are
// dropped, so divisor 3 splits it into many components.
Graph WeightedGrid(int64_t divisor) {
  std::vector<GraphEdge> edges;
  BuildGridGraph(GridSpec({10, 7})).ForEachEdge(
      [&](int64_t u, int64_t v, double) {
        if ((u + v) % divisor == 0) return;
        edges.push_back({u, v, 1.0 + 0.25 * static_cast<double>((u * v) % 7)});
      });
  return Graph::FromEdges(70, edges);
}

// SplitByLabel must return, for every label, exactly the CSR that
// BuildInducedSubgraph builds from that label's ascending vertex list.
void ExpectSplitMatchesInducedSubgraphs(const Graph& graph,
                                        const std::vector<int64_t>& labels,
                                        int64_t num_labels) {
  const std::vector<InducedSubgraph> parts =
      SplitByLabel(graph, labels, num_labels);
  ASSERT_EQ(static_cast<int64_t>(parts.size()), num_labels);
  for (int64_t p = 0; p < num_labels; ++p) {
    std::vector<int64_t> members;
    for (int64_t v = 0; v < graph.num_vertices(); ++v) {
      if (labels[static_cast<size_t>(v)] == p) members.push_back(v);
    }
    const InducedSubgraph expected = BuildInducedSubgraph(graph, members);
    const InducedSubgraph& part = parts[static_cast<size_t>(p)];
    EXPECT_EQ(part.local_to_global, expected.local_to_global) << "part " << p;
    ASSERT_EQ(part.graph.num_vertices(), expected.graph.num_vertices());
    EXPECT_EQ(part.graph.num_edges(), expected.graph.num_edges());
    for (int64_t v = 0; v < part.graph.num_vertices(); ++v) {
      const auto nbrs = part.graph.Neighbors(v);
      const auto expected_nbrs = expected.graph.Neighbors(v);
      EXPECT_TRUE(std::equal(nbrs.begin(), nbrs.end(), expected_nbrs.begin(),
                             expected_nbrs.end()))
          << "part " << p << " vertex " << v;
      const auto ws = part.graph.Weights(v);
      const auto expected_ws = expected.graph.Weights(v);
      EXPECT_TRUE(std::equal(ws.begin(), ws.end(), expected_ws.begin(),
                             expected_ws.end()))
          << "part " << p << " vertex " << v;
    }
  }
}

TEST(Subgraph, SplitByComponentsMatchesInducedSubgraphs) {
  const Graph graph = WeightedGrid(3);
  int64_t num_components = 0;
  const std::vector<int64_t> comp = ConnectedComponents(graph, &num_components);
  ASSERT_GT(num_components, 2);
  ExpectSplitMatchesInducedSubgraphs(graph, comp, num_components);
}

TEST(Subgraph, SplitByArbitraryLabelsMatchesInducedSubgraphs) {
  const Graph graph = WeightedGrid(11);
  // Labels 0-3 interleave; 4 and 5 stay empty; 6 holds one vertex.
  std::vector<int64_t> labels(70);
  for (int64_t v = 0; v < 70; ++v) {
    labels[static_cast<size_t>(v)] = (v * 5 + v / 3) % 4;
  }
  labels[13] = 6;
  ExpectSplitMatchesInducedSubgraphs(graph, labels, 7);
  // Every vertex under one label reproduces the whole graph.
  ExpectSplitMatchesInducedSubgraphs(graph, std::vector<int64_t>(70, 0), 1);
  // No vertices: every part is empty.
  ExpectSplitMatchesInducedSubgraphs(Graph::FromEdges(0, {}), {}, 2);
}

TEST(RecursiveBisection, PathOrderIsContiguous) {
  const PointSet points = PointSet::FullGrid(GridSpec({32}));
  auto result = RecursiveSpectralOrder(points);
  ASSERT_TRUE(result.ok()) << result.status();
  const bool forward = result->order.RankOf(0) == 0;
  for (int64_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(result->order.RankOf(i), forward ? i : points.size() - 1 - i);
  }
  EXPECT_GT(result->num_solves, 1);  // actually recursed
  EXPECT_GT(result->depth, 0);
}

TEST(RecursiveBisection, ProducesPermutationOn2DGrid) {
  const PointSet points = PointSet::FullGrid(GridSpec({9, 7}));
  auto result = RecursiveSpectralOrder(points);
  ASSERT_TRUE(result.ok());
  std::vector<bool> seen(static_cast<size_t>(points.size()), false);
  for (int64_t i = 0; i < points.size(); ++i) {
    const int64_t r = result->order.RankOf(i);
    ASSERT_GE(r, 0);
    ASSERT_LT(r, points.size());
    EXPECT_FALSE(seen[static_cast<size_t>(r)]);
    seen[static_cast<size_t>(r)] = true;
  }
}

TEST(RecursiveBisection, LeafSizeControlsSolves) {
  const PointSet points = PointSet::FullGrid(GridSpec({16}));
  RecursiveBisectionOptions coarse;
  coarse.leaf_size = 16;  // no split needed
  auto one = RecursiveSpectralOrder(points, coarse);
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one->num_solves, 1);
  EXPECT_EQ(one->depth, 0);

  RecursiveBisectionOptions fine;
  fine.leaf_size = 2;
  auto many = RecursiveSpectralOrder(points, fine);
  ASSERT_TRUE(many.ok());
  EXPECT_GT(many->num_solves, 3);
}

TEST(RecursiveBisection, HandlesDisconnectedInput) {
  PointSet points(2);
  for (Coord i = 0; i < 6; ++i) points.Add(std::vector<Coord>{0, i});
  for (Coord i = 0; i < 3; ++i) points.Add(std::vector<Coord>{10, i});
  auto result = RecursiveSpectralOrder(points);
  ASSERT_TRUE(result.ok());
  // Larger component (6 points) first.
  for (int64_t i = 0; i < 6; ++i) EXPECT_LT(result->order.RankOf(i), 6);
  for (int64_t i = 6; i < 9; ++i) EXPECT_GE(result->order.RankOf(i), 6);
}

TEST(RecursiveBisection, MedianCutHalvesAreRankContiguous) {
  // After the first cut, the lower half of Fiedler values occupies ranks
  // [0, n/2): verify on a path where the halves are the two ends.
  const PointSet points = PointSet::FullGrid(GridSpec({20}));
  RecursiveBisectionOptions options;
  options.leaf_size = 10;
  auto result = RecursiveSpectralOrder(points, options);
  ASSERT_TRUE(result.ok());
  // Ranks 0..9 must be one contiguous end of the path.
  std::vector<int64_t> low_points;
  for (int64_t r = 0; r < 10; ++r) {
    low_points.push_back(result->order.PointAtRank(r));
  }
  std::sort(low_points.begin(), low_points.end());
  const bool left_end = low_points[0] == 0 && low_points[9] == 9;
  const bool right_end = low_points[0] == 10 && low_points[9] == 19;
  EXPECT_TRUE(left_end || right_end);
}

TEST(RecursiveBisection, QualityComparableToDirectOrder) {
  // Both spectral variants produce low-cost arrangements: within an order
  // of magnitude of each other and far below a scrambled order. (On square
  // grids the direct order benefits from the degenerate diagonal mix, so
  // the variants are not expected to tie exactly.)
  const GridSpec grid({8, 8});
  const PointSet points = PointSet::FullGrid(grid);
  const Graph g = BuildGridGraph(grid);
  auto direct = SpectralMapper().Map(points);
  auto bisect = RecursiveSpectralOrder(points);
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(bisect.ok());
  const double direct_cost = direct->order.SquaredArrangementCost(g);
  const double bisect_cost = bisect->order.SquaredArrangementCost(g);
  EXPECT_LT(bisect_cost, 10.0 * direct_cost);
  EXPECT_LT(direct_cost, 10.0 * bisect_cost);

  std::vector<int64_t> scrambled_ranks(64);
  for (int64_t i = 0; i < 64; ++i) {
    scrambled_ranks[static_cast<size_t>(i)] = (i * 37) % 64;
  }
  auto scrambled = LinearOrder::FromRanks(scrambled_ranks);
  ASSERT_TRUE(scrambled.ok());
  const double scrambled_cost = scrambled->SquaredArrangementCost(g);
  EXPECT_LT(bisect_cost, scrambled_cost);
  EXPECT_LT(direct_cost, scrambled_cost);
}

TEST(RecursiveBisection, GraphInputWithWeights) {
  std::vector<GraphEdge> edges = {
      {0, 1, 1.0}, {1, 2, 1.0}, {2, 3, 1.0}, {3, 4, 1.0}, {4, 5, 1.0}};
  const Graph g = Graph::FromEdges(6, edges);
  RecursiveBisectionOptions options;
  options.leaf_size = 2;
  auto result = RecursiveSpectralOrderGraph(g, nullptr, options);
  ASSERT_TRUE(result.ok());
  const bool forward = result->order.RankOf(0) == 0;
  for (int64_t i = 0; i < 6; ++i) {
    EXPECT_EQ(result->order.RankOf(i), forward ? i : 5 - i);
  }
}

TEST(RecursiveBisection, AffinityEdgesHonored) {
  const PointSet points = PointSet::FullGrid(GridSpec({12}));
  RecursiveBisectionOptions plain;
  auto base = RecursiveSpectralOrder(points, plain);
  ASSERT_TRUE(base.ok());
  const int64_t before =
      std::abs(base->order.RankOf(1) - base->order.RankOf(10));

  RecursiveBisectionOptions tuned;
  tuned.base.affinity_edges.push_back({1, 10, 6.0});
  auto result = RecursiveSpectralOrder(points, tuned);
  ASSERT_TRUE(result.ok());
  const int64_t after =
      std::abs(result->order.RankOf(1) - result->order.RankOf(10));
  EXPECT_LT(after, before);
}

TEST(RecursiveBisection, EmptyInputRejected) {
  PointSet points(2);
  EXPECT_FALSE(RecursiveSpectralOrder(points).ok());
}

TEST(RecursiveBisection, WarmStartedChildrenMatchColdOrders) {
  // The rescue contract: feeding each child solve the parent's restricted
  // Fiedler block changes COST only, never the order. Both runs use the
  // same dense_threshold so the solver path per child is identical and the
  // only difference is the start (the solver's warm == cold contract plus
  // the quantized ranks absorb the remaining rounding noise).
  const PointSet points = PointSet::FullGrid(GridSpec({24, 24}));

  RecursiveBisectionOptions warm;
  warm.base.fiedler.dense_threshold = 32;
  warm.warm_start_children = true;
  auto warm_result = RecursiveSpectralOrder(points, warm);
  ASSERT_TRUE(warm_result.ok()) << warm_result.status();
  EXPECT_GT(warm_result->warm_solves, 0);
  EXPECT_GT(warm_result->matvecs, 0);

  RecursiveBisectionOptions cold = warm;
  cold.warm_start_children = false;
  auto cold_result = RecursiveSpectralOrder(points, cold);
  ASSERT_TRUE(cold_result.ok()) << cold_result.status();
  EXPECT_EQ(cold_result->warm_solves, 0);

  EXPECT_EQ(warm_result->num_solves, cold_result->num_solves);
  for (int64_t i = 0; i < points.size(); ++i) {
    ASSERT_EQ(warm_result->order.RankOf(i), cold_result->order.RankOf(i))
        << "point " << i;
  }
  // The whole point of the warm start: strictly less iteration work.
  EXPECT_LT(warm_result->matvecs, cold_result->matvecs);
}

}  // namespace
}  // namespace spectral
