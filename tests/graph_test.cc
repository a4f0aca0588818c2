#include <vector>

#include <gtest/gtest.h>

#include "graph/graph.h"
#include "graph/grid_graph.h"
#include "graph/laplacian.h"
#include "graph/point_graph.h"
#include "graph/traversal.h"
#include "linalg/dense_matrix.h"
#include "space/point_set.h"

namespace spectral {
namespace {

TEST(Graph, FromEdgesBasic) {
  std::vector<GraphEdge> edges = {{0, 1, 1.0}, {1, 2, 2.0}};
  const Graph g = Graph::FromEdges(3, edges);
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_EQ(g.Degree(1), 2);
  EXPECT_DOUBLE_EQ(g.WeightedDegree(1), 3.0);
  EXPECT_DOUBLE_EQ(g.TotalEdgeWeight(), 3.0);
}

TEST(Graph, DuplicateEdgesMerge) {
  std::vector<GraphEdge> edges = {{0, 1, 1.0}, {1, 0, 2.5}};
  const Graph g = Graph::FromEdges(2, edges);
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_DOUBLE_EQ(g.WeightedDegree(0), 3.5);
}

TEST(Graph, NeighborsAreSorted) {
  std::vector<GraphEdge> edges = {{2, 0, 1.0}, {2, 3, 1.0}, {2, 1, 1.0}};
  const Graph g = Graph::FromEdges(4, edges);
  const auto nbrs = g.Neighbors(2);
  ASSERT_EQ(nbrs.size(), 3u);
  EXPECT_EQ(nbrs[0], 0);
  EXPECT_EQ(nbrs[1], 1);
  EXPECT_EQ(nbrs[2], 3);
}

TEST(Graph, ForEachEdgeVisitsOncePerEdge) {
  std::vector<GraphEdge> edges = {{0, 1, 1.0}, {1, 2, 1.0}, {0, 2, 1.0}};
  const Graph g = Graph::FromEdges(3, edges);
  int count = 0;
  g.ForEachEdge([&](int64_t u, int64_t v, double) {
    EXPECT_LT(u, v);
    ++count;
  });
  EXPECT_EQ(count, 3);
}

TEST(Graph, IsolatedVertices) {
  const Graph g = Graph::FromEdges(5, std::vector<GraphEdge>{{1, 3, 1.0}});
  EXPECT_EQ(g.Degree(0), 0);
  EXPECT_EQ(g.Degree(1), 1);
  EXPECT_EQ(g.MaxDegree(), 1);
}

TEST(GridGraph, PathGraph) {
  const Graph g = BuildGridGraph(GridSpec({5}));
  EXPECT_EQ(g.num_vertices(), 5);
  EXPECT_EQ(g.num_edges(), 4);
  EXPECT_EQ(g.Degree(0), 1);
  EXPECT_EQ(g.Degree(2), 2);
}

TEST(GridGraph, TwoDimOrthogonalDegrees) {
  const Graph g = BuildGridGraph(GridSpec({3, 3}));
  EXPECT_EQ(g.num_vertices(), 9);
  EXPECT_EQ(g.num_edges(), 12);  // 2 * 3 * 2 grid edges
  EXPECT_EQ(g.Degree(0), 2);     // corner
  EXPECT_EQ(g.Degree(1), 3);     // edge cell
  EXPECT_EQ(g.Degree(4), 4);     // center
}

TEST(GridGraph, MooreDegrees) {
  GridGraphOptions options;
  options.connectivity = GridConnectivity::kMoore;
  const Graph g = BuildGridGraph(GridSpec({3, 3}), options);
  EXPECT_EQ(g.Degree(4), 8);  // center touches all
  EXPECT_EQ(g.Degree(0), 3);  // corner
  EXPECT_EQ(g.num_edges(), 20);
}

TEST(GridGraph, MooreDiagonalWeight) {
  GridGraphOptions options;
  options.connectivity = GridConnectivity::kMoore;
  options.diagonal_weight = 0.5;
  const Graph g = BuildGridGraph(GridSpec({2, 2}), options);
  // Each vertex: two orthogonal (1.0) + one diagonal (0.5).
  EXPECT_DOUBLE_EQ(g.WeightedDegree(0), 2.5);
}

TEST(GridGraph, ThreeDimDegrees) {
  const Graph g = BuildGridGraph(GridSpec({3, 3, 3}));
  EXPECT_EQ(g.Degree(13), 6);  // center of 3x3x3
  EXPECT_EQ(g.Degree(0), 3);
}

TEST(PointGraph, MatchesGridGraphOnFullGrid) {
  const GridSpec grid({4, 3});
  const PointSet points = PointSet::FullGrid(grid);
  auto pg = BuildPointGraph(points);
  ASSERT_TRUE(pg.ok());
  const Graph gg = BuildGridGraph(grid);
  ASSERT_EQ(pg->num_vertices(), gg.num_vertices());
  ASSERT_EQ(pg->num_edges(), gg.num_edges());
  for (int64_t v = 0; v < gg.num_vertices(); ++v) {
    EXPECT_EQ(pg->Degree(v), gg.Degree(v));
  }
}

TEST(PointGraph, SparsePointsRadius1) {
  PointSet points(2);
  points.Add(std::vector<Coord>{0, 0});
  points.Add(std::vector<Coord>{0, 1});
  points.Add(std::vector<Coord>{5, 5});
  auto g = BuildPointGraph(points);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 1);
  EXPECT_EQ(g->Degree(2), 0);
}

TEST(PointGraph, Radius2Connects) {
  PointSet points(2);
  points.Add(std::vector<Coord>{0, 0});
  points.Add(std::vector<Coord>{0, 2});
  points.Add(std::vector<Coord>{1, 1});
  PointGraphOptions options;
  options.radius = 2;
  auto g = BuildPointGraph(points, options);
  ASSERT_TRUE(g.ok());
  // All three pairs are within Manhattan distance 2.
  EXPECT_EQ(g->num_edges(), 3);
}

TEST(PointGraph, InverseDistanceWeight) {
  PointSet points(1);
  points.Add(std::vector<Coord>{0});
  points.Add(std::vector<Coord>{2});
  PointGraphOptions options;
  options.radius = 2;
  options.kernel = WeightKernel::kInverseDistance;
  auto g = BuildPointGraph(points, options);
  ASSERT_TRUE(g.ok());
  EXPECT_DOUBLE_EQ(g->WeightedDegree(0), 0.5);
}

TEST(PointGraph, RejectsDuplicates) {
  PointSet points(2);
  points.Add(std::vector<Coord>{1, 1});
  points.Add(std::vector<Coord>{1, 1});
  EXPECT_FALSE(BuildPointGraph(points).ok());
}

TEST(PointGraph, MooreConnectivity) {
  PointSet points(2);
  points.Add(std::vector<Coord>{0, 0});
  points.Add(std::vector<Coord>{1, 1});  // diagonal neighbor
  PointGraphOptions options;
  options.connectivity = GridConnectivity::kMoore;
  auto g = BuildPointGraph(points, options);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 1);
  // Orthogonal-only misses the diagonal.
  auto g4 = BuildPointGraph(points);
  ASSERT_TRUE(g4.ok());
  EXPECT_EQ(g4->num_edges(), 0);
}

TEST(Laplacian, MatchesPaperFigure3Matrix) {
  // 3x3 grid, 4-connectivity: diagonal = degrees (2,3,2,3,4,3,2,3,2),
  // off-diagonal -1 at grid edges (the matrix printed in Figure 3c).
  const Graph g = BuildGridGraph(GridSpec({3, 3}));
  const DenseMatrix l = DenseMatrix::FromSparse(BuildLaplacian(g));
  const double expected_diag[9] = {2, 3, 2, 3, 4, 3, 2, 3, 2};
  for (int i = 0; i < 9; ++i) {
    EXPECT_DOUBLE_EQ(l.At(i, i), expected_diag[i]) << i;
  }
  EXPECT_DOUBLE_EQ(l.At(0, 1), -1.0);
  EXPECT_DOUBLE_EQ(l.At(0, 3), -1.0);
  EXPECT_DOUBLE_EQ(l.At(0, 4), 0.0);
  EXPECT_DOUBLE_EQ(l.At(4, 1), -1.0);
  EXPECT_DOUBLE_EQ(l.At(4, 3), -1.0);
  EXPECT_DOUBLE_EQ(l.At(4, 5), -1.0);
  EXPECT_DOUBLE_EQ(l.At(4, 7), -1.0);
}

TEST(Laplacian, RowSumsZero) {
  const Graph g = BuildGridGraph(GridSpec({4, 5}));
  const SparseMatrix lap = BuildLaplacian(g);
  Vector ones(static_cast<size_t>(g.num_vertices()), 1.0);
  Vector out(ones.size());
  lap.MatVec(ones, out);
  for (double v : out) EXPECT_NEAR(v, 0.0, 1e-12);
}

TEST(Laplacian, DirichletEnergyMatchesQuadraticForm) {
  const Graph g = BuildGridGraph(GridSpec({3, 3}));
  const SparseMatrix lap = BuildLaplacian(g);
  Vector x(9);
  for (int i = 0; i < 9; ++i) x[static_cast<size_t>(i)] = 0.1 * i * i - 0.3 * i;
  Vector lx(9);
  lap.MatVec(x, lx);
  EXPECT_NEAR(DirichletEnergy(g, x), Dot(x, lx), 1e-10);
}

TEST(Traversal, ConnectedComponents) {
  std::vector<GraphEdge> edges = {{0, 1, 1.0}, {2, 3, 1.0}, {3, 4, 1.0}};
  const Graph g = Graph::FromEdges(6, edges);
  int64_t count = 0;
  const auto comp = ConnectedComponents(g, &count);
  EXPECT_EQ(count, 3);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[2], comp[3]);
  EXPECT_EQ(comp[3], comp[4]);
  EXPECT_NE(comp[0], comp[2]);
  EXPECT_NE(comp[5], comp[0]);
  EXPECT_NE(comp[5], comp[2]);
}

TEST(Traversal, IsConnected) {
  EXPECT_TRUE(IsConnected(BuildGridGraph(GridSpec({3, 3}))));
  EXPECT_FALSE(
      IsConnected(Graph::FromEdges(3, std::vector<GraphEdge>{{0, 1, 1.0}})));
  EXPECT_TRUE(IsConnected(Graph::FromEdges(0, {})));
}

TEST(Traversal, BfsDistances) {
  const Graph g = BuildGridGraph(GridSpec({3, 3}));
  const auto dist = BfsDistances(g, 0);
  EXPECT_EQ(dist[0], 0);
  EXPECT_EQ(dist[1], 1);
  EXPECT_EQ(dist[4], 2);
  EXPECT_EQ(dist[8], 4);
}

TEST(Traversal, BfsUnreachable) {
  const Graph g = Graph::FromEdges(3, std::vector<GraphEdge>{{0, 1, 1.0}});
  const auto dist = BfsDistances(g, 0);
  EXPECT_EQ(dist[2], -1);
}

}  // namespace
}  // namespace spectral
