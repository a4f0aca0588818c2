// End-to-end tests of the Spectral LPM core: the paper's worked example
// (Figure 3), optimality of the continuous relaxation (Theorems 1-3),
// section-4 extensions (affinity edges, 8-connectivity, weights), and
// disconnected-input handling.

#include <cmath>
#include <numbers>

#include <gtest/gtest.h>

#include "core/ordering_engine.h"
#include "core/ordering_request.h"
#include "core/spectral_lpm.h"
#include "graph/grid_graph.h"
#include "graph/laplacian.h"
#include "reference/lanczos.h"
#include "util/random.h"
#include "workload/generators.h"

namespace spectral {
namespace {

constexpr double kPi = std::numbers::pi;

StatusOr<OrderingResult> Order(const OrderingRequest& request) {
  auto engine = MakeOrderingEngine("spectral");
  if (!engine.ok()) return engine.status();
  return (*engine)->Order(request);
}

// The "spectral" engine on `points` under `options`.
StatusOr<OrderingResult> Map(const PointSet& points,
                             const SpectralLpmOptions& options = {}) {
  OrderingRequest request = OrderingRequest::ForPoints(points);
  request.options.spectral = options;
  return Order(request);
}

TEST(SpectralLpm, PathOrderIsContiguous) {
  // On a 1-d path the optimal order is the path itself (or its reverse).
  const PointSet points = PointSet::FullGrid(GridSpec({17}));
  auto result = Map(points);
  ASSERT_TRUE(result.ok()) << result.status();
  const int64_t first = result->order.RankOf(0);
  const bool forward = first == 0;
  for (int64_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(result->order.RankOf(i), forward ? i : points.size() - 1 - i);
  }
  EXPECT_NEAR(result->lambda2, 2.0 - 2.0 * std::cos(kPi / 17), 1e-8);
}

TEST(SpectralLpm, PaperFigure3Grid3x3) {
  // Paper Figure 3: 3x3 grid, lambda2 = 1. The printed eigenvector is one
  // member of the 2-d degenerate eigenspace; we verify the invariants that
  // are well-defined: lambda2, eigenvector validity, and that the assigned
  // values produce a permutation.
  const PointSet points = PointSet::FullGrid(GridSpec({3, 3}));
  auto result = Map(points);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_NEAR(result->lambda2, 1.0, 1e-9);

  const Graph g = BuildGridGraph(GridSpec({3, 3}));
  // The embedding is a unit-norm eigenvector: energy == lambda2.
  EXPECT_NEAR(DirichletEnergy(g, result->embedding), result->lambda2, 1e-8);
  EXPECT_NEAR(Norm2(result->embedding), 1.0, 1e-9);
  double sum = 0.0;
  for (double v : result->embedding) sum += v;
  EXPECT_NEAR(sum, 0.0, 1e-9);
}

TEST(SpectralLpm, TheoremOptimality) {
  // Theorems 1-3: among unit vectors orthogonal to 1, the Fiedler vector
  // minimizes the Dirichlet energy. Compare against random candidates and
  // the normalized sweep ranks.
  const GridSpec grid({4, 5});
  const PointSet points = PointSet::FullGrid(grid);
  const Graph g = BuildGridGraph(grid);
  auto result = Map(points);
  ASSERT_TRUE(result.ok());
  const double optimal = DirichletEnergy(g, result->embedding);
  EXPECT_NEAR(optimal, result->lambda2, 1e-8);

  Rng rng(77);
  for (int trial = 0; trial < 32; ++trial) {
    Vector x(static_cast<size_t>(points.size()));
    for (auto& v : x) v = rng.UniformDouble(-1.0, 1.0);
    const double mean = Sum(x) / static_cast<double>(x.size());
    for (auto& v : x) v -= mean;
    Normalize(x);
    EXPECT_GE(DirichletEnergy(g, x), optimal - 1e-9) << "trial " << trial;
  }

  // Normalized, centered sweep ranks are also a feasible candidate.
  Vector sweep(static_cast<size_t>(points.size()));
  for (int64_t i = 0; i < points.size(); ++i) {
    sweep[static_cast<size_t>(i)] = static_cast<double>(i);
  }
  const double mean = Sum(sweep) / static_cast<double>(sweep.size());
  for (auto& v : sweep) v -= mean;
  Normalize(sweep);
  EXPECT_GE(DirichletEnergy(g, sweep), optimal - 1e-9);
}

TEST(SpectralLpm, AffinityEdgesPullPointsTogether) {
  // Section 4: adding an affinity edge between two far-apart points must
  // shrink their distance in the 1-d order.
  const PointSet points = PointSet::FullGrid(GridSpec({16}));

  auto plain = Map(points);
  ASSERT_TRUE(plain.ok());
  const int64_t before =
      std::abs(plain->order.RankOf(2) - plain->order.RankOf(13));

  SpectralLpmOptions options;
  options.affinity_edges.push_back({2, 13, 4.0});
  auto tuned = Map(points, options);
  ASSERT_TRUE(tuned.ok());
  const int64_t after =
      std::abs(tuned->order.RankOf(2) - tuned->order.RankOf(13));
  EXPECT_LT(after, before);
}

TEST(SpectralLpm, AffinityEdgeValidation) {
  const PointSet points = PointSet::FullGrid(GridSpec({4}));
  SpectralLpmOptions options;
  options.affinity_edges.push_back({0, 9, 1.0});
  EXPECT_FALSE(Map(points, options).ok());
  options.affinity_edges = {{1, 1, 1.0}};
  EXPECT_FALSE(Map(points, options).ok());
  options.affinity_edges = {{0, 1, -2.0}};
  EXPECT_FALSE(Map(points, options).ok());
}

TEST(SpectralLpm, DisconnectedComponentsOrderedBySize) {
  // A 5-point segment and a 2-point segment, far apart: the mapper must
  // rank each component contiguously, larger component first.
  PointSet points(2);
  for (Coord i = 0; i < 5; ++i) points.Add(std::vector<Coord>{0, i});
  points.Add(std::vector<Coord>{10, 0});
  points.Add(std::vector<Coord>{10, 1});
  auto result = Map(points);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_components, 2);
  // Large component occupies ranks 0..4.
  for (int64_t i = 0; i < 5; ++i) {
    EXPECT_LT(result->order.RankOf(i), 5);
  }
  EXPECT_GE(result->order.RankOf(5), 5);
  EXPECT_GE(result->order.RankOf(6), 5);
}

TEST(SpectralLpm, SingletonComponents) {
  PointSet points(2);
  points.Add(std::vector<Coord>{0, 0});
  points.Add(std::vector<Coord>{5, 5});
  points.Add(std::vector<Coord>{9, 9});
  auto result = Map(points);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_components, 3);
  EXPECT_EQ(result->method, "trivial");
  // Singletons tie on size; ordered by lowest point index.
  EXPECT_EQ(result->order.RankOf(0), 0);
  EXPECT_EQ(result->order.RankOf(1), 1);
  EXPECT_EQ(result->order.RankOf(2), 2);
}

TEST(SpectralLpm, SinglePoint) {
  PointSet points(3);
  points.Add(std::vector<Coord>{1, 2, 3});
  auto result = Map(points);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->order.size(), 1);
  EXPECT_EQ(result->order.RankOf(0), 0);
}

TEST(SpectralLpm, EmptyInputRejected) {
  PointSet points(2);
  EXPECT_FALSE(Map(points).ok());
}

TEST(SpectralLpm, MooreConnectivityChangesTheSpectrum) {
  // Paper Figure 4: 4- vs 8-connectivity yields a different graph and a
  // different Fiedler problem. On the 4x4 grid the canonicalized orders
  // happen to coincide (both eigenspaces contain the same balanced diagonal
  // mix), but the eigenpairs demonstrably differ.
  const PointSet points = PointSet::FullGrid(GridSpec({4, 4}));
  auto four = Map(points);
  SpectralLpmOptions options;
  options.graph.connectivity = GridConnectivity::kMoore;
  auto eight = Map(points, options);
  ASSERT_TRUE(four.ok());
  ASSERT_TRUE(eight.ok());
  // More edges => stiffer graph => strictly larger algebraic connectivity.
  EXPECT_GT(eight->lambda2, four->lambda2 + 0.1);
  // The Fiedler vectors are genuinely different directions.
  EXPECT_LT(std::fabs(Dot(four->embedding, eight->embedding)), 1.0 - 1e-4);
}

TEST(SpectralLpm, MooreConnectivityChangesTheOrderOnRectangles) {
  // On a non-square grid the diagonal edges shift the spectrum enough to
  // reorder points (no degeneracy masks it).
  const PointSet points = PointSet::FullGrid(GridSpec({8, 3}));
  auto four = Map(points);
  SpectralLpmOptions options;
  options.graph.connectivity = GridConnectivity::kMoore;
  options.graph.weight = 1.0;
  auto eight = Map(points, options);
  ASSERT_TRUE(four.ok());
  ASSERT_TRUE(eight.ok());
  EXPECT_GT(eight->lambda2, four->lambda2);
}

TEST(SpectralLpm, MapGraphCustomWeights) {
  // Section 4 footnote: a weighted graph where one heavy edge dominates.
  std::vector<GraphEdge> edges = {
      {0, 1, 1.0}, {1, 2, 1.0}, {2, 3, 1.0}, {0, 3, 10.0}};
  const Graph g = Graph::FromEdges(4, edges);
  auto result = Order(OrderingRequest::ForGraph(g));
  ASSERT_TRUE(result.ok());
  // The heavy edge forces 0 and 3 adjacent in the order.
  EXPECT_EQ(std::abs(result->order.RankOf(0) - result->order.RankOf(3)), 1);
}

TEST(SpectralLpm, DeterministicAcrossRuns) {
  const PointSet points = PointSet::FullGrid(GridSpec({5, 5}));
  auto a = Map(points);
  auto b = Map(points);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (int64_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(a->order.RankOf(i), b->order.RankOf(i));
  }
}

TEST(SpectralLpm, BlockPathOnLargerGrid) {
  // Force the block path and validate against the closed form
  // lambda2(16x16 grid) = 2 - 2 cos(pi/16).
  const PointSet points = PointSet::FullGrid(GridSpec({16, 16}));
  const double exact = 2.0 - 2.0 * std::cos(kPi / 16);
  SpectralLpmOptions options;
  options.fiedler.dense_threshold = 0;
  auto result = Map(points, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_NE(result->method.find("block-lanczos"), std::string::npos)
      << result->method;
  EXPECT_NEAR(result->lambda2, exact, 1e-6);
  // The embedding must be a near-eigenvector: energy == lambda2.
  const Graph g = BuildGridGraph(GridSpec({16, 16}));
  EXPECT_NEAR(DirichletEnergy(g, result->embedding), result->lambda2, 1e-5);

  // The scalar oracle reaches the same closed form.
  auto oracle = LanczosPath(BuildLaplacian(g));
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  EXPECT_NEAR(oracle->pairs[0].eigenvalue, exact, 1e-6);
}

TEST(SpectralLpm, EnginesProduceSameOrder) {
  const PointSet points = PointSet::FullGrid(GridSpec({6, 5}));
  SpectralLpmOptions dense;
  dense.fiedler.dense_threshold = points.size();
  SpectralLpmOptions block;
  block.fiedler.dense_threshold = 0;
  auto a = Map(points, dense);
  auto b = Map(points, block);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->method, "dense-jacobi");
  EXPECT_EQ(b->method, "block-lanczos");
  for (int64_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(a->order.RankOf(i), b->order.RankOf(i)) << "point " << i;
  }

  // Fiedler level: lambda2 is simple on a 6x5 grid, so the oracle's raw
  // vector matches the dense embedding up to sign.
  auto oracle = LanczosPath(BuildLaplacian(BuildGridGraph(GridSpec({6, 5}))));
  ASSERT_TRUE(oracle.ok());
  EXPECT_NEAR(oracle->pairs[0].eigenvalue, a->lambda2, 1e-7);
  EXPECT_NEAR(std::fabs(Dot(oracle->pairs[0].eigenvector, a->embedding)), 1.0,
              1e-5);
}

TEST(SpectralLpm, OracleRejectsDisconnectedGraph) {
  PointSet points(1);
  points.Add(std::vector<Coord>{0});
  points.Add(std::vector<Coord>{1});
  points.Add(std::vector<Coord>{5});
  points.Add(std::vector<Coord>{6});
  auto graph = BuildPointGraph(points);
  ASSERT_TRUE(graph.ok());
  const SparseMatrix lap = BuildLaplacian(*graph);
  FiedlerOptions dense;
  dense.dense_threshold = points.size();
  auto a = ComputeFiedler(lap, dense);
  auto b = LanczosPath(lap);
  EXPECT_EQ(a.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(b.status().code(), StatusCode::kFailedPrecondition);
  // The engine splits the components instead.
  auto mapped = Map(points);
  ASSERT_TRUE(mapped.ok());
  EXPECT_EQ(mapped->num_components, 2);
}

TEST(SpectralLpm, ConnectedBlobWorkload) {
  Rng rng(5);
  const PointSet points = SampleConnectedBlob(GridSpec({12, 12}), 60, rng);
  auto result = Map(points);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_components, 1);
  EXPECT_EQ(result->order.size(), points.size());
}

TEST(SpectralLpm, InverseDistanceWeightedRadius2) {
  const PointSet points = PointSet::FullGrid(GridSpec({6, 6}));
  SpectralLpmOptions options;
  options.graph.radius = 2;
  options.graph.kernel = WeightKernel::kInverseDistance;
  auto result = Map(points, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->order.size(), 36);
  EXPECT_GT(result->lambda2, 0.0);
}

}  // namespace
}  // namespace spectral
