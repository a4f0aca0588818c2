// Property-based tests: randomized inputs and parameterized sweeps that
// check structural invariants across modules rather than single examples.

#include <algorithm>
#include <cmath>
#include <set>
#include <tuple>

#include <gtest/gtest.h>

#include "core/curve_order.h"
#include "core/recursive_bisection.h"
#include "core/ordering_engine.h"
#include "core/ordering_request.h"
#include "eigen/fiedler.h"
#include "eigen/jacobi.h"
#include "eigen/operator.h"
#include "graph/grid_graph.h"
#include "graph/laplacian.h"
#include "graph/point_graph.h"
#include "graph/subgraph.h"
#include "graph/traversal.h"
#include "linalg/dense_matrix.h"
#include "reference/lanczos.h"
#include "util/random.h"
#include "workload/generators.h"

namespace spectral {
namespace {

// ---------------------------------------------------------------------------
// Random connected graphs: the scalar Lanczos oracle agrees with the dense
// path.

class RandomGraphEigenTest : public ::testing::TestWithParam<uint64_t> {};

Graph RandomConnectedGraph(int64_t n, double extra_edge_prob, Rng& rng) {
  std::vector<GraphEdge> edges;
  // Random spanning tree first (connectivity), then extra random edges.
  for (int64_t v = 1; v < n; ++v) {
    edges.push_back({rng.UniformInt(0, v - 1), v,
                     rng.UniformDouble(0.5, 2.0)});
  }
  for (int64_t u = 0; u < n; ++u) {
    for (int64_t v = u + 1; v < n; ++v) {
      if (rng.Bernoulli(extra_edge_prob)) {
        edges.push_back({u, v, rng.UniformDouble(0.5, 2.0)});
      }
    }
  }
  return Graph::FromEdges(n, edges);
}

TEST_P(RandomGraphEigenTest, LanczosMatchesDenseLambda2) {
  Rng rng(GetParam());
  const int64_t n = 20 + static_cast<int64_t>(rng.UniformInt(0, 40));
  const Graph g = RandomConnectedGraph(n, 0.08, rng);
  const SparseMatrix lap = BuildLaplacian(g);

  FiedlerOptions dense;
  dense.dense_threshold = n;
  auto a = ComputeFiedler(lap, dense);
  auto b = LanczosPath(lap);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_NEAR(a->lambda2, b->pairs[0].eigenvalue,
              1e-6 * std::max(1.0, a->lambda2));
  // Random weights make lambda2 simple, so the vectors agree up to sign.
  EXPECT_NEAR(std::fabs(Dot(a->fiedler, b->pairs[0].eigenvector)), 1.0, 1e-5);
}

TEST_P(RandomGraphEigenTest, FiedlerVectorInvariants) {
  Rng rng(GetParam() ^ 0xF00Dull);
  const int64_t n = 15 + static_cast<int64_t>(rng.UniformInt(0, 30));
  const Graph g = RandomConnectedGraph(n, 0.1, rng);
  const SparseMatrix lap = BuildLaplacian(g);
  auto result = ComputeFiedler(lap);
  ASSERT_TRUE(result.ok());
  // Unit norm, orthogonal to ones, nonnegative eigenvalue, small residual.
  EXPECT_NEAR(Norm2(result->fiedler), 1.0, 1e-8);
  EXPECT_NEAR(Sum(result->fiedler), 0.0, 1e-7);
  EXPECT_GT(result->lambda2, 0.0);
  Vector lv(result->fiedler.size());
  lap.MatVec(result->fiedler, lv);
  Axpy(-result->lambda2, result->fiedler, lv);
  EXPECT_LT(Norm2(lv), 1e-5 * std::max(1.0, result->lambda2));
}

TEST_P(RandomGraphEigenTest, EnergyIsMinimalAmongRandomCandidates) {
  Rng rng(GetParam() ^ 0xBEEFull);
  const int64_t n = 12 + static_cast<int64_t>(rng.UniformInt(0, 20));
  const Graph g = RandomConnectedGraph(n, 0.15, rng);
  auto result = ComputeFiedler(BuildLaplacian(g));
  ASSERT_TRUE(result.ok());
  const double optimal = DirichletEnergy(g, result->fiedler);
  for (int trial = 0; trial < 16; ++trial) {
    Vector x(static_cast<size_t>(n));
    for (auto& v : x) v = rng.UniformDouble(-1.0, 1.0);
    const double mean = Sum(x) / static_cast<double>(n);
    for (auto& v : x) v -= mean;
    if (Normalize(x) == 0.0) continue;
    EXPECT_GE(DirichletEnergy(g, x), optimal - 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphEigenTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---------------------------------------------------------------------------
// Spectral mapping invariants across random connected blobs.

class BlobMappingTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, int64_t>> {};

TEST_P(BlobMappingTest, MappingIsValidPermutationWithOptimalValues) {
  const auto [seed, count] = GetParam();
  Rng rng(seed);
  const PointSet points = SampleConnectedBlob(GridSpec({16, 16}), count, rng);
  auto engine = MakeOrderingEngine("spectral");
  ASSERT_TRUE(engine.ok());
  auto result = (*engine)->Order(OrderingRequest::ForPoints(points));
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->order.size(), points.size());

  std::vector<bool> seen(static_cast<size_t>(points.size()), false);
  for (int64_t i = 0; i < points.size(); ++i) {
    const int64_t r = result->order.RankOf(i);
    ASSERT_GE(r, 0);
    ASSERT_LT(r, points.size());
    EXPECT_FALSE(seen[static_cast<size_t>(r)]);
    seen[static_cast<size_t>(r)] = true;
  }
  // Inverse is consistent.
  for (int64_t r = 0; r < points.size(); ++r) {
    EXPECT_EQ(result->order.RankOf(result->order.PointAtRank(r)), r);
  }
  // values achieves lambda2 on the blob's neighborhood graph.
  auto graph = BuildPointGraph(points);
  ASSERT_TRUE(graph.ok());
  EXPECT_NEAR(DirichletEnergy(*graph, result->embedding), result->lambda2,
              1e-5 * std::max(1.0, result->lambda2));
}

TEST_P(BlobMappingTest, BisectionAlsoValidOnBlobs) {
  const auto [seed, count] = GetParam();
  Rng rng(seed ^ 0x515Eull);
  const PointSet points = SampleConnectedBlob(GridSpec({16, 16}), count, rng);
  auto result = RecursiveSpectralOrder(points);
  ASSERT_TRUE(result.ok()) << result.status();
  std::set<int64_t> ranks;
  for (int64_t i = 0; i < points.size(); ++i) {
    ranks.insert(result->order.RankOf(i));
  }
  EXPECT_EQ(static_cast<int64_t>(ranks.size()), points.size());
}

INSTANTIATE_TEST_SUITE_P(
    BlobCases, BlobMappingTest,
    ::testing::Combine(::testing::Values<uint64_t>(11, 22, 33),
                       ::testing::Values<int64_t>(20, 60, 120)));

// ---------------------------------------------------------------------------
// Curve-order invariants across kinds and point sets.

class CurveOrderPropertyTest
    : public ::testing::TestWithParam<std::tuple<CurveKind, uint64_t>> {};

TEST_P(CurveOrderPropertyTest, RestrictionIsPermutationAndMonotone) {
  const auto [kind, seed] = GetParam();
  Rng rng(seed);
  const GridSpec grid({20, 20});
  const PointSet points = SampleUniformPoints(grid, 150, rng);
  auto order = OrderByCurve(points, kind);
  ASSERT_TRUE(order.ok()) << CurveKindName(kind);

  std::set<int64_t> ranks;
  for (int64_t i = 0; i < points.size(); ++i) {
    ranks.insert(order->RankOf(i));
  }
  EXPECT_EQ(static_cast<int64_t>(ranks.size()), points.size());
}

TEST_P(CurveOrderPropertyTest, SubsetKeepsRelativeOrder) {
  // Removing points must not change the relative order of the survivors
  // (a property every curve-induced order has, and spectral does not).
  const auto [kind, seed] = GetParam();
  Rng rng(seed ^ 0xACEull);
  const GridSpec grid({16, 16});
  const PointSet all = SampleUniformPoints(grid, 120, rng);
  // Survivors: every other point, same coordinates.
  PointSet survivors(2);
  std::vector<int64_t> survivor_ids;
  for (int64_t i = 0; i < all.size(); i += 2) {
    survivors.Add(all[i]);
    survivor_ids.push_back(i);
  }
  // NOTE: OrderByCurve translates by the bounding box, which can differ
  // between the two sets; pin both orders to the same explicit grid.
  auto enclosing = EnclosingGridFor(kind, 2, 16);
  ASSERT_TRUE(enclosing.ok()) << CurveKindName(kind);
  auto curve = MakeCurve(kind, *enclosing);
  ASSERT_TRUE(curve.ok()) << CurveKindName(kind);
  auto full = OrderByCurveOnGrid(all, **curve);
  auto sub = OrderByCurveOnGrid(survivors, **curve);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(sub.ok());
  for (size_t a = 0; a < survivor_ids.size(); ++a) {
    for (size_t b = a + 1; b < survivor_ids.size(); ++b) {
      const bool full_less = full->RankOf(survivor_ids[a]) <
                             full->RankOf(survivor_ids[b]);
      const bool sub_less = sub->RankOf(static_cast<int64_t>(a)) <
                            sub->RankOf(static_cast<int64_t>(b));
      ASSERT_EQ(full_less, sub_less) << CurveKindName(kind);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, CurveOrderPropertyTest,
    ::testing::Combine(::testing::Values(CurveKind::kSweep, CurveKind::kSnake,
                                         CurveKind::kZOrder, CurveKind::kGray,
                                         CurveKind::kHilbert,
                                         CurveKind::kPeano),
                       ::testing::Values<uint64_t>(101, 202)),
    [](const ::testing::TestParamInfo<std::tuple<CurveKind, uint64_t>>& info) {
      return std::string(CurveKindName(std::get<0>(info.param))) + "_s" +
             std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Graph construction invariants under randomization.

class RandomPointGraphTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomPointGraphTest, EdgesMatchBruteForce) {
  Rng rng(GetParam());
  const GridSpec grid({12, 12});
  const PointSet points = SampleUniformPoints(grid, 50, rng);
  PointGraphOptions options;
  options.radius = 1 + static_cast<int>(rng.UniformInt(0, 1));
  auto g = BuildPointGraph(points, options);
  ASSERT_TRUE(g.ok());

  int64_t expected = 0;
  for (int64_t i = 0; i < points.size(); ++i) {
    for (int64_t j = i + 1; j < points.size(); ++j) {
      const int64_t d = points.Distance(i, j);
      if (d >= 1 && d <= options.radius) ++expected;
    }
  }
  EXPECT_EQ(g->num_edges(), expected);
}

TEST_P(RandomPointGraphTest, SubgraphDegreesBounded) {
  Rng rng(GetParam() ^ 0x5ab5ull);
  const Graph g = RandomConnectedGraph(40, 0.1, rng);
  std::vector<int64_t> verts;
  for (int64_t v = 0; v < 40; v += 2) verts.push_back(v);
  const InducedSubgraph sub = BuildInducedSubgraph(g, verts);
  for (size_t i = 0; i < verts.size(); ++i) {
    EXPECT_LE(sub.graph.Degree(static_cast<int64_t>(i)),
              g.Degree(verts[i]));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPointGraphTest,
                         ::testing::Values(7, 8, 9, 10));

// ---------------------------------------------------------------------------
// Jacobi vs Lanczos on random diagonal-dominant symmetric matrices
// (beyond Laplacians).

class RandomMatrixTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomMatrixTest, LanczosFindsDominantEigenvalue) {
  Rng rng(GetParam());
  const int64_t n = 30;
  std::vector<Triplet> triplets;
  DenseMatrix dense(n, n);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = i; j < n; ++j) {
      if (i != j && !rng.Bernoulli(0.2)) continue;
      const double v = rng.UniformDouble(-1.0, 1.0) + (i == j ? 3.0 : 0.0);
      triplets.push_back({i, j, v});
      if (i != j) triplets.push_back({j, i, v});
      dense.At(i, j) = v;
      dense.At(j, i) = v;
    }
  }
  const SparseMatrix sparse = SparseMatrix::FromTriplets(n, n, triplets);
  const SparseOperator op(&sparse);
  auto lanczos = LargestEigenpair(op, {});
  auto jacobi = JacobiEigenSolve(dense);
  ASSERT_TRUE(lanczos.ok());
  ASSERT_TRUE(jacobi.ok());
  EXPECT_NEAR(lanczos->eigenvalue,
              jacobi->eigenvalues[static_cast<size_t>(n - 1)], 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomMatrixTest,
                         ::testing::Values(21, 22, 23, 24, 25));

}  // namespace
}  // namespace spectral
