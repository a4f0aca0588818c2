// Fiedler driver tests: closed-form algebraic connectivity, degenerate
// eigenspace handling (the paper's square-grid examples), cross-validation
// of the dense and block paths against the scalar Lanczos oracle, and
// disconnection detection.

#include <cmath>
#include <numbers>

#include <gtest/gtest.h>

#include "eigen/fiedler.h"
#include "graph/grid_graph.h"
#include "graph/laplacian.h"
#include "reference/lanczos.h"
#include "space/point_set.h"

namespace spectral {
namespace {

constexpr double kPi = std::numbers::pi;

double PathLambda(int n, int k = 1) { return 2.0 - 2.0 * std::cos(k * kPi / n); }

SparseMatrix GridLaplacian(std::vector<Coord> sides) {
  return BuildLaplacian(BuildGridGraph(GridSpec(std::move(sides))));
}

double LaplacianResidual(const SparseMatrix& lap, const Vector& v,
                         double lambda) {
  Vector lv(v.size());
  lap.MatVec(v, lv);
  Axpy(-lambda, v, lv);
  return Norm2(lv);
}

// Both paths of ComputeFiedler: dense_threshold >= n forces the dense one,
// 0 the block one.
FiedlerOptions DenseOptions() {
  FiedlerOptions options;
  options.dense_threshold = 1 << 20;
  return options;
}

FiedlerOptions BlockOptions() {
  FiedlerOptions options;
  options.dense_threshold = 0;
  return options;
}

TEST(Fiedler, PathLambda2BothEngines) {
  const int n = 20;
  const SparseMatrix lap = GridLaplacian({n});
  for (const FiedlerOptions& options : {DenseOptions(), BlockOptions()}) {
    auto result = ComputeFiedler(lap, options);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_NEAR(result->lambda2, PathLambda(n), 1e-7);
    EXPECT_LT(LaplacianResidual(lap, result->fiedler, result->lambda2), 1e-6);
  }
  auto oracle = LanczosPath(lap);
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  EXPECT_NEAR(oracle->pairs[0].eigenvalue, PathLambda(n), 1e-7);
  EXPECT_LT(LaplacianResidual(lap, oracle->pairs[0].eigenvector,
                              oracle->pairs[0].eigenvalue),
            1e-6);
}

TEST(Fiedler, PathFiedlerVectorIsMonotone) {
  // For a path, the Fiedler vector is cos((i + 1/2) pi / n): strictly
  // monotone, so the induced order must be the path order (or its reverse).
  const int n = 31;
  auto result = ComputeFiedler(GridLaplacian({n}));
  ASSERT_TRUE(result.ok());
  const Vector& v = result->fiedler;
  const bool increasing = v[1] > v[0];
  for (int i = 1; i < n; ++i) {
    if (increasing) {
      EXPECT_GT(v[static_cast<size_t>(i)], v[static_cast<size_t>(i - 1)]);
    } else {
      EXPECT_LT(v[static_cast<size_t>(i)], v[static_cast<size_t>(i - 1)]);
    }
  }
}

TEST(Fiedler, CycleIsDegenerate) {
  // Cycle C_n: lambda2 = 2 - 2 cos(2 pi / n) with multiplicity 2.
  const int n = 12;
  std::vector<GraphEdge> edges;
  for (int i = 0; i < n; ++i) edges.push_back({i, (i + 1) % n, 1.0});
  const SparseMatrix lap = BuildLaplacian(Graph::FromEdges(n, edges));
  FiedlerOptions options;
  options.num_pairs = 3;
  auto result = ComputeFiedler(lap, options);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->lambda2, 2.0 - 2.0 * std::cos(2.0 * kPi / n), 1e-8);
  EXPECT_EQ(result->degenerate_dim, 2);
}

TEST(Fiedler, SquareGridDegeneracyAndLambda) {
  // 3x3 grid (paper Figure 3): lambda2 = 1 with multiplicity 2.
  const SparseMatrix lap = GridLaplacian({3, 3});
  FiedlerOptions options;
  options.num_pairs = 3;
  auto result = ComputeFiedler(lap, options);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->lambda2, 1.0, 1e-9);
  EXPECT_EQ(result->degenerate_dim, 2);
  // Any canonicalized vector must still be an eigenvector for lambda2.
  EXPECT_LT(LaplacianResidual(lap, result->fiedler, result->lambda2), 1e-7);
}

TEST(Fiedler, RectangleGridNonDegenerate) {
  // 4x3 grid: lambda2 = 2 - 2 cos(pi/4) (the longer axis), multiplicity 1.
  const SparseMatrix lap = GridLaplacian({4, 3});
  auto result = ComputeFiedler(lap);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->lambda2, PathLambda(4), 1e-9);
  EXPECT_EQ(result->degenerate_dim, 1);
}

TEST(Fiedler, EnginesAgreeOnGrid) {
  const SparseMatrix lap = GridLaplacian({5, 4});
  auto dense = ComputeFiedler(lap, DenseOptions());
  ASSERT_TRUE(dense.ok());
  auto block = ComputeFiedler(lap, BlockOptions());
  ASSERT_TRUE(block.ok());
  EXPECT_NEAR(dense->lambda2, block->lambda2, 1e-7);
  // Eigenvectors agree up to sign.
  EXPECT_NEAR(std::fabs(Dot(dense->fiedler, block->fiedler)), 1.0, 1e-5);

  // The oracle's raw Fiedler pair: lambda2 is simple on a 5x4 grid, so the
  // uncanonicalized vector matches too.
  auto oracle = LanczosPath(lap);
  ASSERT_TRUE(oracle.ok());
  EXPECT_NEAR(dense->lambda2, oracle->pairs[0].eigenvalue, 1e-7);
  EXPECT_NEAR(std::fabs(Dot(dense->fiedler, oracle->pairs[0].eigenvector)),
              1.0, 1e-5);
}

TEST(Fiedler, DisconnectedGraphRejected) {
  // Two disjoint edges: second zero eigenvalue must be detected.
  std::vector<GraphEdge> edges = {{0, 1, 1.0}, {2, 3, 1.0}};
  const SparseMatrix lap = BuildLaplacian(Graph::FromEdges(4, edges));
  for (const FiedlerOptions& options : {DenseOptions(), BlockOptions()}) {
    auto result = ComputeFiedler(lap, options);
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  }
  auto oracle = LanczosPath(lap);
  EXPECT_FALSE(oracle.ok());
  EXPECT_EQ(oracle.status().code(), StatusCode::kFailedPrecondition);
}

TEST(Fiedler, TwoVertices) {
  std::vector<GraphEdge> edges = {{0, 1, 3.0}};
  const SparseMatrix lap = BuildLaplacian(Graph::FromEdges(2, edges));
  auto result = ComputeFiedler(lap);
  ASSERT_TRUE(result.ok());
  // L = [[3,-3],[-3,3]]: lambda2 = 6.
  EXPECT_NEAR(result->lambda2, 6.0, 1e-10);
}

TEST(Fiedler, WeightScalesLambda2) {
  const int n = 10;
  std::vector<GraphEdge> light, heavy;
  for (int i = 0; i + 1 < n; ++i) {
    light.push_back({i, i + 1, 1.0});
    heavy.push_back({i, i + 1, 2.5});
  }
  auto a = ComputeFiedler(BuildLaplacian(Graph::FromEdges(n, light)));
  auto b = ComputeFiedler(BuildLaplacian(Graph::FromEdges(n, heavy)));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NEAR(b->lambda2, 2.5 * a->lambda2, 1e-8);
}

TEST(Fiedler, CompleteGraphLambda2) {
  // K_n: lambda2 = n (multiplicity n-1).
  const int n = 7;
  std::vector<GraphEdge> edges;
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) edges.push_back({i, j, 1.0});
  }
  FiedlerOptions options;
  options.num_pairs = 4;
  auto result = ComputeFiedler(BuildLaplacian(Graph::FromEdges(n, edges)),
                               options);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->lambda2, static_cast<double>(n), 1e-8);
  EXPECT_GE(result->degenerate_dim, 3);  // limited by num_pairs
}

TEST(Fiedler, StarGraphLambda2) {
  // Star S_n (hub + n-1 leaves): lambda2 = 1.
  const int n = 9;
  std::vector<GraphEdge> edges;
  for (int i = 1; i < n; ++i) edges.push_back({0, i, 1.0});
  auto result = ComputeFiedler(BuildLaplacian(Graph::FromEdges(n, edges)));
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->lambda2, 1.0, 1e-8);
}

TEST(Fiedler, BalancedMixIsAxisFairOnSquareGrid) {
  // With balanced-mix canonicalization over a square grid, the Fiedler
  // vector must weight both axes equally: correlation with centered x and
  // centered y should have equal magnitude.
  const GridSpec grid({4, 4});
  const SparseMatrix lap = GridLaplacian({4, 4});
  const PointSet points = PointSet::FullGrid(grid);
  const auto axes = points.CenteredAxisFunctions();
  FiedlerOptions options;
  options.num_pairs = 3;
  auto result = ComputeFiedler(lap, options, axes);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->degenerate_dim, 2);
  const double cx = std::fabs(Dot(result->fiedler, axes[0]));
  const double cy = std::fabs(Dot(result->fiedler, axes[1]));
  EXPECT_GT(cx, 1e-6);
  EXPECT_NEAR(cx, cy, 1e-6);
}

TEST(Fiedler, SignConventionIsDeterministic) {
  const SparseMatrix lap = GridLaplacian({6});
  auto a = ComputeFiedler(lap);
  auto b = ComputeFiedler(lap);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (size_t i = 0; i < a->fiedler.size(); ++i) {
    EXPECT_DOUBLE_EQ(a->fiedler[i], b->fiedler[i]);
  }
}

TEST(Fiedler, RejectsTinyGraphs) {
  const SparseMatrix lap = SparseMatrix::FromTriplets(1, 1, {{0, 0, 0.0}});
  EXPECT_FALSE(ComputeFiedler(lap).ok());
}

TEST(Fiedler, LambdaLowerBoundsTheorem) {
  // Fiedler 1973: lambda2 <= n/(n-1) * min degree. Sanity-check on a grid.
  const SparseMatrix lap = GridLaplacian({5, 5});
  auto result = ComputeFiedler(lap);
  ASSERT_TRUE(result.ok());
  const double n = 25.0;
  EXPECT_LE(result->lambda2, n / (n - 1.0) * 2.0 + 1e-9);  // min degree 2
  EXPECT_GT(result->lambda2, 0.0);
}

}  // namespace
}  // namespace spectral
