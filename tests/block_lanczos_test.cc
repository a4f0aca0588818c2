// Block Lanczos solver tests: multi-pair extraction against diagonal
// operators and closed-form Laplacian spectra, deflation, Krylov
// exhaustion, Chebyshev on/off equivalence, and warm-start behaviour
// (including deliberately garbage starts).

#include <cmath>
#include <numbers>

#include <gtest/gtest.h>

#include "eigen/block_lanczos.h"
#include "eigen/fiedler.h"
#include "eigen/operator.h"
#include "graph/grid_graph.h"
#include "graph/laplacian.h"
#include "linalg/sparse_matrix.h"
#include "util/thread_pool.h"

namespace spectral {
namespace {

constexpr double kPi = std::numbers::pi;

SparseMatrix DiagonalMatrix(const Vector& d) {
  std::vector<Triplet> t;
  for (size_t i = 0; i < d.size(); ++i) {
    t.push_back({static_cast<int64_t>(i), static_cast<int64_t>(i), d[i]});
  }
  return SparseMatrix::FromTriplets(static_cast<int64_t>(d.size()),
                                    static_cast<int64_t>(d.size()), t);
}

SparseMatrix PathLaplacian(int n) {
  return BuildLaplacian(BuildGridGraph(GridSpec({static_cast<Coord>(n)})));
}

double PathLambda(int n, int k) { return 2.0 - 2.0 * std::cos(k * kPi / n); }

TEST(BlockLanczos, TopPairsOfDiagonal) {
  const SparseMatrix m = DiagonalMatrix({1.0, 9.0, 3.0, -2.0, 7.0, 0.5});
  const SparseOperator op(&m);
  BlockLanczosOptions options;
  options.num_pairs = 3;
  auto result = LargestEigenpairsBlock(op, {}, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->converged);
  ASSERT_EQ(result->eigenvalues.size(), 3u);
  EXPECT_NEAR(result->eigenvalues[0], 9.0, 1e-8);
  EXPECT_NEAR(result->eigenvalues[1], 7.0, 1e-8);
  EXPECT_NEAR(result->eigenvalues[2], 3.0, 1e-8);
  EXPECT_NEAR(std::fabs(result->eigenvectors[0][1]), 1.0, 1e-6);
  EXPECT_NEAR(std::fabs(result->eigenvectors[1][4]), 1.0, 1e-6);
}

TEST(BlockLanczos, EigenvectorsAreOrthonormal) {
  const SparseMatrix m = DiagonalMatrix({5.0, 4.0, 3.0, 2.0, 1.0});
  const SparseOperator op(&m);
  BlockLanczosOptions options;
  options.num_pairs = 3;
  auto result = LargestEigenpairsBlock(op, {}, options);
  ASSERT_TRUE(result.ok());
  for (size_t i = 0; i < result->eigenvectors.size(); ++i) {
    for (size_t j = 0; j < result->eigenvectors.size(); ++j) {
      const double expected = i == j ? 1.0 : 0.0;
      EXPECT_NEAR(Dot(result->eigenvectors[i], result->eigenvectors[j]),
                  expected, 1e-8);
    }
  }
}

TEST(BlockLanczos, DeflationExcludesDirections) {
  const SparseMatrix m = DiagonalMatrix({1.0, 9.0, 3.0, -2.0});
  const SparseOperator op(&m);
  std::vector<Vector> deflate = {{0.0, 1.0, 0.0, 0.0}};
  BlockLanczosOptions options;
  options.num_pairs = 2;
  auto result = LargestEigenpairsBlock(op, deflate, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->converged);
  EXPECT_NEAR(result->eigenvalues[0], 3.0, 1e-8);
  EXPECT_NEAR(result->eigenvalues[1], 1.0, 1e-8);
  for (const Vector& v : result->eigenvectors) {
    EXPECT_NEAR(v[1], 0.0, 1e-8);
  }
}

TEST(BlockLanczos, FullDeflationFails) {
  const SparseMatrix m = DiagonalMatrix({1.0, 2.0});
  const SparseOperator op(&m);
  std::vector<Vector> deflate = {{1.0, 0.0}, {0.0, 1.0}};
  EXPECT_FALSE(LargestEigenpairsBlock(op, deflate).ok());
}

TEST(BlockLanczos, PathLaplacianSmallestTriple) {
  // Shift-negate maps the smallest Laplacian eigenvalues to the top; with
  // ones deflated the block returns lambda2..lambda4 of the n-path.
  const int n = 60;
  const SparseMatrix lap = PathLaplacian(n);
  const SparseOperator inner(&lap);
  const double shift = lap.GershgorinBound() + 1e-9;
  const ShiftNegateOperator op(&inner, shift);
  std::vector<Vector> deflate = {
      Vector(static_cast<size_t>(n), 1.0 / std::sqrt(static_cast<double>(n)))};
  BlockLanczosOptions options;
  options.num_pairs = 3;
  auto result = LargestEigenpairsBlock(op, deflate, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->converged);
  for (int k = 0; k < 3; ++k) {
    EXPECT_NEAR(shift - result->eigenvalues[static_cast<size_t>(k)],
                PathLambda(n, k + 1), 1e-7)
        << "k=" << k;
  }
}

TEST(BlockLanczos, DeflatedKernelDoesNotLeakBack) {
  // The deflated ones vector is the *largest* eigenvalue of shift*I - L;
  // a solver that lets normalization amplify projection rounding will
  // re-discover it (theta == shift <=> lambda == 0). Tight tolerance plus
  // many restarts exercise exactly that failure mode.
  const int n = 80;
  const SparseMatrix lap = PathLaplacian(n);
  const SparseOperator inner(&lap);
  const double shift = lap.GershgorinBound() * 1.0001 + 1e-12;
  const ShiftNegateOperator op(&inner, shift);
  std::vector<Vector> deflate = {
      Vector(static_cast<size_t>(n), 1.0 / std::sqrt(static_cast<double>(n)))};
  BlockLanczosOptions options;
  options.num_pairs = 3;
  options.tol = 1e-12;
  auto result = LargestEigenpairsBlock(op, deflate, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->converged);
  EXPECT_NEAR(shift - result->eigenvalues[0], PathLambda(n, 1), 1e-8);
}

TEST(BlockLanczos, KrylovExhaustionReturnsExactPairs) {
  // Dimension 4 with one deflated direction: the reachable space has rank
  // 3, the basis exhausts immediately, and the Ritz pairs are exact.
  const SparseMatrix m = DiagonalMatrix({4.0, 3.0, 2.0, 1.0});
  const SparseOperator op(&m);
  std::vector<Vector> deflate = {{1.0, 0.0, 0.0, 0.0}};
  BlockLanczosOptions options;
  options.num_pairs = 3;
  auto result = LargestEigenpairsBlock(op, deflate, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->converged);
  ASSERT_EQ(result->eigenvalues.size(), 3u);
  EXPECT_NEAR(result->eigenvalues[0], 3.0, 1e-9);
  EXPECT_NEAR(result->eigenvalues[1], 2.0, 1e-9);
  EXPECT_NEAR(result->eigenvalues[2], 1.0, 1e-9);
}

TEST(BlockLanczos, ChebyshevOffMatchesOn) {
  const int n = 96;
  const SparseMatrix lap = PathLaplacian(n);
  const SparseOperator inner(&lap);
  const double shift = lap.GershgorinBound() * 1.0001 + 1e-12;
  const ShiftNegateOperator op(&inner, shift);
  std::vector<Vector> deflate = {
      Vector(static_cast<size_t>(n), 1.0 / std::sqrt(static_cast<double>(n)))};
  BlockLanczosOptions with_filter;
  with_filter.num_pairs = 2;
  BlockLanczosOptions without_filter = with_filter;
  without_filter.cheb_degree_max = 0;
  auto a = LargestEigenpairsBlock(op, deflate, with_filter);
  auto b = LargestEigenpairsBlock(op, deflate, without_filter);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a->converged);
  EXPECT_TRUE(b->converged);
  for (size_t k = 0; k < 2; ++k) {
    EXPECT_NEAR(a->eigenvalues[k], b->eigenvalues[k], 1e-8);
    EXPECT_NEAR(std::fabs(Dot(a->eigenvectors[k], b->eigenvectors[k])), 1.0,
                1e-5);
  }
}

TEST(BlockLanczos, ExactWarmStartConvergesFast) {
  const SparseMatrix m = DiagonalMatrix({6.0, 5.0, 4.0, 3.0, 2.0, 1.0});
  const SparseOperator op(&m);
  BlockLanczosOptions options;
  options.num_pairs = 2;
  const VectorBlock start = {{1.0, 0.0, 0.0, 0.0, 0.0, 0.0},
                             {0.0, 1.0, 0.0, 0.0, 0.0, 0.0}};
  options.start = start;
  auto result = LargestEigenpairsBlock(op, {}, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->converged);
  EXPECT_EQ(result->restarts, 1);
  EXPECT_NEAR(result->eigenvalues[0], 6.0, 1e-9);
  EXPECT_NEAR(result->eigenvalues[1], 5.0, 1e-9);
}

TEST(BlockLanczos, GarbageWarmStartStillConverges) {
  // A start block that is useless (orthogonal to the wanted eigenvectors,
  // wrong width, even a zero-ish column) must degrade to the random-start
  // path, not sink the solve.
  const int n = 50;
  const SparseMatrix lap = PathLaplacian(n);
  const SparseOperator inner(&lap);
  const double shift = lap.GershgorinBound() * 1.0001 + 1e-12;
  const ShiftNegateOperator op(&inner, shift);
  std::vector<Vector> deflate = {
      Vector(static_cast<size_t>(n), 1.0 / std::sqrt(static_cast<double>(n)))};
  BlockLanczosOptions options;
  options.num_pairs = 2;
  // Garbage: the (deflated!) ones direction and an alternating vector far
  // from the smooth Fiedler modes.
  VectorBlock start(2, Vector(static_cast<size_t>(n), 1.0));
  for (int i = 0; i < n; ++i) {
    start[1][static_cast<size_t>(i)] = (i % 2 == 0) ? 1.0 : -1.0;
  }
  options.start = start;
  auto result = LargestEigenpairsBlock(op, deflate, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->converged);
  EXPECT_NEAR(shift - result->eigenvalues[0], PathLambda(n, 1), 1e-7);
  EXPECT_NEAR(shift - result->eigenvalues[1], PathLambda(n, 2), 1e-7);
}

TEST(BlockLanczos, DeterministicAcrossRuns) {
  const int n = 40;
  const SparseMatrix lap = PathLaplacian(n);
  const SparseOperator inner(&lap);
  const ShiftNegateOperator op(&inner, lap.GershgorinBound() + 1e-9);
  std::vector<Vector> deflate = {
      Vector(static_cast<size_t>(n), 1.0 / std::sqrt(static_cast<double>(n)))};
  BlockLanczosOptions options;
  options.num_pairs = 3;
  auto a = LargestEigenpairsBlock(op, deflate, options);
  auto b = LargestEigenpairsBlock(op, deflate, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->matvecs, b->matvecs);
  for (size_t k = 0; k < a->eigenvectors.size(); ++k) {
    for (size_t i = 0; i < a->eigenvectors[k].size(); ++i) {
      EXPECT_DOUBLE_EQ(a->eigenvectors[k][i], b->eigenvectors[k][i]);
    }
  }
}

// The solver's byte-identity contract across parallelism levels: every
// kernel (fused SpMM, panel reorthogonalization, Rayleigh-Ritz Gram fill)
// partitions only across independent output elements, so eigenpairs and
// all work counters must match EXACTLY — not approximately — for any pool
// size. 48x48 comfortably clears SparseOperator's min_parallel_rows gate
// (2048), so the pooled row-partitioned SpMM really runs.
TEST(BlockLanczos, ByteIdenticalAcrossPoolSizes) {
  const SparseMatrix lap =
      BuildLaplacian(BuildGridGraph(GridSpec({48, 48})));
  FiedlerOptions options;
  options.dense_threshold = 0;

  auto serial = ComputeFiedler(lap, options);
  ASSERT_TRUE(serial.ok()) << serial.status();
  EXPECT_GT(serial->matvecs, 0);
  EXPECT_GT(serial->spmm_calls, 0);
  EXPECT_GT(serial->reorth_panels, 0);

  for (int threads : {2, 8}) {
    ThreadPool pool(threads);
    FiedlerOptions pooled_options = options;
    pooled_options.matvec_pool = &pool;
    auto pooled = ComputeFiedler(lap, pooled_options);
    ASSERT_TRUE(pooled.ok()) << pooled.status();
    EXPECT_EQ(pooled->matvecs, serial->matvecs);
    EXPECT_EQ(pooled->spmm_calls, serial->spmm_calls);
    EXPECT_EQ(pooled->reorth_panels, serial->reorth_panels);
    EXPECT_EQ(pooled->restarts, serial->restarts);
    ASSERT_EQ(pooled->pairs.size(), serial->pairs.size());
    for (size_t k = 0; k < pooled->pairs.size(); ++k) {
      ASSERT_DOUBLE_EQ(pooled->pairs[k].eigenvalue,
                       serial->pairs[k].eigenvalue);
      const Vector& pv = pooled->pairs[k].eigenvector;
      const Vector& sv = serial->pairs[k].eigenvector;
      ASSERT_EQ(pv.size(), sv.size());
      for (size_t i = 0; i < pv.size(); ++i) {
        ASSERT_DOUBLE_EQ(pv[i], sv[i])
            << "threads=" << threads << " pair=" << k << " row=" << i;
      }
    }
  }
}

}  // namespace
}  // namespace spectral
