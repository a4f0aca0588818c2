// Lanczos solver tests against diagonal operators and closed-form graph
// Laplacian spectra.

#include <cmath>
#include <numbers>

#include <gtest/gtest.h>

#include "reference/lanczos.h"
#include "eigen/operator.h"
#include "graph/grid_graph.h"
#include "graph/laplacian.h"
#include "linalg/sparse_matrix.h"

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
  const GridSpec grid({static_cast<Coord>(n)});
  return BuildLaplacian(BuildGridGraph(grid));
}

TEST(Lanczos, DominantOfDiagonal) {
  const SparseMatrix m = DiagonalMatrix({1.0, 5.0, 3.0, -2.0});
  const SparseOperator op(&m);
  auto result = LargestEigenpair(op, {});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->converged);
  EXPECT_NEAR(result->eigenvalue, 5.0, 1e-8);
  EXPECT_NEAR(std::fabs(result->eigenvector[1]), 1.0, 1e-6);
}

TEST(Lanczos, DeflationFindsSecond) {
  const SparseMatrix m = DiagonalMatrix({1.0, 5.0, 3.0, -2.0});
  const SparseOperator op(&m);
  std::vector<Vector> deflate = {{0.0, 1.0, 0.0, 0.0}};
  auto result = LargestEigenpair(op, deflate);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->converged);
  EXPECT_NEAR(result->eigenvalue, 3.0, 1e-8);
}

TEST(Lanczos, FullDeflationFails) {
  const SparseMatrix m = DiagonalMatrix({1.0, 2.0});
  const SparseOperator op(&m);
  std::vector<Vector> deflate = {{1.0, 0.0}, {0.0, 1.0}};
  EXPECT_FALSE(LargestEigenpair(op, deflate).ok());
}

TEST(Lanczos, DimensionOne) {
  const SparseMatrix m = DiagonalMatrix({4.2});
  const SparseOperator op(&m);
  auto result = LargestEigenpair(op, {});
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->eigenvalue, 4.2, 1e-10);
}

TEST(Lanczos, ShiftNegateMapsSmallestToLargest) {
  const SparseMatrix m = DiagonalMatrix({1.0, 5.0, 3.0});
  const SparseOperator inner(&m);
  const ShiftNegateOperator op(&inner, 10.0);
  auto result = LargestEigenpair(op, {});
  ASSERT_TRUE(result.ok());
  // Largest of 10 - lambda is at the smallest lambda = 1.
  EXPECT_NEAR(result->eigenvalue, 9.0, 1e-8);
}

TEST(Lanczos, PathFiedlerValue) {
  // Smallest non-trivial Laplacian eigenvalue of the n-path is
  // 2 - 2 cos(pi / n); found via shift-negate with the ones vector deflated.
  const int n = 50;
  const SparseMatrix lap = PathLaplacian(n);
  const SparseOperator inner(&lap);
  const double shift = lap.GershgorinBound() + 1e-9;
  const ShiftNegateOperator op(&inner, shift);
  std::vector<Vector> deflate = {
      Vector(static_cast<size_t>(n), 1.0 / std::sqrt(static_cast<double>(n)))};
  auto result = LargestEigenpair(op, deflate);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->converged);
  const double lambda2 = shift - result->eigenvalue;
  EXPECT_NEAR(lambda2, 2.0 - 2.0 * std::cos(kPi / n), 1e-7);
}

TEST(Lanczos, ResidualIsSmallOnConvergence) {
  const int n = 40;
  const SparseMatrix lap = PathLaplacian(n);
  const SparseOperator inner(&lap);
  const double shift = lap.GershgorinBound() + 1e-9;
  const ShiftNegateOperator op(&inner, shift);
  std::vector<Vector> deflate = {
      Vector(static_cast<size_t>(n), 1.0 / std::sqrt(static_cast<double>(n)))};
  LanczosOptions options;
  options.tol = 1e-10;
  auto result = LargestEigenpair(op, deflate, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->converged);
  EXPECT_LE(result->residual, 1e-10 * std::max(result->eigenvalue, 1.0));
}

TEST(Lanczos, SequentialDeflationRecoversSpectrumPrefix) {
  const int n = 24;
  const SparseMatrix lap = PathLaplacian(n);
  const SparseOperator inner(&lap);
  const double shift = lap.GershgorinBound() + 1e-9;
  const ShiftNegateOperator op(&inner, shift);
  std::vector<Vector> deflate = {
      Vector(static_cast<size_t>(n), 1.0 / std::sqrt(static_cast<double>(n)))};
  for (int k = 1; k <= 4; ++k) {
    auto result = LargestEigenpair(op, deflate);
    ASSERT_TRUE(result.ok());
    ASSERT_TRUE(result->converged);
    const double lambda = shift - result->eigenvalue;
    EXPECT_NEAR(lambda, 2.0 - 2.0 * std::cos(k * kPi / n), 1e-7) << "k=" << k;
    deflate.push_back(result->eigenvector);
  }
}

TEST(Lanczos, SmallBasisStillConvergesViaRestarts) {
  const int n = 60;
  const SparseMatrix lap = PathLaplacian(n);
  const SparseOperator inner(&lap);
  const double shift = lap.GershgorinBound() + 1e-9;
  const ShiftNegateOperator op(&inner, shift);
  std::vector<Vector> deflate = {
      Vector(static_cast<size_t>(n), 1.0 / std::sqrt(static_cast<double>(n)))};
  LanczosOptions options;
  options.max_basis = 12;  // force multiple restart cycles
  options.max_restarts = 400;
  auto result = LargestEigenpair(op, deflate, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->converged);
  EXPECT_NEAR(shift - result->eigenvalue, 2.0 - 2.0 * std::cos(kPi / n), 1e-6);
  EXPECT_GT(result->restarts, 1);
}

TEST(Lanczos, EigenvectorOrthogonalToDeflation) {
  const int n = 30;
  const SparseMatrix lap = PathLaplacian(n);
  const SparseOperator inner(&lap);
  const ShiftNegateOperator op(&inner, lap.GershgorinBound() + 1e-9);
  const Vector ones(static_cast<size_t>(n),
                    1.0 / std::sqrt(static_cast<double>(n)));
  std::vector<Vector> deflate = {ones};
  auto result = LargestEigenpair(op, deflate);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(Dot(result->eigenvector, ones), 0.0, 1e-10);
  EXPECT_NEAR(Norm2(result->eigenvector), 1.0, 1e-10);
}

}  // namespace
}  // namespace spectral
