// Dense eigensolver tests: cyclic Jacobi and tridiagonal QL, validated
// against closed-form spectra and reconstruction identities.

#include <cmath>
#include <numbers>

#include <gtest/gtest.h>

#include "eigen/jacobi.h"
#include "reference/tridiagonal.h"
#include "linalg/dense_matrix.h"
#include "util/random.h"

namespace spectral {
namespace {

constexpr double kPi = std::numbers::pi;

DenseMatrix RandomSymmetric(int64_t n, uint64_t seed) {
  Rng rng(seed);
  DenseMatrix a(n, n);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = i; j < n; ++j) {
      const double v = rng.UniformDouble(-1.0, 1.0);
      a.At(i, j) = v;
      a.At(j, i) = v;
    }
  }
  return a;
}

TEST(Jacobi, TwoByTwoKnown) {
  DenseMatrix a(2, 2);
  a.At(0, 0) = 2.0;
  a.At(0, 1) = 1.0;
  a.At(1, 0) = 1.0;
  a.At(1, 1) = 2.0;
  auto result = JacobiEigenSolve(a);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->eigenvalues[0], 1.0, 1e-12);
  EXPECT_NEAR(result->eigenvalues[1], 3.0, 1e-12);
}

TEST(Jacobi, RejectsNonSquare) {
  EXPECT_FALSE(JacobiEigenSolve(DenseMatrix(2, 3)).ok());
}

TEST(Jacobi, RejectsAsymmetric) {
  DenseMatrix a(2, 2);
  a.At(0, 1) = 1.0;
  EXPECT_FALSE(JacobiEigenSolve(a).ok());
}

TEST(Jacobi, DiagonalMatrixIsFixed) {
  DenseMatrix a(3, 3);
  a.At(0, 0) = 3.0;
  a.At(1, 1) = -1.0;
  a.At(2, 2) = 2.0;
  auto result = JacobiEigenSolve(a);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->eigenvalues[0], -1.0, 1e-13);
  EXPECT_NEAR(result->eigenvalues[1], 2.0, 1e-13);
  EXPECT_NEAR(result->eigenvalues[2], 3.0, 1e-13);
}

TEST(Jacobi, EigenvectorsAreOrthonormal) {
  const DenseMatrix a = RandomSymmetric(20, 123);
  auto result = JacobiEigenSolve(a);
  ASSERT_TRUE(result.ok());
  const auto& v = result->eigenvectors;
  for (int64_t p = 0; p < 20; ++p) {
    for (int64_t q = 0; q < 20; ++q) {
      double dot = 0.0;
      for (int64_t i = 0; i < 20; ++i) dot += v.At(i, p) * v.At(i, q);
      EXPECT_NEAR(dot, p == q ? 1.0 : 0.0, 1e-10);
    }
  }
}

TEST(Jacobi, ReconstructsMatrix) {
  const DenseMatrix a = RandomSymmetric(15, 321);
  auto result = JacobiEigenSolve(a);
  ASSERT_TRUE(result.ok());
  // A == V diag(lambda) V^T
  DenseMatrix rec(15, 15);
  for (int64_t i = 0; i < 15; ++i) {
    for (int64_t j = 0; j < 15; ++j) {
      double acc = 0.0;
      for (int64_t k = 0; k < 15; ++k) {
        acc += result->eigenvectors.At(i, k) *
               result->eigenvalues[static_cast<size_t>(k)] *
               result->eigenvectors.At(j, k);
      }
      rec.At(i, j) = acc;
    }
  }
  EXPECT_LT(a.MaxAbsDiff(rec), 1e-9);
}

TEST(Jacobi, EigenvaluesAscending) {
  const DenseMatrix a = RandomSymmetric(30, 99);
  auto result = JacobiEigenSolve(a);
  ASSERT_TRUE(result.ok());
  for (size_t k = 1; k < result->eigenvalues.size(); ++k) {
    EXPECT_LE(result->eigenvalues[k - 1], result->eigenvalues[k]);
  }
}

TEST(Tridiagonal, SingleElement) {
  auto result = SolveTridiagonal({7.0}, {});
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->eigenvalues[0], 7.0);
  EXPECT_DOUBLE_EQ(result->eigenvectors.At(0, 0), 1.0);
}

TEST(Tridiagonal, TwoByTwoKnown) {
  // [[2, 1], [1, 2]] -> 1, 3.
  auto result = SolveTridiagonal({2.0, 2.0}, {1.0});
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->eigenvalues[0], 1.0, 1e-12);
  EXPECT_NEAR(result->eigenvalues[1], 3.0, 1e-12);
}

TEST(Tridiagonal, FreeChainSpectrum) {
  // diag 0, sub 1: eigenvalues 2 cos(k pi / (n+1)), k = 1..n.
  const int n = 12;
  Vector diag(n, 0.0);
  Vector sub(n - 1, 1.0);
  auto result = SolveTridiagonal(diag, sub);
  ASSERT_TRUE(result.ok());
  for (int k = 0; k < n; ++k) {
    const double expected = 2.0 * std::cos((n - k) * kPi / (n + 1));
    EXPECT_NEAR(result->eigenvalues[static_cast<size_t>(k)], expected, 1e-10);
  }
}

TEST(Tridiagonal, PathLaplacianSpectrum) {
  // Path graph Laplacian (tridiagonal): eigenvalues 2 - 2 cos(k pi / n).
  const int n = 16;
  Vector diag(n, 2.0);
  diag[0] = diag[static_cast<size_t>(n - 1)] = 1.0;
  Vector sub(n - 1, -1.0);
  auto result = SolveTridiagonal(diag, sub);
  ASSERT_TRUE(result.ok());
  for (int k = 0; k < n; ++k) {
    const double expected = 2.0 - 2.0 * std::cos(k * kPi / n);
    EXPECT_NEAR(result->eigenvalues[static_cast<size_t>(k)], expected, 1e-10);
  }
}

TEST(Tridiagonal, MatchesJacobiOnRandomTridiagonal) {
  const int n = 25;
  Rng rng(5);
  Vector diag(n), sub(n - 1);
  for (auto& d : diag) d = rng.UniformDouble(-2.0, 2.0);
  for (auto& e : sub) e = rng.UniformDouble(-2.0, 2.0);

  auto ql = SolveTridiagonal(diag, sub);
  ASSERT_TRUE(ql.ok());

  DenseMatrix dense(n, n);
  for (int i = 0; i < n; ++i) dense.At(i, i) = diag[static_cast<size_t>(i)];
  for (int i = 0; i + 1 < n; ++i) {
    dense.At(i, i + 1) = sub[static_cast<size_t>(i)];
    dense.At(i + 1, i) = sub[static_cast<size_t>(i)];
  }
  auto jac = JacobiEigenSolve(dense);
  ASSERT_TRUE(jac.ok());
  for (int k = 0; k < n; ++k) {
    EXPECT_NEAR(ql->eigenvalues[static_cast<size_t>(k)],
                jac->eigenvalues[static_cast<size_t>(k)], 1e-9);
  }
}

TEST(Tridiagonal, EigenvectorResiduals) {
  const int n = 20;
  Vector diag(n, 2.0);
  diag[0] = diag[static_cast<size_t>(n - 1)] = 1.0;
  Vector sub(n - 1, -1.0);
  auto result = SolveTridiagonal(diag, sub);
  ASSERT_TRUE(result.ok());
  // ||T v - lambda v|| small for every pair.
  for (int k = 0; k < n; ++k) {
    double res = 0.0;
    for (int i = 0; i < n; ++i) {
      double tv = diag[static_cast<size_t>(i)] * result->eigenvectors.At(i, k);
      if (i > 0) tv += sub[static_cast<size_t>(i - 1)] * result->eigenvectors.At(i - 1, k);
      if (i + 1 < n) tv += sub[static_cast<size_t>(i)] * result->eigenvectors.At(i + 1, k);
      const double diff =
          tv - result->eigenvalues[static_cast<size_t>(k)] *
                   result->eigenvectors.At(i, k);
      res += diff * diff;
    }
    EXPECT_LT(std::sqrt(res), 1e-10) << "pair " << k;
  }
}

}  // namespace
}  // namespace spectral
