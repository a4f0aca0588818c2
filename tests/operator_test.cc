// Direct tests of the one block primitive, LinearOperator::ApplyPanel (the
// strided SpMM SparseMatrix::MatVecRowsPanel underneath): every column of
// the panel result must equal a per-column MatVec bit for bit, for every
// width (1-8 take the fixed-width kernels, 9 the wide fallback), for
// leading dimensions wider than the panel, and for serial and
// row-partitioned pooled runs. Lanes outside the panel must stay untouched.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "eigen/operator.h"
#include "linalg/sparse_matrix.h"
#include "linalg/vector_ops.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace spectral {
namespace {

// Above kDefaultMinParallelRows, so a pooled SparseOperator row-partitions.
constexpr int64_t kRows = 2500;
constexpr double kShift = 3.75;
constexpr double kSentinel = -12345.5;

// A square sparse matrix with 1-6 random entries per row.
SparseMatrix RandomSparse(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Triplet> triplets;
  for (int64_t i = 0; i < n; ++i) {
    const int64_t entries = 1 + static_cast<int64_t>(rng.UniformDouble() * 6);
    for (int64_t k = 0; k < entries; ++k) {
      const int64_t j = static_cast<int64_t>(rng.UniformDouble() *
                                             static_cast<double>(n)) % n;
      triplets.push_back({i, j, rng.UniformDouble(-2.0, 2.0)});
    }
  }
  return SparseMatrix::FromTriplets(n, n, std::move(triplets));
}

// Applies `op` to a width-column panel stored with leading dimensions
// x_ld / y_ld and checks each column against `reference` (the per-column
// expectation), bit for bit, plus the untouched padding lanes of y.
template <typename Reference>
void ExpectPanelMatchesColumns(const LinearOperator& op, int64_t width,
                               int64_t x_ld, int64_t y_ld, Rng& rng,
                               const Reference& reference) {
  const int64_t n = op.Dim();
  std::vector<double> x(static_cast<size_t>(n * x_ld));
  for (double& v : x) v = rng.UniformDouble(-1.0, 1.0);
  std::vector<double> y(static_cast<size_t>(n * y_ld), kSentinel);
  op.ApplyPanel(width, x.data(), x_ld, y.data(), y_ld);

  Vector column(static_cast<size_t>(n));
  Vector expect(static_cast<size_t>(n));
  for (int64_t c = 0; c < width; ++c) {
    for (int64_t r = 0; r < n; ++r) {
      column[static_cast<size_t>(r)] = x[static_cast<size_t>(r * x_ld + c)];
    }
    reference(column, expect);
    for (int64_t r = 0; r < n; ++r) {
      ASSERT_EQ(y[static_cast<size_t>(r * y_ld + c)],
                expect[static_cast<size_t>(r)])
          << "width=" << width << " x_ld=" << x_ld << " y_ld=" << y_ld
          << " col=" << c << " row=" << r;
    }
  }
  for (int64_t r = 0; r < n; ++r) {
    for (int64_t c = width; c < y_ld; ++c) {
      ASSERT_EQ(y[static_cast<size_t>(r * y_ld + c)], kSentinel)
          << "padding lane " << c << " of row " << r << " was written";
    }
  }
}

void CheckOperators(const SparseMatrix& matrix, ThreadPool* pool) {
  const SparseOperator sparse(&matrix, pool);
  const ShiftNegateOperator shifted(&sparse, kShift);
  auto matvec = [&](const Vector& x, Vector& y) { matrix.MatVec(x, y); };
  auto shift_negate = [&](const Vector& x, Vector& y) {
    matrix.MatVec(x, y);
    for (size_t i = 0; i < y.size(); ++i) y[i] = kShift * x[i] - y[i];
  };
  Rng rng(0x5eed);
  for (int64_t width = 1; width <= 9; ++width) {
    const struct {
      int64_t x_ld;
      int64_t y_ld;
    } layouts[] = {{width, width}, {width + 3, width + 1}};
    for (const auto& layout : layouts) {
      ExpectPanelMatchesColumns(sparse, width, layout.x_ld, layout.y_ld, rng,
                                matvec);
      ExpectPanelMatchesColumns(shifted, width, layout.x_ld, layout.y_ld, rng,
                                shift_negate);
    }
  }
}

TEST(ApplyPanel, SerialMatchesPerColumnMatVec) {
  const SparseMatrix matrix = RandomSparse(kRows, 17);
  CheckOperators(matrix, nullptr);
}

TEST(ApplyPanel, PooledMatchesPerColumnMatVec) {
  const SparseMatrix matrix = RandomSparse(kRows, 17);
  ASSERT_GE(matrix.rows(), kDefaultMinParallelRows);
  for (int threads : {2, 4}) {
    ThreadPool pool(threads);
    CheckOperators(matrix, &pool);
  }
}

}  // namespace
}  // namespace spectral
