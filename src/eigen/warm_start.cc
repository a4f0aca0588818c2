#include "eigen/warm_start.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "eigen/block_lanczos.h"
#include "eigen/jacobi.h"
#include "eigen/operator.h"
#include "linalg/dense_matrix.h"
#include "linalg/packed_basis.h"
#include "util/check.h"

namespace spectral {

namespace {

// Weighted-Jacobi sweeps after each prolongation.
constexpr int kSmoothSteps = 2;
constexpr double kJacobiOmega = 2.0 / 3.0;
// Largest coarsest level still solved with the dense reference.
constexpr int64_t kDenseLimit = 512;
// Loose block solve for a coarsest level above kDenseLimit (heavy-edge
// matching stalled very early). It only seeds the caller's finest solve,
// so it never pays for full accuracy.
constexpr double kStalledTol = 1e-4;
constexpr int kStalledMaxBasis = 24;
constexpr int kStalledMaxRestarts = 4;

Vector OnesKernel(int64_t n) {
  return Vector(static_cast<size_t>(n),
                1.0 / std::sqrt(static_cast<double>(n)));
}

// kSmoothSteps sweeps of weighted Jacobi on the eigen-residual
// L x - rho(x) x: the classic multigrid smoother, damping exactly the
// high-frequency error that piecewise-constant prolongation introduces.
void JacobiSmoothBlock(const SparseMatrix& lap, VectorBlock& block,
                       int64_t& matvecs) {
  const int64_t n = lap.rows();
  const Vector diag = lap.Diagonal();
  Vector inv_diag(static_cast<size_t>(n), 0.0);
  for (size_t i = 0; i < inv_diag.size(); ++i) {
    if (diag[i] > 0.0) inv_diag[i] = 1.0 / diag[i];
  }
  Vector y(static_cast<size_t>(n));
  for (int step = 0; step < kSmoothSteps; ++step) {
    for (Vector& x : block) {
      lap.MatVec(x, y);
      ++matvecs;
      const double norm2 = Dot(x, x);
      if (norm2 <= 0.0) continue;
      const double rho = Dot(x, y) / norm2;
      for (size_t i = 0; i < x.size(); ++i) {
        x[i] -= kJacobiOmega * inv_diag[i] * (y[i] - rho * x[i]);
      }
    }
  }
}

}  // namespace

StatusOr<WarmStartResult> MultilevelFiedlerWarmStart(
    std::span<const WarmStartLevel> levels, const FiedlerOptions& fine) {
  if (levels.empty()) {
    return InvalidArgumentError("warm start needs at least one level");
  }
  SPECTRAL_CHECK_GE(fine.num_pairs, 1);
  for (size_t k = 0; k + 1 < levels.size(); ++k) {
    SPECTRAL_CHECK_EQ(static_cast<int64_t>(levels[k].fine_to_coarse.size()),
                      levels[k].laplacian.rows())
        << "level " << k << " fine_to_coarse does not match its Laplacian";
  }

  WarmStartResult result;
  result.levels = static_cast<int>(levels.size());

  // --- Coarsest solve.
  const SparseMatrix& coarsest = levels.back().laplacian;
  const int64_t cn = coarsest.rows();
  if (cn < 2) {
    return InvalidArgumentError("coarsest level has fewer than 2 vertices");
  }
  const int64_t vectors = std::min<int64_t>(fine.num_pairs, cn - 1);
  VectorBlock block;
  if (cn <= kDenseLimit) {
    auto eig = JacobiEigenSolve(DenseMatrix::FromSparse(coarsest));
    if (!eig.ok()) return eig.status();
    const double zero_tol = 1e-8 * std::max(1.0, coarsest.GershgorinBound());
    if (eig->eigenvalues[0] >= zero_tol) {
      return InternalError(
          "coarsest Laplacian has no zero eigenvalue; not a Laplacian?");
    }
    if (cn > 1 && eig->eigenvalues[1] < zero_tol) {
      return FailedPreconditionError(
          "Laplacian has multiple zero eigenvalues: graph is disconnected");
    }
    for (int64_t k = 0; k < vectors; ++k) {
      Vector v(static_cast<size_t>(cn));
      for (int64_t i = 0; i < cn; ++i) {
        v[static_cast<size_t>(i)] = eig->eigenvectors.At(i, 1 + k);
      }
      block.push_back(std::move(v));
    }
  } else {
    // Matching stalled before reaching dense size: cold loose block solve.
    const double shift = coarsest.GershgorinBound() * 1.0001 + 1e-12;
    SparseOperator lap_op(&coarsest);
    const ShiftNegateOperator op(&lap_op, shift);
    std::vector<Vector> deflate;
    deflate.push_back(OnesKernel(cn));
    BlockLanczosOptions lopt;
    lopt.num_pairs = static_cast<int>(vectors);
    lopt.max_basis = kStalledMaxBasis;
    lopt.max_restarts = kStalledMaxRestarts;
    lopt.tol = kStalledTol;
    lopt.seed = fine.seed;
    lopt.cheb_degree_max = fine.cheb_degree_max;
    auto coarse = LargestEigenpairsBlock(op, deflate, lopt);
    if (!coarse.ok()) return coarse.status();
    result.matvecs += coarse->matvecs;
    block = std::move(coarse->eigenvectors);
    const double zero_tol = 1e-8 * std::max(1.0, coarsest.GershgorinBound());
    if (!coarse->eigenvalues.empty() &&
        shift - coarse->eigenvalues[0] < zero_tol) {
      return FailedPreconditionError(
          "Laplacian has multiple zero eigenvalues: graph is disconnected");
    }
  }

  // --- Ascend: prolong and smooth up to the finest level.
  for (size_t k = levels.size() - 1; k-- > 0;) {
    const SparseMatrix& lap = levels[k].laplacian;
    const std::vector<int64_t>& map = levels[k].fine_to_coarse;
    const int64_t n = lap.rows();
    for (Vector& column : block) {
      Vector prolonged(static_cast<size_t>(n));
      for (int64_t v = 0; v < n; ++v) {
        prolonged[static_cast<size_t>(v)] =
            column[static_cast<size_t>(map[static_cast<size_t>(v)])];
      }
      column = std::move(prolonged);
    }
    JacobiSmoothBlock(lap, block, result.matvecs);
    // Project out the all-ones kernel and re-orthonormalize on the packed
    // kernels; survivors keep their order.
    const int64_t cols = static_cast<int64_t>(block.size());
    PackedBasis packed;
    packed.Reset(n, cols);
    for (int64_t c = 0; c < cols; ++c) {
      packed.CopyColumnIn(block[static_cast<size_t>(c)], c);
    }
    const Vector kernel[] = {OnesKernel(n)};
    OrthogonalizeColumnsAgainstBlock(kernel, packed, 0, cols);
    const int64_t rank = OrthonormalizeColumns(packed, 0, cols);
    block.resize(static_cast<size_t>(rank));
    for (int64_t c = 0; c < rank; ++c) {
      packed.CopyColumnOut(c, block[static_cast<size_t>(c)]);
    }
    if (block.empty()) break;  // degenerate smoothing collapse: cold start
  }

  result.block = std::move(block);
  return result;
}

}  // namespace spectral
