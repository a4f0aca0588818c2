// Symmetric tridiagonal eigensolver (implicit QL with Wilkinson-style
// shifts). Used by the Lanczos oracle (reference/lanczos.h) to diagonalize
// its projected tridiagonal matrix; the projected problems are small
// (<= max_basis), so O(m^3) is fine.

#ifndef SPECTRAL_LPM_REFERENCE_TRIDIAGONAL_H_
#define SPECTRAL_LPM_REFERENCE_TRIDIAGONAL_H_

#include "linalg/dense_matrix.h"
#include "linalg/vector_ops.h"
#include "util/status.h"

namespace spectral {

/// Eigendecomposition of a symmetric tridiagonal matrix.
struct TridiagonalEigenResult {
  /// Eigenvalues in ascending order.
  Vector eigenvalues;
  /// eigenvectors.At(i, k): component i of the unit eigenvector for
  /// eigenvalues[k], expressed in the basis the tridiagonal was given in.
  DenseMatrix eigenvectors;
};

/// Solves the m x m symmetric tridiagonal eigenproblem with diagonal `diag`
/// (size m) and subdiagonal `sub` (size m-1; sub[i] couples i and i+1).
/// Fails only if QL iteration stalls (pathological input).
StatusOr<TridiagonalEigenResult> SolveTridiagonal(const Vector& diag,
                                                  const Vector& sub);

}  // namespace spectral

#endif  // SPECTRAL_LPM_REFERENCE_TRIDIAGONAL_H_
