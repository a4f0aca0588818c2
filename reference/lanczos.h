// The out-of-library eigensolver oracle: scalar restarted Lanczos with
// full reorthogonalization and explicit deflation. LargestEigenpair finds
// the dominant (largest) eigenpair of a symmetric operator restricted to
// the orthogonal complement of a given set of vectors.
//
// LanczosPath runs it on shift * I - L with the all-ones vector deflated,
// so the dominant pair is exactly the (lambda2, Fiedler vector) pair of
// the Laplacian; sequential calls with the found eigenvectors added to the
// deflation set yield lambda3, lambda4, ... Each such solve re-pays the
// full reorthogonalization and matvec bill, which is why the production
// path is the block solver behind ComputeFiedler (eigen/fiedler.h: all
// pairs in one Chebyshev-filtered Krylov pass). This scalar path shares no
// code with it beyond the operator and vector kernels, so tests and
// benches (the only code that links this directory's spectral_reference
// target) cross-validate the production solves against it.

#ifndef SPECTRAL_LPM_REFERENCE_LANCZOS_H_
#define SPECTRAL_LPM_REFERENCE_LANCZOS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "eigen/fiedler.h"
#include "eigen/operator.h"
#include "linalg/sparse_matrix.h"
#include "linalg/vector_ops.h"
#include "util/status.h"

namespace spectral {

/// Tuning knobs for the Lanczos iteration.
struct LanczosOptions {
  /// Krylov basis size per restart cycle. Memory is max_basis * n doubles.
  int max_basis = 120;
  /// Number of restart cycles before giving up.
  int max_restarts = 100;
  /// Converged when ||A x - theta x|| <= tol * scale, where `scale` is
  /// max(|theta|, 1).
  double tol = 1e-9;
  /// Seed for the random start vector.
  uint64_t seed = 0x51f3c7a11ull;
  /// Optional warm start (e.g. a prolonged coarse-level eigenvector). Used
  /// after projection onto the complement of the deflation set; falls back
  /// to a random start if the projection is numerically zero. Size must be
  /// the operator dimension when non-empty.
  Vector start;
};

/// Output of LargestEigenpair.
struct LanczosResult {
  double eigenvalue = 0.0;
  Vector eigenvector;
  /// True residual ||A x - theta x|| at exit.
  double residual = 0.0;
  /// Total operator applications.
  int64_t matvecs = 0;
  /// Restart cycles consumed.
  int restarts = 0;
  bool converged = false;
};

/// Computes the largest eigenpair of symmetric `op` on the orthogonal
/// complement of `deflate` (vectors assumed orthonormal). Fails if the
/// complement is (numerically) empty or if the iteration cannot make
/// progress. A non-converged but best-effort result is returned with
/// converged == false only when the residual check fails after
/// max_restarts; callers decide whether that is acceptable.
StatusOr<LanczosResult> LargestEigenpair(const LinearOperator& op,
                                         std::span<const Vector> deflate,
                                         const LanczosOptions& options = {});

/// Output of LanczosPath: the raw (uncanonicalized) pairs plus the solver
/// counters.
struct LanczosPathResult {
  /// The smallest non-trivial Laplacian pairs, ascending.
  std::vector<LaplacianEigenPair> pairs;
  int64_t matvecs = 0;
  /// Restart cycles summed over the sequential solves.
  int64_t restarts = 0;
  /// False when the Fiedler pair itself missed tolerance; pairs then holds
  /// only that best-effort pair.
  bool converged = true;
};

/// The scalar Fiedler oracle: min(num_pairs, n - 1) smallest non-trivial
/// pairs of `laplacian` (n >= 2), one deflated LargestEigenpair solve each
/// (basis 120). Reads num_pairs, tol, max_restarts, seed and matvec_pool of
/// `options`. Returns FailedPrecondition for a disconnected graph, like
/// ComputeFiedler.
StatusOr<LanczosPathResult> LanczosPath(const SparseMatrix& laplacian,
                                        const FiedlerOptions& options = {});

}  // namespace spectral

#endif  // SPECTRAL_LPM_REFERENCE_LANCZOS_H_
