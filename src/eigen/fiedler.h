// Fiedler-pair driver: computes the smallest non-trivial eigenpairs of a
// graph Laplacian (steps 2-3 of the paper's Spectral LPM pseudo code).
//
// Three engines, cross-validated in tests, selected by FiedlerMethod:
//
//   * kDense — dense Jacobi, the exact O(n^3) reference. Under kAuto it
//     serves every problem with n <= dense_threshold.
//   * kBlockLanczos — the production path (kAuto default above
//     dense_threshold): one restarted block-Krylov pass extracts all
//     num_pairs eigenpairs together (eigen/block_lanczos.h), with
//     adaptive-degree Chebyshev filtering on the shifted operator
//     shift * I - L doing the cheap reorthogonalization-free part of the
//     convergence work. Callers that own a coarsening hierarchy pass a
//     multilevel warm start (eigen/warm_start.h) through the `warm_start`
//     argument, and the solve only polishes — this is what makes the
//     *exact* spectral engine run at near-multilevel speed (the
//     solve/prolong/smooth cascade runs over core/multilevel's
//     BuildWarmStartLevels, one hierarchy build per component).
//   * kLanczos — the scalar restarted Lanczos path with sequential
//     deflation: one full solve per pair. Kept as the independent
//     reference implementation (warm-vs-cold property tests pin the block
//     path's orders against it); prefer kBlockLanczos everywhere else.
//
// Degenerate lambda2 (e.g. square grids, where the x- and y-modes tie) is
// handled by canonicalization: within the near-degenerate eigenspace we
// pick the balanced mix of the coordinate-axis projections, which
// reproduces the axis-fair behaviour the paper reports in Figure 5b. The
// canonicalized order is identical across all three engines (and across
// warm and cold starts): orientation conventions are part of the contract.

#ifndef SPECTRAL_LPM_EIGEN_FIEDLER_H_
#define SPECTRAL_LPM_EIGEN_FIEDLER_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "eigen/kernel_profile.h"
#include "linalg/packed_basis.h"
#include "linalg/sparse_matrix.h"
#include "linalg/vector_ops.h"
#include "util/status.h"

namespace spectral {

class ThreadPool;

/// Engine selection for ComputeFiedler.
enum class FiedlerMethod {
  /// Dense for n <= dense_threshold, block Lanczos otherwise.
  kAuto,
  kDense,
  /// Scalar restarted Lanczos, one deflated solve per pair (the reference
  /// iterative path; ~num_pairs times the matvec/reorthogonalization bill
  /// of kBlockLanczos).
  kLanczos,
  /// Block Lanczos: all pairs in one Krylov pass + Chebyshev filtering.
  kBlockLanczos,
};

/// How to pick a representative when lambda2 is (numerically) degenerate.
enum class DegeneracyPolicy {
  /// Return whatever the solver produced (still a valid optimum).
  kNone,
  /// Mix the projections of the provided axis vectors with equal energy.
  /// This is axis-fair: no coordinate is favored (paper Figure 5b).
  kBalancedMix,
  /// Align with the first axis vector that has a non-trivial projection.
  kAxisAligned,
};

/// Options for ComputeFiedler.
struct FiedlerOptions {
  FiedlerMethod method = FiedlerMethod::kAuto;
  /// Problems up to this size use the dense engine under kAuto. The dense
  /// reference is O(n^3) per Jacobi sweep; beyond ~10^2 vertices the
  /// Krylov paths are orders of magnitude faster (see bench_eigensolver).
  int64_t dense_threshold = 128;
  /// Number of smallest non-trivial eigenpairs to extract (>= 1). More pairs
  /// let the canonicalizer see the full degenerate eigenspace.
  int num_pairs = 3;
  /// Residual tolerance passed to the Krylov solvers.
  double tol = 1e-9;
  /// Krylov basis size for the scalar kLanczos path.
  int max_basis = 120;
  int max_restarts = 100;
  uint64_t seed = 0x5eedf1ed1e5ull;
  /// Iterated block width for kBlockLanczos; 0 = num_pairs + 2 guards.
  int block_size = 0;
  /// Krylov basis columns per restart for kBlockLanczos. Much smaller than
  /// the scalar max_basis: the Chebyshev filter replaces most of the basis
  /// growth, so the O(basis^2 n) reorthogonalization stays cheap (the
  /// sweep behind bench_eigensolver put the knee at ~24 for 10^3..10^4
  /// vertices).
  int block_max_basis = 24;
  /// Max Chebyshev filter degree per restart for kBlockLanczos (0 = off).
  int cheb_degree_max = 300;
  /// Eigenvalues within lambda2 * (1 + rel) + abs are treated as degenerate
  /// with lambda2.
  double degeneracy_rel_tol = 1e-5;
  double degeneracy_abs_tol = 1e-8;
  DegeneracyPolicy degeneracy_policy = DegeneracyPolicy::kBalancedMix;
  /// Optional worker pool (not owned; must outlive the solve). When set,
  /// the block path's kernels all draw from it: Krylov matvecs on
  /// sufficiently large Laplacians are row-partitioned (SparseOperator in
  /// eigen/operator.h), and the block solver's reorthogonalization panels
  /// and Rayleigh-Ritz Gram fill parallelize across columns/rows
  /// (BlockLanczosOptions::pool). Results are bit-identical to the serial
  /// path for any pool size.
  ThreadPool* matvec_pool = nullptr;
};

/// One eigenpair of the Laplacian.
struct LaplacianEigenPair {
  double eigenvalue = 0.0;
  Vector eigenvector;
};

/// Output of ComputeFiedler.
struct FiedlerResult {
  /// Algebraic connectivity lambda2.
  double lambda2 = 0.0;
  /// Canonicalized Fiedler vector (unit norm, sum ~ 0).
  Vector fiedler;
  /// The smallest non-trivial pairs, ascending (pairs[0] is the raw
  /// lambda2 pair before canonicalization).
  std::vector<LaplacianEigenPair> pairs;
  /// Dimension of the numerically degenerate lambda2 eigenspace observed.
  int degenerate_dim = 1;
  /// Total operator applications (Krylov + Chebyshev filter).
  int64_t matvecs = 0;
  /// Fused block-operator (SpMM) applications by the block path; zero for
  /// the dense and scalar paths. matvecs / spmm_calls is the per-call
  /// column amortization the fused kernel achieved.
  int64_t spmm_calls = 0;
  /// Reorthogonalization panel-kernel applications by the block path
  /// (see linalg/packed_basis.h).
  int64_t reorth_panels = 0;
  /// Restart cycles consumed by the iterative paths (summed over the
  /// sequential solves for kLanczos).
  int64_t restarts = 0;
  /// Per-kernel wall time + deterministic flop estimates from the block
  /// path (zero for the dense and scalar paths); additive across
  /// multilevel/component solves. See eigen/kernel_profile.h.
  KernelProfile profile;
  std::string method_used;
  /// True iff the block path consumed a non-empty `warm_start` (the dense
  /// and scalar paths never do); method_used then ends in "+warm".
  bool warm_started = false;
  /// False when the iterative paths exhausted max_restarts before the
  /// Fiedler pair met tolerance. The result then carries the best-effort
  /// pair (still unit-norm, still canonicalized) instead of an error, and
  /// callers decide the policy: core/mapping_service retries and degrades,
  /// everything else at minimum surfaces the bit in its diagnostics.
  bool converged = true;
};

/// Computes the Fiedler pair of `laplacian` (symmetric, rows == cols,
/// row sums ~ 0). Requires a *connected* graph: if a second near-zero
/// eigenvalue shows up, returns FailedPrecondition (split into components
/// first; core/spectral_lpm does this automatically).
///
/// `canonical_axes` are optional direction vectors (e.g. the centered
/// coordinate functions of the point set) used by the degeneracy policy;
/// pass {} to disable canonicalization.
///
/// `warm_start` (optional, kBlockLanczos/kAuto only) seeds the block solve
/// with approximate eigenvectors — typically the multilevel warm start of
/// eigen/warm_start.h. The result must not depend on it: the solve
/// converges to the same tolerance either way, and a garbage warm start
/// only costs iterations (property-tested).
StatusOr<FiedlerResult> ComputeFiedler(
    const SparseMatrix& laplacian, const FiedlerOptions& options = {},
    std::span<const Vector> canonical_axes = {},
    const VectorBlock* warm_start = nullptr);

}  // namespace spectral

#endif  // SPECTRAL_LPM_EIGEN_FIEDLER_H_
