// Block Lanczos / simultaneous-iteration eigensolver: extracts the
// `num_pairs` dominant eigenpairs of a symmetric operator in ONE Krylov
// pass instead of num_pairs sequential deflated solves (each of which
// re-pays the full reorthogonalization and matvec bill — see
// reference/lanczos.h for the scalar oracle this replaced on the Fiedler
// driver).
//
// Per restart cycle the solver grows a block Krylov basis V = [X, AX~,
// A^2 X~, ...] with fused full reorthogonalization (linalg/packed_basis.h),
// Rayleigh-Ritzes the projected matrix V^T A V (dense Jacobi; the basis is
// small), locks converged Ritz pairs into the deflation set in descending
// order, and restarts from the best unconverged Ritz block. Between
// restarts an optional Chebyshev filter on the operator damps the unwanted
// spectral interval [op_lower_bound, cut] — its matvecs skip the O(m^2 n)
// reorthogonalization entirely, so when the residual is still far from
// tol the cheap filter does the bulk of the convergence work and the
// expensive Krylov build only finishes it (degree is chosen adaptively
// from the residual/tolerance gap).
//
// The Fiedler driver (eigen/fiedler.h) runs this on shift * I - L with the
// all-ones kernel vector deflated, optionally warm-started from a coarse
// grid hierarchy (eigen/warm_start.h); the dominant pairs here are then
// exactly the (lambda2 ... lambda_{1+p}) pairs of the Laplacian.
//
// Storage model: the Krylov basis V and the applied block AV are PACKED
// column-panel buffers (linalg/packed_basis.h) — row-major with a fixed
// leading dimension, allocated once per solve and reused across restarts.
// Growth appends columns in place, the strided SpMM
// (LinearOperator::ApplyPanel) reads/writes basis panels directly, and
// the BCGS2 reorthogonalization, Rayleigh-Ritz multi-dot H-fill, Ritz
// assembly, and Chebyshev filter all run on the packed layout: no
// pack/unpack round trip anywhere in the iteration. Unpacked
// std::vector<Vector> blocks remain only at the API boundary (warm-start
// input, deflation set, locked eigenvector output).
//
// Threading model: BlockLanczosOptions::pool is the ONE worker set shared
// by the solve's parallel sites — the operator's row-partitioned strided
// SpMM (via SparseOperator's pool, wired by the Fiedler driver to the same
// pool) and the row-parallel Rayleigh-Ritz multi-dot H-fill. The BCGS2
// reorthogonalization runs on the calling thread: its fused row sweeps
// serve every block column at once (linalg/packed_basis.h), which
// measured faster than any per-column fan-out. ThreadPool::ParallelFor is
// nest-safe (the caller participates and degrades to serial), so these
// sites can sit under batch/component Submit tasks without spawning
// nested pools. Every parallel site partitions only across independent
// output elements with fixed per-element arithmetic, so eigenpairs,
// residuals, and all counters are byte-identical for any pool size
// including none: the pool is a runtime resource, never part of the
// result. Wall-clock fields in `profile` are the ONLY machine-dependent
// outputs.

#ifndef SPECTRAL_LPM_EIGEN_BLOCK_LANCZOS_H_
#define SPECTRAL_LPM_EIGEN_BLOCK_LANCZOS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "eigen/kernel_profile.h"
#include "eigen/operator.h"
#include "linalg/packed_basis.h"
#include "linalg/vector_ops.h"
#include "util/status.h"

namespace spectral {

/// Tuning knobs for LargestEigenpairsBlock.
struct BlockLanczosOptions {
  /// Number of dominant eigenpairs to extract (>= 1). The iterated block
  /// is num_pairs + 2 wide: the guard vectors absorb clustered/degenerate
  /// eigenvalues that would otherwise stall a width-num_pairs subspace.
  int num_pairs = 1;
  /// Total Krylov basis columns per restart cycle. Memory is max_basis * n
  /// doubles; the Rayleigh-Ritz projection is a dense max_basis^2 solve.
  int max_basis = 48;
  /// Restart cycles before giving up.
  int max_restarts = 80;
  /// A Ritz pair is converged when ||A x - theta x|| <= tol * scale with
  /// scale = max(|theta|, 1).
  double tol = 1e-9;
  /// Seed for random start/padding columns.
  uint64_t seed = 0x51f3c7a11ull;
  /// Optional warm start (e.g. a prolonged + smoothed coarse eigenvector
  /// block, see eigen/warm_start.h). Any width; projected onto the
  /// complement of the deflation set, padded with random columns to the
  /// block width. A garbage start only costs iterations — the solver falls
  /// back to the random-start behaviour. A view, not a copy: the columns
  /// must outlive the solve.
  std::span<const Vector> start;
  /// Max Chebyshev filter degree per restart; 0 disables the accelerator.
  int cheb_degree_max = 300;
  /// Known lower bound of op's spectrum (the damped interval starts here).
  /// For shift * I - L with shift >= lambda_max(L) the operator is PSD, so
  /// the default 0 is tight.
  double op_lower_bound = 0.0;
  /// Shared worker pool for the solver's kernel parallelism (see the
  /// threading-model note above). Not owned; null keeps every kernel
  /// serial. Results are byte-identical either way.
  ThreadPool* pool = nullptr;
};

/// Output of LargestEigenpairsBlock.
struct BlockLanczosResult {
  /// The dominant eigenvalues, descending. Size num_pairs (or the largest
  /// achievable when the complement of the deflation set is smaller).
  std::vector<double> eigenvalues;
  /// Unit eigenvectors aligned with `eigenvalues`.
  VectorBlock eigenvectors;
  /// True residuals ||A x - theta x|| at acceptance, aligned.
  Vector residuals;
  /// Total operator applications, including the Chebyshev filter's. Each
  /// fused block apply counts as its width so the tally stays comparable
  /// with the scalar solver's.
  int64_t matvecs = 0;
  /// Fused block-operator applications (each covers `matvecs / spmm_calls`
  /// columns on average — the SpMM amortization factor).
  int64_t spmm_calls = 0;
  /// Reorthogonalization work units: passes x panels x block columns, one
  /// unit per column projected onto one basis panel (a work count, not a
  /// kernel-call count; see linalg/packed_basis.h).
  int64_t reorth_panels = 0;
  /// Restart cycles consumed.
  int restarts = 0;
  bool converged = false;
  /// Per-kernel wall time + deterministic flop estimates (see
  /// eigen/kernel_profile.h). The `*_ms` fields are machine-dependent;
  /// everything else in this struct is byte-identical across pool sizes.
  KernelProfile profile;
};

/// Computes the `num_pairs` largest eigenpairs of symmetric `op` on the
/// orthogonal complement of `deflate` (vectors assumed orthonormal). Fails
/// if the complement is (numerically) empty or the iteration cannot make
/// progress; a best-effort result with converged == false is returned when
/// the residual check still fails after max_restarts.
StatusOr<BlockLanczosResult> LargestEigenpairsBlock(
    const LinearOperator& op, std::span<const Vector> deflate,
    const BlockLanczosOptions& options = {});

}  // namespace spectral

#endif  // SPECTRAL_LPM_EIGEN_BLOCK_LANCZOS_H_
