// Multilevel warm start for the block Fiedler solver: dense-solve the
// coarsest Laplacian of a Galerkin (heavy-edge-matching) hierarchy, then
// prolong the smallest non-trivial eigenvector block level by level —
// piecewise-constant interpolation, weighted-Jacobi smoothing, and a small
// *loose-tolerance* block-Lanczos polish per intermediate level (adaptive
// tolerance: every level below the finest is only a warm start for the
// next one, so it never pays for full accuracy; only the caller's finest
// solve does). Coarse Laplacian spectra transfer well to the fine graph
// (Druskin et al., distance-preserving model order reduction of
// graph-Laplacians), which is why the finest solve then merely polishes.
//
// This unit is deliberately graph-agnostic: it consumes per-level
// Laplacians plus fine-to-coarse index maps. core/multilevel.cc assembles
// those from graph/coarsening.h's BuildCoarseningHierarchy, one hierarchy
// build per warm-started component of the spectral engine.

#ifndef SPECTRAL_LPM_EIGEN_WARM_START_H_
#define SPECTRAL_LPM_EIGEN_WARM_START_H_

#include <cstdint>
#include <span>
#include <vector>

#include "linalg/packed_basis.h"
#include "linalg/sparse_matrix.h"
#include "util/status.h"

namespace spectral {

/// One level of the hierarchy, finest first.
struct WarmStartLevel {
  /// The Laplacian of this level's graph.
  SparseMatrix laplacian;
  /// Maps this level's vertices into the next (coarser) level; empty at
  /// the coarsest level. Size must equal laplacian.rows() when non-empty.
  std::vector<int64_t> fine_to_coarse;
};

/// Tuning knobs for MultilevelFiedlerWarmStart.
struct WarmStartOptions {
  /// Eigenvector block width to carry up the hierarchy (the caller's
  /// num_pairs: enough columns to span a degenerate lambda2 eigenspace).
  int num_vectors = 3;
  /// Weighted-Jacobi smoothing steps applied after each prolongation.
  int smooth_steps = 2;
  double jacobi_omega = 2.0 / 3.0;
  /// Loose residual tolerance for the optional per-level polish solves
  /// (adaptive tolerance: intermediate levels never pay for accuracy the
  /// next prolongation would destroy anyway). The finest level is never
  /// polished here — that is the caller's full-accuracy solve.
  double level_tol = 1e-4;
  int level_max_basis = 24;
  /// Restart budget per level polish; 0 (the default) skips the polish and
  /// ascends on smoothing alone — below ~10^5 vertices the smoothed block
  /// is already good enough that polish matvecs do not buy restarts.
  int level_max_restarts = 0;
  /// Chebyshev budget handed to the per-level polish solves.
  int cheb_degree_max = 120;
  uint64_t seed = 0x3a9b7c0ffeeull;
  /// Largest coarsest-level size still solved with the dense reference;
  /// beyond it (heavy-edge matching stalled very early) the coarsest level
  /// falls back to a cold loose block solve.
  int64_t dense_limit = 512;
};

/// Output of MultilevelFiedlerWarmStart.
struct WarmStartResult {
  /// num_vectors orthonormal columns at the finest level, orthogonal to
  /// the all-ones kernel: an approximation of the smallest non-trivial
  /// eigenvector block, ready for BlockLanczosOptions::start.
  VectorBlock block;
  /// Laplacian matvecs spent across all levels (smoothing + polish).
  int64_t matvecs = 0;
  /// Number of hierarchy levels walked (1 = no coarsening happened).
  int levels = 0;
};

/// Runs the coarsen-solve-prolong-smooth cascade over `levels` (finest
/// first; levels[k].fine_to_coarse maps into levels[k+1]). Returns
/// FailedPrecondition when the coarsest solve reveals a disconnected graph
/// (a second near-zero eigenvalue): the hierarchy preserves
/// connectivity, so the input graph is disconnected too.
StatusOr<WarmStartResult> MultilevelFiedlerWarmStart(
    std::span<const WarmStartLevel> levels,
    const WarmStartOptions& options = {});

}  // namespace spectral

#endif  // SPECTRAL_LPM_EIGEN_WARM_START_H_
