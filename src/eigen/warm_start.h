// Multilevel warm start for the block Fiedler solver: dense-solve the
// coarsest Laplacian of a Galerkin (heavy-edge-matching) hierarchy, then
// prolong the smallest non-trivial eigenvector block level by level —
// piecewise-constant interpolation followed by weighted-Jacobi smoothing.
// Coarse Laplacian spectra transfer well to the fine graph (Druskin et
// al., distance-preserving model order reduction of graph-Laplacians), so
// prolongation plus smoothing is the whole ascent and the caller's finest
// solve merely polishes.
//
// This unit is deliberately graph-agnostic: it consumes per-level
// Laplacians plus fine-to-coarse index maps. core/multilevel.h's
// BuildWarmStartLevels assembles them from graph/coarsening.h's
// BuildCoarseningHierarchy, one hierarchy build per warm-started component
// of the spectral engine.

#ifndef SPECTRAL_LPM_EIGEN_WARM_START_H_
#define SPECTRAL_LPM_EIGEN_WARM_START_H_

#include <cstdint>
#include <span>
#include <vector>

#include "eigen/fiedler.h"
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

/// Output of MultilevelFiedlerWarmStart.
struct WarmStartResult {
  /// Up to num_pairs orthonormal columns at the finest level, orthogonal to
  /// the all-ones kernel: an approximation of the smallest non-trivial
  /// eigenvector block, ready for BlockLanczosOptions::start.
  VectorBlock block;
  /// Laplacian matvecs spent across all levels (smoothing, plus the
  /// coarsest-level block solve when matching stalled).
  int64_t matvecs = 0;
  /// Number of hierarchy levels walked (1 = no coarsening happened).
  int levels = 0;
};

/// Runs the solve-prolong-smooth cascade over `levels` (finest first;
/// levels[k].fine_to_coarse maps into levels[k+1]). Of `fine` — the
/// caller's finest-level solve options — it reads num_pairs (the block
/// width: enough columns to span a degenerate lambda2 eigenspace), and
/// seed and cheb_degree_max for the coarsest block solve that replaces the
/// dense one when matching stalled above a few hundred vertices. Returns
/// FailedPrecondition when the coarsest solve reveals a disconnected graph
/// (a second near-zero eigenvalue): the hierarchy preserves
/// connectivity, so the input graph is disconnected too.
StatusOr<WarmStartResult> MultilevelFiedlerWarmStart(
    std::span<const WarmStartLevel> levels, const FiedlerOptions& fine);

}  // namespace spectral

#endif  // SPECTRAL_LPM_EIGEN_WARM_START_H_
