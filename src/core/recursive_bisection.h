// Recursive spectral bisection ordering — the median-cut method whose
// optimality the paper cites (Chan, Ciarlet & Szeto, SIAM J. Sci. Comp.
// 1997, reference [1]). Instead of sorting by one global Fiedler vector,
// the point set is split at the Fiedler median, each half is ordered
// recursively, and the halves are concatenated. This is the classic
// alternative formulation of a spectral order; the ablation bench compares
// it with the direct Spectral LPM order.

#ifndef SPECTRAL_LPM_CORE_RECURSIVE_BISECTION_H_
#define SPECTRAL_LPM_CORE_RECURSIVE_BISECTION_H_

#include "core/linear_order.h"
#include "core/spectral_lpm.h"
#include "graph/graph.h"
#include "space/point_set.h"
#include "util/status.h"

namespace spectral {

/// Options for recursive spectral bisection.
struct RecursiveBisectionOptions {
  /// Subproblems at or below this size are ordered by one direct Fiedler
  /// solve (or trivially for size <= 2).
  int64_t leaf_size = 8;
  /// Hard cap on the recursion depth (safety valve; 64 >= log2 of any n).
  int max_depth = 64;
  /// Feed each child solve the parent's Fiedler block restricted to the
  /// child's vertices through the eigensolver's warm-start hook. The
  /// restricted parent vector is an excellent approximation of the child's
  /// own Fiedler vector (the child is half the parent's geometry), so warm
  /// solves converge in a fraction of the iterations; a stale start only
  /// costs iterations, never changes the converged order (the solver's
  /// warm == cold contract, regression-tested).
  bool warm_start_children = true;
  /// Graph construction and eigensolver configuration (affinity edges are
  /// honored on the top-level graph).
  SpectralLpmOptions base;
};

/// Result of a recursive bisection ordering.
struct RecursiveBisectionResult {
  LinearOrder order;
  /// Number of Fiedler solves performed across the recursion.
  int64_t num_solves = 0;
  /// How many of those received a parent warm start.
  int64_t warm_solves = 0;
  /// Eigensolver matvecs summed over all solves in the recursion.
  int64_t matvecs = 0;
  /// Deepest recursion level reached (0 = no split).
  int depth = 0;
};

/// Orders `points` by recursive spectral (median-cut) bisection. Handles
/// disconnected graphs like SpectralMapper: components are ordered largest
/// first and concatenated.
StatusOr<RecursiveBisectionResult> RecursiveSpectralOrder(
    const PointSet& points, const RecursiveBisectionOptions& options = {});

/// Graph-input variant (weights encode priority, as in section 4).
/// `points` may be null; it is only used for degeneracy canonicalization.
StatusOr<RecursiveBisectionResult> RecursiveSpectralOrderGraph(
    const Graph& graph, const PointSet* points,
    const RecursiveBisectionOptions& options = {});

}  // namespace spectral

#endif  // SPECTRAL_LPM_CORE_RECURSIVE_BISECTION_H_
