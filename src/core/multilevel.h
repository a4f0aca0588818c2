// Multilevel Fiedler solver: coarsen the graph by heavy-edge matching
// (graph/coarsening.h's BuildCoarseningHierarchy), dense-solve the coarsest
// Laplacian, prolong + Jacobi-smooth the eigenvector *block* up the
// hierarchy (eigen/warm_start.h), then polish the finest level to full
// accuracy with the warm-started block Lanczos solver (eigen/block_lanczos.h
// via ComputeFiedler).
//
// Because the finest solve converges to the same tolerance as the flat
// solver and tracks the whole num_pairs block, degenerate-eigenspace
// canonicalization works here too: pass the centered axis functions and a
// square grid gets the same axis-fair balanced-mix Fiedler vector — and
// therefore the same order — as the flat engine. (The previous V-cycle
// tracked a single eigenpair, so on square grids it silently returned an
// axis-aligned member of the degenerate eigenspace and the resulting order
// collapsed to a sweep; see tests/multilevel_test.cc's regression test.)

#ifndef SPECTRAL_LPM_CORE_MULTILEVEL_H_
#define SPECTRAL_LPM_CORE_MULTILEVEL_H_

#include <span>
#include <vector>

#include "eigen/fiedler.h"
#include "eigen/warm_start.h"
#include "graph/coarsening.h"
#include "graph/graph.h"
#include "util/status.h"

namespace spectral {

/// Options for ComputeFiedlerMultilevel.
struct MultilevelOptions {
  /// Hierarchy shape (stop size, stall detection, level cap).
  CoarseningOptions coarsen;
};

/// The one hierarchy-to-levels assembly: the Laplacian of `graph` and of
/// every coarser level of BuildCoarseningHierarchy(graph, coarsen), with
/// each level's fine-to-coarse map, finest first — the input of
/// MultilevelFiedlerWarmStart.
std::vector<WarmStartLevel> BuildWarmStartLevels(
    const Graph& graph, const CoarseningOptions& coarsen = {});

/// The cascade on prebuilt levels (BuildWarmStartLevels of a connected
/// graph, at least one level): warm start, then the fine solve on
/// levels[0].laplacian with the coarse levels already freed. Taking the
/// levels rather than the graph lets a caller that owns the graph free it
/// before the fine solve. Same result as ComputeFiedlerMultilevel on that
/// graph.
StatusOr<FiedlerResult> ComputeFiedlerOnLevels(
    std::vector<WarmStartLevel> levels, const FiedlerOptions& fiedler,
    std::span<const Vector> canonical_axes = {});

/// Computes the Fiedler pair of a *connected* graph's Laplacian through the
/// coarsen-solve-refine cascade. `fiedler` configures the finest-level
/// solve (tolerance, num_pairs, degeneracy policy, worker pool) and is the
/// accuracy of the answer; the cascade only manufactures its warm start.
/// Same FiedlerResult contract as ComputeFiedler (matvecs/restarts count
/// all levels' work); with `canonical_axes` the degenerate-eigenspace
/// canonicalization matches the flat solver's.
StatusOr<FiedlerResult> ComputeFiedlerMultilevel(
    const Graph& graph, const MultilevelOptions& options = {},
    const FiedlerOptions& fiedler = {},
    std::span<const Vector> canonical_axes = {});

}  // namespace spectral

#endif  // SPECTRAL_LPM_CORE_MULTILEVEL_H_
