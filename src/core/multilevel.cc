#include "core/multilevel.h"

#include <string>
#include <utility>

#include "graph/laplacian.h"
#include "graph/traversal.h"

namespace spectral {

std::vector<WarmStartLevel> BuildWarmStartLevels(
    const Graph& graph, const CoarseningOptions& coarsen) {
  CoarseningHierarchy hierarchy = BuildCoarseningHierarchy(graph, coarsen);
  std::vector<WarmStartLevel> levels(hierarchy.steps.size() + 1);
  levels[0].laplacian = BuildLaplacian(graph);
  for (size_t k = 0; k < hierarchy.steps.size(); ++k) {
    levels[k].fine_to_coarse = std::move(hierarchy.steps[k].fine_to_coarse);
    levels[k + 1].laplacian = BuildLaplacian(hierarchy.steps[k].coarse);
  }
  return levels;
}

StatusOr<FiedlerResult> ComputeFiedlerMultilevel(
    const Graph& graph, const MultilevelOptions& options,
    const FiedlerOptions& fiedler, std::span<const Vector> canonical_axes) {
  if (graph.num_vertices() < 2) {
    return InvalidArgumentError("multilevel Fiedler needs >= 2 vertices");
  }
  if (!IsConnected(graph)) {
    return FailedPreconditionError(
        "multilevel Fiedler requires a connected graph");
  }

  const std::vector<WarmStartLevel> levels =
      BuildWarmStartLevels(graph, options.coarsen);
  auto warm = MultilevelFiedlerWarmStart(levels, fiedler);
  if (!warm.ok()) return warm.status();

  // Full-accuracy warm-started solve at the finest level: identical
  // contract (and, by construction, identical orders downstream) to the
  // flat ComputeFiedler call it replaces.
  auto fine = ComputeFiedler(levels[0].laplacian, fiedler, canonical_axes,
                             &warm->block);
  if (!fine.ok()) return fine.status();

  FiedlerResult result = std::move(*fine);
  result.matvecs += warm->matvecs;
  result.method_used =
      "multilevel(" + std::to_string(levels.size()) + " levels, coarsest " +
      std::to_string(levels.back().laplacian.rows()) + ")+" +
      result.method_used;
  return result;
}

}  // namespace spectral
