#include "core/multilevel.h"

#include <string>
#include <utility>

#include "graph/laplacian.h"
#include "graph/traversal.h"
#include "util/check.h"

namespace spectral {

std::vector<WarmStartLevel> BuildWarmStartLevels(
    const Graph& graph, const CoarseningOptions& coarsen) {
  // The fine Laplacian outlives everything else built here; allocating it
  // before the transient hierarchy keeps it out of the hole the hierarchy
  // leaves, so the fine solve's workspace can reuse that memory.
  SparseMatrix fine = BuildLaplacian(graph);
  CoarseningHierarchy hierarchy = BuildCoarseningHierarchy(graph, coarsen);
  std::vector<WarmStartLevel> levels(hierarchy.steps.size() + 1);
  levels[0].laplacian = std::move(fine);
  for (size_t k = 0; k < hierarchy.steps.size(); ++k) {
    levels[k].fine_to_coarse = std::move(hierarchy.steps[k].fine_to_coarse);
    levels[k + 1].laplacian = BuildLaplacian(hierarchy.steps[k].coarse);
  }
  return levels;
}

StatusOr<FiedlerResult> ComputeFiedlerOnLevels(
    std::vector<WarmStartLevel> levels, const FiedlerOptions& fiedler,
    std::span<const Vector> canonical_axes) {
  SPECTRAL_CHECK(!levels.empty());
  auto warm = MultilevelFiedlerWarmStart(levels, fiedler);
  if (!warm.ok()) return warm.status();

  // Only the finest Laplacian outlives the warm start: describe the
  // hierarchy, then free the coarse levels before the fine solve.
  const std::string prefix =
      "multilevel(" + std::to_string(levels.size()) + " levels, coarsest " +
      std::to_string(levels.back().laplacian.rows()) + ")+";
  const SparseMatrix fine_laplacian = std::move(levels[0].laplacian);
  std::vector<WarmStartLevel>().swap(levels);

  // The warm block was allocated above the coarse levels just freed;
  // copying it down into that memory before releasing the original
  // leaves the heap top free for the fine solve's workspace (the copy is
  // bit-exact and costs num_pairs vectors).
  const VectorBlock start = warm->block;
  VectorBlock().swap(warm->block);

  // Full-accuracy warm-started solve at the finest level: identical
  // contract (and, by construction, identical orders downstream) to the
  // flat ComputeFiedler call it replaces.
  auto fine = ComputeFiedler(fine_laplacian, fiedler, canonical_axes, &start);
  if (!fine.ok()) return fine.status();

  FiedlerResult result = std::move(*fine);
  result.matvecs += warm->matvecs;
  result.method_used = prefix + result.method_used;
  return result;
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
  return ComputeFiedlerOnLevels(BuildWarmStartLevels(graph, options.coarsen),
                                fiedler, canonical_axes);
}

}  // namespace spectral
