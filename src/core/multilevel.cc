#include "core/multilevel.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "graph/laplacian.h"
#include "graph/traversal.h"
#include "util/check.h"

namespace spectral {

StatusOr<FiedlerResult> ComputeFiedlerMultilevel(
    const Graph& graph, const MultilevelOptions& options,
    std::span<const Vector> canonical_axes) {
  const int64_t n = graph.num_vertices();
  if (n < 2) {
    return InvalidArgumentError("multilevel Fiedler needs >= 2 vertices");
  }
  if (!IsConnected(graph)) {
    return FailedPreconditionError(
        "multilevel Fiedler requires a connected graph");
  }

  // One shared hierarchy build (graph side), then Laplacians per level
  // (eigensolver side).
  const CoarseningHierarchy hierarchy =
      BuildCoarseningHierarchy(graph, options.coarsen);
  std::vector<WarmStartLevel> levels(hierarchy.steps.size() + 1);
  levels[0].laplacian = BuildLaplacian(graph);
  for (size_t k = 0; k < hierarchy.steps.size(); ++k) {
    levels[k].fine_to_coarse = hierarchy.steps[k].fine_to_coarse;
    levels[k + 1].laplacian = BuildLaplacian(hierarchy.steps[k].coarse);
  }

  WarmStartOptions warm_options;
  warm_options.num_vectors =
      static_cast<int>(std::min<int64_t>(options.fiedler.num_pairs, n - 1));
  warm_options.smooth_steps = options.smooth_steps;
  warm_options.jacobi_omega = options.jacobi_omega;
  warm_options.level_tol = options.level_tol;
  warm_options.level_max_basis = options.level_max_basis;
  warm_options.level_max_restarts = options.level_max_restarts;
  warm_options.cheb_degree_max = options.fiedler.cheb_degree_max;
  warm_options.seed = options.fiedler.seed;
  auto warm = MultilevelFiedlerWarmStart(levels, warm_options);
  if (!warm.ok()) return warm.status();

  // Full-accuracy warm-started solve at the finest level: identical
  // contract (and, by construction, identical orders downstream) to the
  // flat ComputeFiedler call it replaces.
  auto fine = ComputeFiedler(levels[0].laplacian, options.fiedler,
                             canonical_axes, &warm->block);
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
