// Spectral LPM — the paper's primary contribution (Figure 2 pseudo code):
//
//   1. model the points as a graph (edge iff Manhattan distance 1),
//   2. form the Laplacian L = D - W,
//   3. compute the Fiedler pair (lambda2, v2),
//   4. assign each point its Fiedler component,
//   5. the linear order is the sort order of those components.
//
// Extensions from section 4 are first-class options: affinity edges between
// correlated points, 8-connectivity / Moore neighborhoods, and arbitrary
// positive edge weights (the mapper also accepts a user-built Graph).

#ifndef SPECTRAL_LPM_CORE_SPECTRAL_LPM_H_
#define SPECTRAL_LPM_CORE_SPECTRAL_LPM_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/linear_order.h"
#include "core/multilevel.h"
#include "eigen/fiedler.h"
#include "graph/graph.h"
#include "graph/point_graph.h"
#include "space/point_set.h"
#include "util/status.h"

namespace spectral {

class FaultInjector;

/// Options for SpectralMapper.
struct SpectralLpmOptions {
  /// How the point graph is built (step 1). Ignored by MapGraph.
  PointGraphOptions graph;
  /// Extra edges by *point index*, each pulling its endpoints together in
  /// the 1-d order (section 4: "add an edge (p, q) to inform Spectral LPM
  /// that p and q should be treated as if they were at distance 1").
  std::vector<GraphEdge> affinity_edges;
  /// Eigensolver configuration.
  FiedlerOptions fiedler;
  /// Use the centered coordinate functions of the point set to pick a
  /// canonical Fiedler vector when lambda2 is degenerate (see
  /// eigen/fiedler.h). Keeps square grids deterministic and axis-fair.
  bool canonicalize_with_axes = true;
  /// Fiedler components within rank_quantum_rel * max|component| of each
  /// other are treated as ties and broken by point index. Grid graphs
  /// produce eigenvectors with exactly-tied groups (product structure);
  /// quantizing makes the final order identical across eigensolver engines
  /// instead of depending on 1e-12-level solver noise.
  double rank_quantum_rel = 1e-7;
  /// Components with at least this many vertices get the multilevel warm
  /// start: build the heavy-edge-matching hierarchy once, dense-solve the
  /// coarsest Laplacian, prolong + smooth the eigenvector block up, and
  /// feed it to the block solver so the fine-level solve only polishes
  /// (core/multilevel.h). Same order as a cold solve — the fine solve
  /// converges to the same tolerance either way (property-tested) — at a
  /// fraction of the matvec/reorthogonalization cost. 0 disables warm
  /// starts (cold block solves everywhere).
  int64_t warm_start_threshold = 256;
  /// Hierarchy shape for the warm-started path; `fiedler` above governs
  /// the finest solve on every path.
  MultilevelOptions multilevel;
  /// Worker threads for the mapping. Disconnected components are solved
  /// concurrently (largest-first work queue) and Lanczos matvecs on large
  /// components are row-partitioned across the same pool. 0 = use
  /// hardware_concurrency; 1 = the historical serial path. The output is
  /// byte-identical for every value: each component's solve is independent
  /// and deterministic, and the concatenation order is fixed before any
  /// solve starts.
  int parallelism = 0;
  /// Optional external worker pool (not owned; must outlive the call). When
  /// set, component solves and row-partitioned matvecs run on this pool and
  /// `parallelism` is ignored — MappingService hands its batch fan-out pool
  /// down here so one set of workers serves requests, components, and
  /// matvecs instead of pools nesting. Safe to use when the mapper itself
  /// runs inside a task of the same pool (the loops are ParallelFor-based:
  /// the caller participates, so they degrade to serial instead of
  /// deadlocking). Like `parallelism`, it never changes the result and is
  /// excluded from request fingerprints.
  ThreadPool* pool = nullptr;
  /// Optional fault-injection registry (not owned; must outlive the call).
  /// When set in a SPECTRAL_FAULTS build, the "solver.converge" site can
  /// force component solves to report converged == false, exercising the
  /// retry/degrade ladder above. Like `pool`, it never changes the order of
  /// a fault-free run and is excluded from request fingerprints; in normal
  /// builds it is dead weight (every site folds to a no-op).
  FaultInjector* faults = nullptr;
};

/// Result of a spectral mapping.
struct SpectralLpmResult {
  /// The linear order S over the input points.
  LinearOrder order;
  /// Fiedler component assigned to each point (concatenated across
  /// components; each component's vector has unit norm).
  Vector values;
  /// Algebraic connectivity of the largest component.
  double lambda2 = 0.0;
  int64_t num_components = 1;
  /// Eigensolver matvec count (Krylov paths) summed over components.
  int64_t matvecs = 0;
  /// Restart cycles summed over components (block/scalar Krylov paths).
  int64_t restarts = 0;
  /// Fused block-operator (SpMM) applications summed over components.
  int64_t spmm_calls = 0;
  /// Reorthogonalization panel-kernel applications summed over components.
  int64_t reorth_panels = 0;
  /// Per-kernel wall time + deterministic flop estimates summed over
  /// components (block path only; see eigen/kernel_profile.h).
  KernelProfile profile;
  /// "dense-jacobi", "block-lanczos[+warm]", "lanczos", or
  /// "multilevel(...)+..." (of the largest component).
  std::string method_used;
  /// AND over the per-component solves: false when any component's Fiedler
  /// pair missed tolerance (or an injected "solver.converge" fault fired)
  /// and its order is a best-effort estimate. See FiedlerResult::converged.
  bool converged = true;
};

/// Step 1 for every spectral-family engine: the neighborhood graph of
/// `points` (options.graph) merged with options.affinity_edges. Returns
/// InvalidArgument when BuildPointGraph rejects the points or an affinity
/// edge has an endpoint out of range, equal endpoints, or a weight <= 0.
StatusOr<Graph> BuildRequestGraph(const PointSet& points,
                                  const SpectralLpmOptions& options);

/// Step 5 for every spectral-family engine: the positions of `values` in
/// ascending order. Values within rank_quantum_rel * max|value| of each
/// other are ties (grid eigenvectors are constant along whole slices),
/// broken by `ids`, the vertices' global ids, so the order does not depend
/// on solver noise; rank_quantum_rel <= 0 compares exact values first.
std::vector<int64_t> QuantizedValueOrder(std::span<const double> values,
                                         std::span<const int64_t> ids,
                                         double rank_quantum_rel);

/// Maps multi-dimensional point sets to linear orders via the spectrum of
/// their neighborhood graph.
class SpectralMapper {
 public:
  explicit SpectralMapper(SpectralLpmOptions options = {});

  /// Runs the full pipeline on `points`. Disconnected graphs are handled by
  /// ordering each connected component independently and concatenating
  /// components (largest first; ties by lowest point index), since the
  /// Fiedler vector is only defined per component.
  StatusOr<SpectralLpmResult> Map(const PointSet& points) const;

  /// Section-4 fully-custom entry point: the caller supplies the graph
  /// (weights encode mapping priority). `points` is only used to
  /// canonicalize degenerate eigenspaces and may be null.
  StatusOr<SpectralLpmResult> MapGraph(const Graph& graph,
                                       const PointSet* points) const;

  const SpectralLpmOptions& options() const { return options_; }

 private:
  SpectralLpmOptions options_;
};

}  // namespace spectral

#endif  // SPECTRAL_LPM_CORE_SPECTRAL_LPM_H_
