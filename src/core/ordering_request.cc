#include "core/ordering_request.h"

#include <utility>

#include "sfc/curve_registry.h"

namespace spectral {

namespace {

// Non-owning view of an object the caller keeps alive (aliasing
// constructor with an empty control block).
template <typename T>
std::shared_ptr<const T> Borrow(const T& object) {
  return std::shared_ptr<const T>(std::shared_ptr<const T>(), &object);
}

void HashPointSet(Hasher& h, const PointSet& points) {
  h.MixInt(points.dims()).MixInt(points.size());
  for (int64_t i = 0; i < points.size(); ++i) {
    for (const Coord c : points[i]) h.MixInt(c);
  }
}

void HashGraph(Hasher& h, const Graph& graph) {
  h.MixInt(graph.num_vertices()).MixInt(graph.num_edges());
  graph.ForEachEdge([&h](int64_t u, int64_t v, double w) {
    h.MixInt(u).MixInt(v).MixDouble(w);
  });
}

void HashEdges(Hasher& h, const std::vector<GraphEdge>& edges) {
  h.MixUint(edges.size());
  for (const GraphEdge& e : edges) {
    h.MixInt(e.u).MixInt(e.v).MixDouble(e.weight);
  }
}

void HashFiedlerOptions(Hasher& h, const FiedlerOptions& o) {
  // matvec_pool is a runtime resource with no effect on the result
  // (row-partitioned matvecs are bit-identical to serial) — excluded.
  h.MixEnum(o.method)
      .MixInt(o.dense_threshold)
      .MixInt(o.num_pairs)
      .MixDouble(o.tol)
      .MixInt(o.max_basis)
      .MixInt(o.max_restarts)
      .MixUint(o.seed)
      .MixInt(o.block_size)
      .MixInt(o.block_max_basis)
      .MixInt(o.cheb_degree_max)
      .MixDouble(o.degeneracy_rel_tol)
      .MixDouble(o.degeneracy_abs_tol)
      .MixEnum(o.degeneracy_policy);
}

void HashSpectralOptions(Hasher& h, const SpectralLpmOptions& o) {
  // parallelism and pool are excluded: the mapping is byte-identical for
  // every thread count, so they must not split the cache key space.
  h.MixEnum(o.graph.connectivity)
      .MixInt(o.graph.radius)
      .MixDouble(o.graph.weight)
      .MixEnum(o.graph.kernel)
      .MixDouble(o.graph.gaussian_sigma)
      .MixBool(o.canonicalize_with_axes)
      .MixDouble(o.rank_quantum_rel)
      .MixInt(o.warm_start_threshold)
      .MixInt(o.multilevel.coarsen.coarsest_size)
      .MixDouble(o.multilevel.coarsen.min_shrink_factor)
      .MixInt(o.multilevel.coarsen.max_levels);
  HashEdges(h, o.affinity_edges);
  HashFiedlerOptions(h, o.fiedler);
}

// Only the options the named engine actually reads participate in the
// fingerprint — the "effective options". Hashing fields an engine ignores
// would split the cache key space between requests with byte-identical
// results (e.g. two hilbert requests differing only in spectral solver
// settings). bisection.base is always excluded: the bisection engine
// overwrites it with `spectral`. The runtime `service` routing pointer is
// always excluded, like `pool`: it never changes the computed order.
// Unknown engine names hash every semantic field, which stays conservative
// for backends registered later.
void HashEngineOptions(Hasher& h, std::string_view engine,
                       const OrderingEngineOptions& o) {
  if (CurveKindFromName(engine).ok()) return;  // geometry-only engines
  const bool bisection = engine == "bisection";
  const bool sharded = engine == "sharded-spectral";
  const bool known = engine == "spectral" ||
                     engine == "spectral-multilevel" || bisection || sharded;
  HashSpectralOptions(h, o.spectral);
  if (bisection || !known) {
    h.MixInt(o.bisection.leaf_size)
        .MixInt(o.bisection.max_depth)
        .MixBool(o.bisection.warm_start_children);
  }
  if (sharded || !known) {
    h.MixInt(o.sharded.num_shards)
        .MixInt(o.sharded.coarsen_target)
        .MixInt(o.sharded.max_coarsen_levels);
  }
}

}  // namespace

OrderingRequest OrderingRequest::ForPoints(const PointSet& points,
                                           std::string_view engine) {
  return ForPoints(Borrow(points), engine);
}

OrderingRequest OrderingRequest::ForPoints(
    std::shared_ptr<const PointSet> points, std::string_view engine) {
  OrderingRequest request;
  request.engine = std::string(engine);
  request.input = OrderingInputKind::kPoints;
  request.points = std::move(points);
  return request;
}

OrderingRequest OrderingRequest::ForPointsWithAffinity(
    const PointSet& points, std::vector<GraphEdge> affinity_edges,
    std::string_view engine) {
  OrderingRequest request;
  request.engine = std::string(engine);
  request.input = OrderingInputKind::kPointsWithAffinity;
  request.points = Borrow(points);
  request.affinity_edges = std::move(affinity_edges);
  return request;
}

OrderingRequest OrderingRequest::ForGraph(const Graph& graph,
                                          const PointSet* canonical_points,
                                          std::string_view engine) {
  OrderingRequest request;
  request.engine = std::string(engine);
  request.input = OrderingInputKind::kGraph;
  request.graph = Borrow(graph);
  if (canonical_points != nullptr) request.points = Borrow(*canonical_points);
  return request;
}

OrderingRequest OrderingRequest::ForGraph(
    std::shared_ptr<const Graph> graph,
    std::shared_ptr<const PointSet> canonical_points,
    std::string_view engine) {
  OrderingRequest request;
  request.engine = std::string(engine);
  request.input = OrderingInputKind::kGraph;
  request.graph = std::move(graph);
  request.points = std::move(canonical_points);
  return request;
}

Status OrderingRequest::Validate() const {
  if (engine.empty()) {
    return InvalidArgumentError("ordering request has no engine name");
  }
  switch (input) {
    case OrderingInputKind::kPoints:
      if (points == nullptr) {
        return InvalidArgumentError("kPoints request carries no point set");
      }
      if (graph != nullptr) {
        return InvalidArgumentError(
            "kPoints request must not carry a graph (use kGraph)");
      }
      if (!affinity_edges.empty()) {
        return InvalidArgumentError(
            "kPoints request must not carry affinity edges "
            "(use kPointsWithAffinity)");
      }
      return OkStatus();
    case OrderingInputKind::kPointsWithAffinity:
      if (points == nullptr) {
        return InvalidArgumentError(
            "kPointsWithAffinity request carries no point set");
      }
      if (graph != nullptr) {
        return InvalidArgumentError(
            "kPointsWithAffinity request must not carry a graph");
      }
      return OkStatus();
    case OrderingInputKind::kGraph:
      if (graph == nullptr) {
        return InvalidArgumentError("kGraph request carries no graph");
      }
      if (!affinity_edges.empty()) {
        return InvalidArgumentError(
            "kGraph request must not carry affinity edges (merge them into "
            "the graph)");
      }
      if (points != nullptr && points->size() != graph->num_vertices()) {
        return InvalidArgumentError(
            "kGraph canonicalization points disagree with the graph on the "
            "number of vertices");
      }
      return OkStatus();
  }
  return InvalidArgumentError("unknown ordering input kind");
}

Fingerprint128 OrderingRequest::Fingerprint() const {
  Hasher h;
  h.MixString(engine).MixEnum(input);
  h.MixBool(points != nullptr);
  if (points != nullptr) HashPointSet(h, *points);
  h.MixBool(graph != nullptr);
  if (graph != nullptr) HashGraph(h, *graph);
  HashEdges(h, affinity_edges);
  HashEngineOptions(h, engine, options);
  return h.Finish();
}

int64_t OrderingRequest::InputSize() const {
  if (input == OrderingInputKind::kGraph) {
    return graph == nullptr ? 0 : graph->num_vertices();
  }
  return points == nullptr ? 0 : points->size();
}

SpectralLpmOptions OrderingRequest::EffectiveSpectralOptions() const {
  SpectralLpmOptions spectral = options.spectral;
  spectral.affinity_edges.insert(spectral.affinity_edges.end(),
                                 affinity_edges.begin(), affinity_edges.end());
  return spectral;
}

}  // namespace spectral
