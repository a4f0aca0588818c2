#include "core/spectral_lpm.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>

#include "eigen/operator.h"
#include "graph/laplacian.h"
#include "graph/subgraph.h"
#include "graph/traversal.h"
#include "util/check.h"
#include "util/fault.h"
#include "util/thread_pool.h"

namespace spectral {

SpectralMapper::SpectralMapper(SpectralLpmOptions options)
    : options_(std::move(options)) {}

StatusOr<Graph> BuildRequestGraph(const PointSet& points,
                                  const SpectralLpmOptions& options) {
  auto graph = BuildPointGraph(points, options.graph);
  if (!graph.ok() || options.affinity_edges.empty()) return graph;
  // Merge the neighborhood edges with the user's affinity edges.
  std::vector<GraphEdge> edges;
  edges.reserve(static_cast<size_t>(graph->num_edges()) +
                options.affinity_edges.size());
  graph->ForEachEdge([&](int64_t u, int64_t v, double w) {
    edges.push_back({u, v, w});
  });
  for (const GraphEdge& e : options.affinity_edges) {
    if (e.u < 0 || e.u >= points.size() || e.v < 0 || e.v >= points.size()) {
      return InvalidArgumentError("affinity edge endpoint out of range");
    }
    if (e.u == e.v) {
      return InvalidArgumentError("affinity edge endpoints must differ");
    }
    if (e.weight <= 0.0) {
      return InvalidArgumentError("affinity edge weight must be positive");
    }
    edges.push_back(e);
  }
  return Graph::FromEdges(points.size(), edges);
}

std::vector<int64_t> QuantizedValueOrder(std::span<const double> values,
                                         std::span<const int64_t> ids,
                                         double rank_quantum_rel) {
  const double quantum =
      rank_quantum_rel > 0.0 ? rank_quantum_rel * NormInf(values) : 0.0;
  auto key_of = [&](int64_t a) -> int64_t {
    const double v = values[static_cast<size_t>(a)];
    return quantum > 0.0 ? static_cast<int64_t>(std::llround(v / quantum))
                         : 0;
  };
  std::vector<int64_t> by_value(values.size());
  std::iota(by_value.begin(), by_value.end(), 0);
  std::sort(by_value.begin(), by_value.end(), [&](int64_t a, int64_t b) {
    const int64_t ka = key_of(a);
    const int64_t kb = key_of(b);
    if (ka != kb) return ka < kb;
    if (quantum == 0.0) {
      const double va = values[static_cast<size_t>(a)];
      const double vb = values[static_cast<size_t>(b)];
      if (va != vb) return va < vb;
    }
    return ids[static_cast<size_t>(a)] < ids[static_cast<size_t>(b)];
  });
  return by_value;
}

StatusOr<SpectralLpmResult> SpectralMapper::Map(const PointSet& points) const {
  if (points.empty()) {
    return InvalidArgumentError("cannot map an empty point set");
  }
  auto graph = BuildRequestGraph(points, options_);
  if (!graph.ok()) return graph.status();
  return MapGraph(*graph, &points);
}

StatusOr<SpectralLpmResult> SpectralMapper::MapGraph(
    const Graph& graph, const PointSet* points) const {
  const int64_t n = graph.num_vertices();
  if (n == 0) return InvalidArgumentError("cannot map an empty graph");
  if (points != nullptr) {
    SPECTRAL_CHECK_EQ(points->size(), n)
        << "point set and graph disagree on the number of vertices";
  }

  int64_t num_components = 0;
  const std::vector<int64_t> comp = ConnectedComponents(graph, &num_components);

  const std::vector<InducedSubgraph> parts =
      SplitByLabel(graph, comp, num_components);

  // Component processing order: largest first, ties by lowest vertex id
  // (each part's vertices are ascending).
  std::vector<int64_t> comp_order(static_cast<size_t>(num_components));
  std::iota(comp_order.begin(), comp_order.end(), 0);
  std::sort(comp_order.begin(), comp_order.end(), [&](int64_t a, int64_t b) {
    const auto& ma = parts[static_cast<size_t>(a)].local_to_global;
    const auto& mb = parts[static_cast<size_t>(b)].local_to_global;
    if (ma.size() != mb.size()) return ma.size() > mb.size();
    return ma[0] < mb[0];
  });

  // Per-component eigensolves. Components are independent Fiedler problems,
  // so they run concurrently on a pool (fed largest-first: the biggest solve
  // dominates the critical path); large single components instead gain from
  // row-partitioned matvecs inside Lanczos. Every solve is deterministic and
  // the concatenation below walks comp_order serially, so the result does
  // not depend on the thread count.
  struct ComponentSolve {
    Status status;
    // fiedler.fiedler holds the component's values (zeros when unsolved).
    FiedlerResult fiedler;
    bool solved = false;  // true iff the component needed an eigensolve
  };
  std::vector<ComponentSolve> solves(static_cast<size_t>(num_components));

  // An external pool (options_.pool) is used as-is: the caller — typically
  // MappingService fanning a batch out — already sized it, and sharing it
  // avoids nesting one pool per request. Otherwise spawn our own, but only
  // when there is concurrent work: more than one component, or a single
  // component big enough for SparseOperator to row-partition its matvecs.
  ThreadPool* pool = options_.pool;
  std::unique_ptr<ThreadPool> owned_pool;
  if (pool == nullptr) {
    int threads = options_.parallelism;
    if (threads <= 0) threads = ThreadPool::DefaultThreads();
    const int64_t largest_component = static_cast<int64_t>(
        parts[static_cast<size_t>(comp_order[0])].local_to_global.size());
    if (threads > 1 &&
        (num_components > 1 || largest_component >= kDefaultMinParallelRows)) {
      owned_pool = std::make_unique<ThreadPool>(threads);
      pool = owned_pool.get();
    }
  }

  auto solve_component = [&](int64_t c) {
    ComponentSolve& out = solves[static_cast<size_t>(c)];
    const Graph& sub = parts[static_cast<size_t>(c)].graph;
    const auto& verts = parts[static_cast<size_t>(c)].local_to_global;
    const int64_t m = static_cast<int64_t>(verts.size());
    out.fiedler.fiedler.assign(static_cast<size_t>(m), 0.0);
    if (m <= 1) return;

    // Warm-started multilevel path for big components: one hierarchy build
    // feeds the coarsest dense solve, the prolong/smooth ascent, and the
    // full-accuracy fine block solve, so the exact engine converges at
    // near-multilevel speed with the same order as a cold solve. It only
    // triggers when the fine solve would take the block path anyway; an
    // explicitly forced kDense/kLanczos stays flat (those are the
    // reference engines).
    const bool block_capable =
        options_.fiedler.method == FiedlerMethod::kBlockLanczos ||
        (options_.fiedler.method == FiedlerMethod::kAuto &&
         m > options_.fiedler.dense_threshold);
    const bool use_warm = block_capable && options_.warm_start_threshold > 0 &&
                          m >= options_.warm_start_threshold;
    std::vector<Vector> axes;
    if (points != nullptr && options_.canonicalize_with_axes) {
      PointSet sub_points(points->dims());
      for (int64_t v : verts) sub_points.Add((*points)[v]);
      axes = sub_points.CenteredAxisFunctions();
    }
    FiedlerOptions fiedler_options = options_.fiedler;
    fiedler_options.matvec_pool = pool;
    StatusOr<FiedlerResult> fiedler = [&]() -> StatusOr<FiedlerResult> {
      if (use_warm) {
        return ComputeFiedlerMultilevel(sub, options_.multilevel,
                                        fiedler_options, axes);
      }
      return ComputeFiedler(BuildLaplacian(sub), fiedler_options, axes);
    }();
    if (!fiedler.ok()) {
      out.status = fiedler.status();
      return;
    }
    out.fiedler = *std::move(fiedler);
    // An injected solver fault demotes this solve to "unconverged" without
    // touching its (fully converged) values: downstream sees exactly what a
    // real stall would produce — a usable order flagged as best-effort.
    if (FaultFires(options_.faults, "solver.converge")) {
      out.fiedler.converged = false;
    }
    out.solved = true;
  };

  if (pool != nullptr) {
    // ParallelFor (not Submit + WaitIdle) so this stays deadlock-free when
    // the mapper itself runs inside a task of an external pool: the caller
    // participates in draining chunks. The atomic cursor walks comp_order,
    // preserving the largest-first schedule.
    pool->ParallelFor(0, num_components, 1, [&](int64_t i) {
      solve_component(comp_order[static_cast<size_t>(i)]);
    });
  } else {
    for (int64_t c : comp_order) solve_component(c);
  }
  for (int64_t c : comp_order) {
    if (!solves[static_cast<size_t>(c)].status.ok()) {
      return solves[static_cast<size_t>(c)].status;
    }
  }

  SpectralLpmResult result;
  result.num_components = num_components;
  result.values.assign(static_cast<size_t>(n), 0.0);
  std::vector<int64_t> ranks(static_cast<size_t>(n), -1);
  int64_t next_rank = 0;
  bool recorded_main = false;

  for (int64_t c : comp_order) {
    const auto& verts = parts[static_cast<size_t>(c)].local_to_global;
    const int64_t m = static_cast<int64_t>(verts.size());
    const ComponentSolve& solve = solves[static_cast<size_t>(c)];
    const Vector& values = solve.fiedler.fiedler;

    if (solve.solved) {
      result.matvecs += solve.fiedler.matvecs;
      result.restarts += solve.fiedler.restarts;
      result.spmm_calls += solve.fiedler.spmm_calls;
      result.reorth_panels += solve.fiedler.reorth_panels;
      result.profile.Add(solve.fiedler.profile);
      result.converged = result.converged && solve.fiedler.converged;
      if (!recorded_main) {
        result.lambda2 = solve.fiedler.lambda2;
        result.method_used = solve.fiedler.method_used;
        recorded_main = true;
      }
    }

    // Step 5: order by quantized Fiedler component.
    const std::vector<int64_t> by_value =
        QuantizedValueOrder(values, verts, options_.rank_quantum_rel);
    for (int64_t k = 0; k < m; ++k) {
      const int64_t v = verts[static_cast<size_t>(by_value[static_cast<size_t>(k)])];
      ranks[static_cast<size_t>(v)] = next_rank++;
      result.values[static_cast<size_t>(v)] =
          values[static_cast<size_t>(by_value[static_cast<size_t>(k)])];
    }
  }
  SPECTRAL_CHECK_EQ(next_rank, n);
  if (!recorded_main) result.method_used = "trivial";

  auto order = LinearOrder::FromRanks(std::move(ranks));
  if (!order.ok()) return order.status();
  result.order = std::move(*order);
  return result;
}

}  // namespace spectral
