#include "core/spectral_lpm.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>

#include "eigen/operator.h"
#include "graph/laplacian.h"
#include "graph/traversal.h"
#include "util/check.h"
#include "util/fault.h"
#include "util/thread_pool.h"

namespace spectral {

SpectralMapper::SpectralMapper(SpectralLpmOptions options)
    : options_(std::move(options)) {}

StatusOr<SpectralLpmResult> SpectralMapper::Map(const PointSet& points) const {
  if (points.empty()) {
    return InvalidArgumentError("cannot map an empty point set");
  }
  auto graph = BuildPointGraph(points, options_.graph);
  if (!graph.ok()) return graph.status();

  if (options_.affinity_edges.empty()) {
    return MapGraph(*graph, &points);
  }
  // Merge the neighborhood edges with the user's affinity edges.
  std::vector<GraphEdge> edges;
  edges.reserve(static_cast<size_t>(graph->num_edges()) +
                options_.affinity_edges.size());
  graph->ForEachEdge([&](int64_t u, int64_t v, double w) {
    edges.push_back({u, v, w});
  });
  for (const GraphEdge& e : options_.affinity_edges) {
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
  const Graph merged = Graph::FromEdges(points.size(), edges);
  return MapGraph(merged, &points);
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

  // Vertices per component.
  std::vector<std::vector<int64_t>> members(
      static_cast<size_t>(num_components));
  for (int64_t v = 0; v < n; ++v) {
    members[static_cast<size_t>(comp[static_cast<size_t>(v)])].push_back(v);
  }
  // Edges per component, in local vertex ids.
  std::vector<int64_t> local(static_cast<size_t>(n), -1);
  for (size_t c = 0; c < members.size(); ++c) {
    for (size_t k = 0; k < members[c].size(); ++k) {
      local[static_cast<size_t>(members[c][k])] = static_cast<int64_t>(k);
    }
  }
  std::vector<std::vector<GraphEdge>> comp_edges(
      static_cast<size_t>(num_components));
  graph.ForEachEdge([&](int64_t u, int64_t v, double w) {
    const int64_t c = comp[static_cast<size_t>(u)];
    comp_edges[static_cast<size_t>(c)].push_back(
        {local[static_cast<size_t>(u)], local[static_cast<size_t>(v)], w});
  });

  // Component processing order: largest first, ties by lowest vertex id
  // (members[c] is ascending by construction).
  std::vector<int64_t> comp_order(static_cast<size_t>(num_components));
  std::iota(comp_order.begin(), comp_order.end(), 0);
  std::sort(comp_order.begin(), comp_order.end(), [&](int64_t a, int64_t b) {
    const size_t sa = members[static_cast<size_t>(a)].size();
    const size_t sb = members[static_cast<size_t>(b)].size();
    if (sa != sb) return sa > sb;
    return members[static_cast<size_t>(a)][0] < members[static_cast<size_t>(b)][0];
  });

  // Per-component eigensolves. Components are independent Fiedler problems,
  // so they run concurrently on a pool (fed largest-first: the biggest solve
  // dominates the critical path); large single components instead gain from
  // row-partitioned matvecs inside Lanczos. Every solve is deterministic and
  // the concatenation below walks comp_order serially, so the result does
  // not depend on the thread count.
  struct ComponentSolve {
    Status status;
    Vector values;
    double lambda2 = 0.0;
    int64_t matvecs = 0;
    int64_t restarts = 0;
    int64_t spmm_calls = 0;
    int64_t reorth_panels = 0;
    KernelProfile profile;
    std::string method_used;
    bool solved = false;  // true iff the component needed an eigensolve
    bool converged = true;
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
        members[static_cast<size_t>(comp_order[0])].size());
    if (threads > 1 &&
        (num_components > 1 || largest_component >= kDefaultMinParallelRows)) {
      owned_pool = std::make_unique<ThreadPool>(threads);
      pool = owned_pool.get();
    }
  }

  auto solve_component = [&](int64_t c) {
    ComponentSolve& out = solves[static_cast<size_t>(c)];
    const auto& verts = members[static_cast<size_t>(c)];
    const int64_t m = static_cast<int64_t>(verts.size());
    out.values.assign(static_cast<size_t>(m), 0.0);
    if (m <= 1) return;

    const Graph sub = Graph::FromEdges(m, comp_edges[static_cast<size_t>(c)]);
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
        MultilevelOptions multilevel = options_.multilevel;
        multilevel.fiedler = fiedler_options;
        return ComputeFiedlerMultilevel(sub, multilevel, axes);
      }
      return ComputeFiedler(BuildLaplacian(sub), fiedler_options, axes);
    }();
    if (!fiedler.ok()) {
      out.status = fiedler.status();
      return;
    }
    out.values = fiedler->fiedler;
    out.lambda2 = fiedler->lambda2;
    out.matvecs = fiedler->matvecs;
    out.restarts = fiedler->restarts;
    out.spmm_calls = fiedler->spmm_calls;
    out.reorth_panels = fiedler->reorth_panels;
    out.profile = fiedler->profile;
    out.method_used = fiedler->method_used;
    out.converged = fiedler->converged;
    // An injected solver fault demotes this solve to "unconverged" without
    // touching its (fully converged) values: downstream sees exactly what a
    // real stall would produce — a usable order flagged as best-effort.
    if (FaultFires(options_.faults, "solver.converge")) {
      out.converged = false;
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
    const auto& verts = members[static_cast<size_t>(c)];
    const int64_t m = static_cast<int64_t>(verts.size());
    ComponentSolve& solve = solves[static_cast<size_t>(c)];
    Vector& values = solve.values;

    if (solve.solved) {
      result.matvecs += solve.matvecs;
      result.restarts += solve.restarts;
      result.spmm_calls += solve.spmm_calls;
      result.reorth_panels += solve.reorth_panels;
      result.profile.Add(solve.profile);
      result.converged = result.converged && solve.converged;
      if (!recorded_main) {
        result.lambda2 = solve.lambda2;
        result.method_used = solve.method_used;
        recorded_main = true;
      }
    }

    // Step 5: order by Fiedler component. Components are quantized first so
    // exact eigenvector ties (grid eigenvectors are constant along whole
    // slices) resolve by point index, not by solver-specific noise.
    double quantum = 0.0;
    if (options_.rank_quantum_rel > 0.0) {
      quantum = options_.rank_quantum_rel * NormInf(values);
    }
    auto key_of = [&](int64_t a) -> int64_t {
      const double v = values[static_cast<size_t>(a)];
      return quantum > 0.0
                 ? static_cast<int64_t>(std::llround(v / quantum))
                 : 0;
    };
    std::vector<int64_t> by_value(static_cast<size_t>(m));
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
      return verts[static_cast<size_t>(a)] < verts[static_cast<size_t>(b)];
    });
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
