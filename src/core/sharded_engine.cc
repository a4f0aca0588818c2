#include "core/sharded_engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/mapping_service.h"
#include "core/ordering_request.h"
#include "graph/partition.h"
#include "graph/subgraph.h"
#include "util/check.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace spectral {

namespace {

// The spectral configuration every sub-request carries: affinity edges are
// already merged into the working graph and the pool is a runtime field the
// executor (service or local loop) provides. Keeping sub-options canonical
// maximizes fingerprint sharing between sub-requests and direct traffic.
SpectralLpmOptions SubRequestSpectralOptions(const SpectralLpmOptions& base) {
  SpectralLpmOptions sub = base;
  sub.affinity_edges.clear();
  sub.pool = nullptr;
  return sub;
}

// Options for the two small "cut"/"stitch" solves (coarse order, quotient
// order). These must pick the same *direction* the monolithic solve would:
// coarsening perturbs a degenerate spectrum — a square grid's two-fold
// lambda2 splits by a few percent under heavy-edge matching — so with the
// default tolerance the coarse solve would follow an arbitrary perturbed
// eigenvector while the monolithic solve canonicalizes toward the data's
// axes, and the shards would band perpendicular to the monolithic order.
// Widening the near-degeneracy window (and extracting enough pairs to span
// it) re-aligns the cut with the monolithic canonicalization; genuinely
// anisotropic spectra have gaps far above 25% and are unaffected.
SpectralLpmOptions CutSolveSpectralOptions(const SpectralLpmOptions& base,
                                           const PointSet* points) {
  SpectralLpmOptions cut = SubRequestSpectralOptions(base);
  if (points != nullptr && base.canonicalize_with_axes) {
    cut.fiedler.num_pairs =
        std::max(cut.fiedler.num_pairs, points->dims() + 1);
    cut.fiedler.degeneracy_rel_tol =
        std::max(cut.fiedler.degeneracy_rel_tol, 0.25);
  }
  return cut;
}

// Rounded centroid of each vertex group — canonicalization hints for the
// coarse and quotient solves, keeping their (possibly degenerate) Fiedler
// orientation aligned with the data's axes exactly like the monolithic
// solve's.
std::shared_ptr<const PointSet> GroupCentroids(
    const PointSet& points, std::span<const int64_t> group_of,
    int64_t num_groups) {
  std::vector<std::vector<double>> sums(
      static_cast<size_t>(num_groups),
      std::vector<double>(static_cast<size_t>(points.dims()), 0.0));
  std::vector<int64_t> counts(static_cast<size_t>(num_groups), 0);
  for (int64_t v = 0; v < points.size(); ++v) {
    const int64_t g = group_of[static_cast<size_t>(v)];
    ++counts[static_cast<size_t>(g)];
    const auto p = points[v];
    for (int a = 0; a < points.dims(); ++a) {
      sums[static_cast<size_t>(g)][static_cast<size_t>(a)] +=
          static_cast<double>(p[static_cast<size_t>(a)]);
    }
  }
  auto centroids = std::make_shared<PointSet>(points.dims());
  std::vector<Coord> c(static_cast<size_t>(points.dims()));
  for (int64_t g = 0; g < num_groups; ++g) {
    SPECTRAL_CHECK_GT(counts[static_cast<size_t>(g)], 0);
    for (int a = 0; a < points.dims(); ++a) {
      c[static_cast<size_t>(a)] = static_cast<Coord>(
          std::llround(sums[static_cast<size_t>(g)][static_cast<size_t>(a)] /
                       static_cast<double>(counts[static_cast<size_t>(g)])));
    }
    centroids->Add(c);
  }
  return centroids;
}

// Executes `requests` — through the routing service when present (cache
// dedup, shared pool), otherwise locally with shard-level ParallelFor on
// `pool`. The two paths produce byte-identical results: pool and service
// are runtime-only fields that never change a solve's output.
std::vector<StatusOr<OrderingResult>> SolveSubRequests(
    std::span<const OrderingRequest> requests, MappingService* service,
    ThreadPool* pool) {
  if (service != nullptr) return service->OrderBatch(requests);

  std::vector<StatusOr<OrderingResult>> results(
      requests.size(),
      StatusOr<OrderingResult>(Status(StatusCode::kInternal, "unsolved")));
  auto solve = [&](int64_t i) {
    auto engine = MakeOrderingEngine(requests[static_cast<size_t>(i)].engine);
    if (!engine.ok()) {
      results[static_cast<size_t>(i)] = engine.status();
      return;
    }
    if (pool != nullptr) {
      OrderingRequest shared = requests[static_cast<size_t>(i)];
      shared.options.spectral.pool = pool;
      results[static_cast<size_t>(i)] = (*engine)->Order(shared);
    } else {
      results[static_cast<size_t>(i)] =
          (*engine)->Order(requests[static_cast<size_t>(i)]);
    }
  };
  if (pool != nullptr && requests.size() > 1) {
    pool->ParallelFor(0, static_cast<int64_t>(requests.size()), 1, solve);
  } else {
    for (int64_t i = 0; i < static_cast<int64_t>(requests.size()); ++i) {
      solve(i);
    }
  }
  return results;
}

class ShardedSpectralEngine : public OrderingEngine {
 public:
  std::string_view name() const override {
    return kShardedSpectralEngineName;
  }
  bool supports_graph_input() const override { return true; }

  StatusOr<OrderingResult> Order(
      const OrderingRequest& request) const override {
    if (Status s = request.Validate(); !s.ok()) return s;
    if (request.engine != kShardedSpectralEngineName) {
      return InvalidArgumentError(
          "request addressed to engine '" + request.engine +
          "' given to engine '" + std::string(kShardedSpectralEngineName) +
          "'");
    }
    const ShardedEngineOptions& sharded = request.options.sharded;
    if (sharded.num_shards < 1) {
      return InvalidArgumentError("sharded-spectral: num_shards must be >= 1");
    }

    const SpectralLpmOptions spectral = request.EffectiveSpectralOptions();
    const PointSet* points = request.points.get();

    // Resolve the working graph the shards cut up. kGraph requests use the
    // caller's graph as-is (the monolithic engine ignores affinity options
    // there too); point requests build the neighborhood graph and merge
    // affinity edges, exactly like the monolithic mapper.
    Graph built;
    const Graph* graph = nullptr;
    if (request.input == OrderingInputKind::kGraph) {
      graph = request.graph.get();
    } else {
      if (points->empty()) {
        return InvalidArgumentError("cannot map an empty point set");
      }
      auto working = BuildRequestGraph(*points, spectral);
      if (!working.ok()) return working.status();
      built = *std::move(working);
      graph = &built;
    }

    const int64_t n = graph->num_vertices();
    if (n == 0) return InvalidArgumentError("cannot map an empty graph");
    const int64_t requested_shards =
        std::min<int64_t>(sharded.num_shards, n);
    if (requested_shards <= 1) return MonolithicDelegate(request);

    MappingService* service = request.options.service;
    std::unique_ptr<ThreadPool> owned_pool;
    ThreadPool* pool = spectral.pool;
    if (service == nullptr && pool == nullptr) {
      int threads = spectral.parallelism;
      if (threads <= 0) threads = ThreadPool::DefaultThreads();
      if (threads > 1) {
        owned_pool = std::make_unique<ThreadPool>(threads);
        pool = owned_pool.get();
      }
    }

    // --- Partition: coarse spectral order, cut into mass-balanced chunks.
    CoarseningChain chain =
        CoarsenToTarget(*graph, std::max(sharded.coarsen_target,
                                         requested_shards),
                        sharded.max_coarsen_levels);
    const int64_t coarse_n = chain.coarse.num_vertices();
    std::vector<int64_t> coarse_mass(static_cast<size_t>(coarse_n), 0);
    for (int64_t v = 0; v < n; ++v) {
      ++coarse_mass[static_cast<size_t>(
          chain.fine_to_coarse[static_cast<size_t>(v)])];
    }

    auto coarse_graph = std::make_shared<const Graph>(std::move(chain.coarse));
    std::shared_ptr<const PointSet> coarse_points;
    if (points != nullptr && spectral.canonicalize_with_axes) {
      coarse_points = GroupCentroids(*points, chain.fine_to_coarse, coarse_n);
    }
    OrderingRequest coarse_request = OrderingRequest::ForGraph(
        coarse_graph, coarse_points, "spectral");
    coarse_request.options.spectral = CutSolveSpectralOptions(spectral, points);
    auto coarse_results = SolveSubRequests(
        std::span<const OrderingRequest>(&coarse_request, 1), service, pool);
    if (!coarse_results.front().ok()) return coarse_results.front().status();
    const OrderingResult& coarse = *coarse_results.front();

    // Chunk the coarse order: shard id grows with the fine-vertex mass
    // already placed, so chunks are contiguous in the coarse order and
    // balanced to ~n/K fine vertices. Oversized coarse vertices can skip
    // ids; compact to the shards actually used.
    std::vector<int64_t> coarse_by_rank(static_cast<size_t>(coarse_n), -1);
    for (int64_t c = 0; c < coarse_n; ++c) {
      coarse_by_rank[static_cast<size_t>(coarse.order.RankOf(c))] = c;
    }
    std::vector<int64_t> shard_of_coarse(static_cast<size_t>(coarse_n), -1);
    int64_t prefix_mass = 0;
    int64_t last_raw = -1;
    int64_t num_shards = -1;
    for (int64_t r = 0; r < coarse_n; ++r) {
      const int64_t c = coarse_by_rank[static_cast<size_t>(r)];
      const int64_t raw = std::min<int64_t>(
          requested_shards - 1, prefix_mass * requested_shards / n);
      if (raw != last_raw) {
        ++num_shards;
        last_raw = raw;
      }
      shard_of_coarse[static_cast<size_t>(c)] = num_shards;
      prefix_mass += coarse_mass[static_cast<size_t>(c)];
    }
    ++num_shards;
    if (num_shards <= 1) return MonolithicDelegate(request);

    // Shard ids relabeled by lowest fine member. Every spectral solve in
    // this library fixes its sign at the lowest-id vertex with a
    // significant component, so giving the shard that contains fine vertex
    // 0 quotient id 0 anchors the quotient solve's orientation at the same
    // vertex as the monolithic solve's — the stitched order then runs the
    // same way instead of coming out globally mirrored.
    std::vector<int64_t> relabel(static_cast<size_t>(num_shards), -1);
    std::vector<int64_t> part_of(static_cast<size_t>(n), -1);
    int64_t next_shard = 0;
    for (int64_t v = 0; v < n; ++v) {
      int64_t& s = relabel[static_cast<size_t>(shard_of_coarse[
          static_cast<size_t>(chain.fine_to_coarse[static_cast<size_t>(v)])])];
      if (s < 0) s = next_shard++;
      part_of[static_cast<size_t>(v)] = s;
    }

    // --- Shard sub-requests over induced subgraphs.
    std::vector<InducedSubgraph> shards =
        SplitByLabel(*graph, part_of, num_shards);
    auto shard_size = [&shards](int64_t s) {
      return static_cast<int64_t>(
          shards[static_cast<size_t>(s)].local_to_global.size());
    };
    std::vector<OrderingRequest> shard_requests;
    shard_requests.reserve(static_cast<size_t>(num_shards));
    for (int64_t s = 0; s < num_shards; ++s) {
      InducedSubgraph& sub = shards[static_cast<size_t>(s)];
      std::shared_ptr<const PointSet> sub_points;
      if (points != nullptr) {
        // Translate to the shard's own origin: canonicalization uses
        // *centered* axis functions, so the solve is translation-invariant
        // and geometrically identical shards share one fingerprint (the
        // cache dedups repeated islands).
        std::vector<Coord> lo((static_cast<size_t>(points->dims())),
                              std::numeric_limits<Coord>::max());
        for (int64_t v : sub.local_to_global) {
          const auto p = (*points)[v];
          for (int a = 0; a < points->dims(); ++a) {
            lo[static_cast<size_t>(a)] =
                std::min(lo[static_cast<size_t>(a)], p[static_cast<size_t>(a)]);
          }
        }
        auto sp = std::make_shared<PointSet>(points->dims());
        std::vector<Coord> q(static_cast<size_t>(points->dims()));
        for (int64_t v : sub.local_to_global) {
          const auto p = (*points)[v];
          for (int a = 0; a < points->dims(); ++a) {
            q[static_cast<size_t>(a)] = static_cast<Coord>(
                p[static_cast<size_t>(a)] - lo[static_cast<size_t>(a)]);
          }
          sp->Add(q);
        }
        sub_points = std::move(sp);
      }
      OrderingRequest shard_request = OrderingRequest::ForGraph(
          std::make_shared<const Graph>(std::move(sub.graph)), sub_points,
          "spectral");
      shard_request.options.spectral = SubRequestSpectralOptions(spectral);
      shard_requests.push_back(std::move(shard_request));
    }
    auto shard_results = SolveSubRequests(shard_requests, service, pool);
    for (int64_t s = 0; s < num_shards; ++s) {
      if (!shard_results[static_cast<size_t>(s)].ok()) {
        return shard_results[static_cast<size_t>(s)].status();
      }
    }

    // --- Stitch: order the shards by the spectral order of the
    // shard-contraction graph.
    GraphContraction contraction =
        ContractByParts(*graph, part_of, num_shards);
    std::shared_ptr<const PointSet> shard_centroids;
    if (points != nullptr && spectral.canonicalize_with_axes) {
      shard_centroids = GroupCentroids(*points, part_of, num_shards);
    }
    OrderingRequest quotient_request = OrderingRequest::ForGraph(
        std::make_shared<const Graph>(std::move(contraction.quotient)),
        shard_centroids, "spectral");
    quotient_request.options.spectral =
        CutSolveSpectralOptions(spectral, points);
    auto quotient_results = SolveSubRequests(
        std::span<const OrderingRequest>(&quotient_request, 1), service,
        pool);
    if (!quotient_results.front().ok()) {
      return quotient_results.front().status();
    }
    const OrderingResult& quotient = *quotient_results.front();

    // Shard offsets in global rank space, by quotient order position.
    std::vector<int64_t> shard_by_rank(static_cast<size_t>(num_shards), -1);
    for (int64_t s = 0; s < num_shards; ++s) {
      shard_by_rank[static_cast<size_t>(quotient.order.RankOf(s))] = s;
    }
    std::vector<int64_t> offset(static_cast<size_t>(num_shards), 0);
    std::vector<int64_t> shard_rank(static_cast<size_t>(num_shards), 0);
    {
      int64_t acc = 0;
      for (int64_t r = 0; r < num_shards; ++r) {
        const int64_t s = shard_by_rank[static_cast<size_t>(r)];
        shard_rank[static_cast<size_t>(s)] = r;
        offset[static_cast<size_t>(s)] = acc;
        acc += shard_size(s);
      }
    }

    // Local rank of each fine vertex within its shard.
    std::vector<int64_t> local_rank(static_cast<size_t>(n), -1);
    for (int64_t s = 0; s < num_shards; ++s) {
      const auto& verts = shards[static_cast<size_t>(s)].local_to_global;
      const LinearOrder& order =
          shard_results[static_cast<size_t>(s)]->order;
      for (size_t k = 0; k < verts.size(); ++k) {
        local_rank[static_cast<size_t>(verts[k])] =
            order.RankOf(static_cast<int64_t>(k));
      }
    }

    // Orientation: every cut edge spans from its earlier shard to its later
    // shard (offsets dominate local positions, so the sign is fixed), which
    // makes the total |rank span| separable per shard — flipping shard s
    // only changes the terms where s participates. Choose, independently
    // and in closed form, the orientation minimizing
    //   sum_in w * pos_s(v) - sum_out w * pos_s(u),
    // where "in" edges arrive from earlier shards and "out" edges leave to
    // later ones; ties keep the canonicalized forward order.
    std::vector<double> g_forward(static_cast<size_t>(num_shards), 0.0);
    std::vector<double> w_in(static_cast<size_t>(num_shards), 0.0);
    std::vector<double> w_out(static_cast<size_t>(num_shards), 0.0);
    graph->ForEachEdge([&](int64_t u, int64_t v, double w) {
      const int64_t su = part_of[static_cast<size_t>(u)];
      const int64_t sv = part_of[static_cast<size_t>(v)];
      if (su == sv) return;
      const bool u_earlier = shard_rank[static_cast<size_t>(su)] <
                             shard_rank[static_cast<size_t>(sv)];
      const int64_t earlier_shard = u_earlier ? su : sv;
      const int64_t later_shard = u_earlier ? sv : su;
      const int64_t earlier_vertex = u_earlier ? u : v;
      const int64_t later_vertex = u_earlier ? v : u;
      g_forward[static_cast<size_t>(later_shard)] +=
          w * static_cast<double>(
                  local_rank[static_cast<size_t>(later_vertex)]);
      w_in[static_cast<size_t>(later_shard)] += w;
      g_forward[static_cast<size_t>(earlier_shard)] -=
          w * static_cast<double>(
                  local_rank[static_cast<size_t>(earlier_vertex)]);
      w_out[static_cast<size_t>(earlier_shard)] += w;
    });
    int64_t flips = 0;
    std::vector<bool> flip(static_cast<size_t>(num_shards), false);
    for (int64_t s = 0; s < num_shards; ++s) {
      const double m_minus_1 = static_cast<double>(shard_size(s) - 1);
      const double g_flip =
          (w_in[static_cast<size_t>(s)] - w_out[static_cast<size_t>(s)]) *
              m_minus_1 -
          g_forward[static_cast<size_t>(s)];
      if (g_flip < g_forward[static_cast<size_t>(s)]) {
        flip[static_cast<size_t>(s)] = true;
        ++flips;
      }
    }

    // --- Concatenate into the global order and assemble the result.
    std::vector<int64_t> ranks(static_cast<size_t>(n), -1);
    for (int64_t v = 0; v < n; ++v) {
      const int64_t s = part_of[static_cast<size_t>(v)];
      const int64_t m = shard_size(s);
      const int64_t local = flip[static_cast<size_t>(s)]
                                ? m - 1 - local_rank[static_cast<size_t>(v)]
                                : local_rank[static_cast<size_t>(v)];
      ranks[static_cast<size_t>(v)] = offset[static_cast<size_t>(s)] + local;
    }
    auto order = LinearOrder::FromRanks(std::move(ranks));
    if (!order.ok()) return order.status();

    OrderingResult out;
    out.order = *std::move(order);
    out.method = std::string(kShardedSpectralEngineName);
    out.num_solves = num_shards + 2;  // shards + coarse cut + quotient
    out.matvecs = coarse.matvecs + quotient.matvecs;
    out.restarts = coarse.restarts + quotient.restarts;
    out.converged = coarse.converged && quotient.converged;
    out.embedding.assign(static_cast<size_t>(n), 0.0);
    int64_t largest_shard = 0;
    for (int64_t s = 0; s < num_shards; ++s) {
      const OrderingResult& shard = *shard_results[static_cast<size_t>(s)];
      out.matvecs += shard.matvecs;
      out.restarts += shard.restarts;
      out.converged = out.converged && shard.converged;
      const auto& verts = shards[static_cast<size_t>(s)].local_to_global;
      if (shard_size(s) > shard_size(largest_shard)) largest_shard = s;
      // A flipped shard's order descends in its local embedding; negating
      // the stored values keeps the documented contract (the order is the
      // ascending sort of the embedding, shard by shard — a Fiedler
      // vector's sign is arbitrary, so negation stays a valid embedding).
      const double sign = flip[static_cast<size_t>(s)] ? -1.0 : 1.0;
      for (size_t k = 0; k < verts.size(); ++k) {
        out.embedding[static_cast<size_t>(verts[k])] =
            k < shard.embedding.size() ? sign * shard.embedding[k] : 0.0;
      }
    }
    out.lambda2 =
        shard_results[static_cast<size_t>(largest_shard)]->lambda2;
    out.detail = "shards=" + FormatInt(num_shards) +
                 " coarse_n=" + FormatInt(coarse_n) +
                 " cut_edges=" + FormatInt(contraction.cut_edges) +
                 " cut_weight=" + FormatDouble(contraction.cut_weight) +
                 " flips=" + FormatInt(flips);
    return out;
  }

 private:
  // K = 1 (or a single-vertex input): the request is exactly a monolithic
  // spectral solve; delegate so the output is byte-identical to the
  // "spectral" engine's, diagnostics included.
  StatusOr<OrderingResult> MonolithicDelegate(
      const OrderingRequest& request) const {
    OrderingRequest mono = request;
    mono.engine = "spectral";
    auto engine = MakeOrderingEngine("spectral");
    if (!engine.ok()) return engine.status();
    return (*engine)->Order(mono);
  }
};

}  // namespace

std::unique_ptr<OrderingEngine> MakeShardedSpectralEngine() {
  return std::make_unique<ShardedSpectralEngine>();
}

}  // namespace spectral
