#include "core/recursive_bisection.h"

#include <algorithm>
#include <numeric>

#include "eigen/fiedler.h"
#include "graph/laplacian.h"
#include "graph/subgraph.h"
#include "graph/traversal.h"
#include "util/check.h"

namespace spectral {

namespace {

// A warm-started child at or above this size takes the block path even
// when the base dense_threshold would pick dense Jacobi: with a good start
// the block solve is far cheaper than the O(n^3) dense sweep that
// otherwise dominates the whole recursion on mid-size children.
constexpr int64_t kWarmDenseThreshold = 32;

// Restricts each column of `block` to the entries at `idx` — how a parent
// Fiedler block becomes a child warm start.
VectorBlock RestrictBlock(const VectorBlock& block,
                          std::span<const int64_t> idx) {
  VectorBlock out;
  out.reserve(block.size());
  for (const Vector& v : block) {
    Vector r(idx.size());
    for (size_t i = 0; i < idx.size(); ++i) {
      r[i] = v[static_cast<size_t>(idx[i])];
    }
    out.push_back(std::move(r));
  }
  return out;
}

// Shared recursion state.
struct Bisector {
  const PointSet* points;  // may be null
  const RecursiveBisectionOptions* options;
  std::vector<int64_t> ranks;  // global point -> rank, filled leaf by leaf
  int64_t next_rank = 0;
  int64_t num_solves = 0;
  int64_t warm_solves = 0;
  int64_t matvecs = 0;
  int depth_reached = 0;
  Status error;  // first failure, if any

  bool ok() const { return error.ok(); }

  // One Fiedler solve of the recursion, warm-started from the parent's
  // restricted Fiedler block when available. A warm-started child also
  // drops to kWarmDenseThreshold. Both solvers land on the same quantized
  // order (the engines are cross-validated at the rank quantizer), so this
  // only moves cost.
  StatusOr<FiedlerResult> Solve(const Graph& graph,
                                std::span<const Vector> axes,
                                const VectorBlock* warm) {
    FiedlerOptions fo = options->base.fiedler;
    // The median cut consumes only the Fiedler vector itself, so never pay
    // the ~num_pairs-proportional block cost for trailing pairs here (the
    // child warm start is that same single vector restricted).
    fo.num_pairs = 1;
    if (options->base.pool != nullptr) fo.matvec_pool = options->base.pool;
    const bool use_warm = options->warm_start_children && warm != nullptr &&
                          !warm->empty();
    if (use_warm) {
      fo.dense_threshold = std::min(fo.dense_threshold, kWarmDenseThreshold);
    }
    auto fiedler = ComputeFiedler(BuildLaplacian(graph), fo, axes,
                                  use_warm ? warm : nullptr);
    if (fiedler.ok()) {
      num_solves += 1;
      matvecs += fiedler->matvecs;
      // Count only solves that actually consumed the start (the dense path
      // ignores it).
      if (fiedler->warm_started) warm_solves += 1;
    }
    return fiedler;
  }

  // Appends `verts` in their given order.
  void Emit(std::span<const int64_t> verts) {
    for (int64_t v : verts) {
      ranks[static_cast<size_t>(v)] = next_rank++;
    }
  }

  std::vector<Vector> AxesFor(std::span<const int64_t> verts) const {
    if (points == nullptr || !options->base.canonicalize_with_axes) return {};
    PointSet subset(points->dims());
    for (int64_t v : verts) subset.Add((*points)[v]);
    return subset.CenteredAxisFunctions();
  }

  // Local positions of `verts` by quantized Fiedler value (ties by global
  // id, like SpectralMapper). Children re-canonicalize the Fiedler sign
  // independently, which would flip segment directions at random and
  // break the concatenated order, so the result is aligned with the
  // incoming vertex order (`verts` arrives sorted by the parent's values):
  // reversed if reversed agreement is stronger.
  std::vector<int64_t> ValueOrder(std::span<const double> values,
                                  std::span<const int64_t> verts) const {
    std::vector<int64_t> by_value =
        QuantizedValueOrder(values, verts, options->base.rank_quantum_rel);
    const int64_t m = static_cast<int64_t>(by_value.size());
    int64_t forward = 0;
    int64_t backward = 0;
    for (int64_t k = 0; k < m; ++k) {
      forward += k * by_value[static_cast<size_t>(k)];
      backward += k * by_value[static_cast<size_t>(m - 1 - k)];
    }
    if (backward > forward) {
      std::reverse(by_value.begin(), by_value.end());
    }
    return by_value;
  }

  // Orders an arbitrary (possibly disconnected) subgraph.
  void OrderAny(const Graph& graph, std::span<const int64_t> verts, int depth,
                const VectorBlock* warm);

  // Orders a *connected* subgraph over verts (local ids match verts
  // positions): a leaf is emitted in the value order of one direct Fiedler
  // solve, anything larger is cut at that order's median and recursed.
  void OrderConnected(const Graph& graph, std::span<const int64_t> verts,
                      int depth, const VectorBlock* warm) {
    depth_reached = std::max(depth_reached, depth);
    const int64_t m = static_cast<int64_t>(verts.size());
    if (m <= 2) {
      Emit(verts);
      return;
    }
    auto fiedler = Solve(graph, AxesFor(verts), warm);
    if (!fiedler.ok()) {
      if (error.ok()) error = fiedler.status();
      Emit(verts);  // keep the permutation valid even on failure
      return;
    }
    const std::vector<int64_t> by_value = ValueOrder(fiedler->fiedler, verts);
    if (m <= options->leaf_size || depth >= options->max_depth) {
      for (int64_t i : by_value) {
        ranks[static_cast<size_t>(verts[static_cast<size_t>(i)])] =
            next_rank++;
      }
      return;
    }

    // This solve's eigenpairs, restricted to a child's vertices, seed the
    // child's solve (the warm-start hook in eigen/fiedler.h).
    VectorBlock parent_block;
    if (options->warm_start_children) {
      parent_block.reserve(fiedler->pairs.size());
      for (const LaplacianEigenPair& pair : fiedler->pairs) {
        parent_block.push_back(pair.eigenvector);
      }
    }

    const int64_t half = (m + 1) / 2;
    for (int side = 0; side < 2; ++side) {
      const int64_t begin = side == 0 ? 0 : half;
      const int64_t end = side == 0 ? half : m;
      std::vector<int64_t> side_local(by_value.begin() + begin,
                                      by_value.begin() + end);
      const InducedSubgraph sub = BuildInducedSubgraph(graph, side_local);
      std::vector<int64_t> side_global(side_local.size());
      for (size_t i = 0; i < side_local.size(); ++i) {
        side_global[i] = verts[static_cast<size_t>(side_local[i])];
      }
      VectorBlock child_warm;
      if (!parent_block.empty()) {
        child_warm = RestrictBlock(parent_block, side_local);
      }
      OrderAny(sub.graph, side_global, depth + 1,
               child_warm.empty() ? nullptr : &child_warm);
    }
  }
};

void Bisector::OrderAny(const Graph& graph, std::span<const int64_t> verts,
                        int depth, const VectorBlock* warm) {
  int64_t num_components = 0;
  const auto comp = ConnectedComponents(graph, &num_components);
  if (num_components <= 1) {
    OrderConnected(graph, verts, depth, warm);
    return;
  }
  // Largest component first, ties by the global id of each component's
  // lowest local vertex (`verts` is not ascending).
  const std::vector<InducedSubgraph> parts =
      SplitByLabel(graph, comp, num_components);
  std::vector<int64_t> order(static_cast<size_t>(num_components));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
    const auto& ma = parts[static_cast<size_t>(a)].local_to_global;
    const auto& mb = parts[static_cast<size_t>(b)].local_to_global;
    if (ma.size() != mb.size()) return ma.size() > mb.size();
    return verts[static_cast<size_t>(ma[0])] < verts[static_cast<size_t>(mb[0])];
  });
  for (int64_t c : order) {
    const InducedSubgraph& sub = parts[static_cast<size_t>(c)];
    const auto& local = sub.local_to_global;
    std::vector<int64_t> global(local.size());
    for (size_t i = 0; i < local.size(); ++i) {
      global[i] = verts[static_cast<size_t>(local[i])];
    }
    VectorBlock comp_warm;
    if (warm != nullptr && !warm->empty()) {
      comp_warm = RestrictBlock(*warm, local);
    }
    OrderAny(sub.graph, global, depth,
             comp_warm.empty() ? nullptr : &comp_warm);
  }
}

}  // namespace

StatusOr<RecursiveBisectionResult> RecursiveSpectralOrderGraph(
    const Graph& graph, const PointSet* points,
    const RecursiveBisectionOptions& options) {
  const int64_t n = graph.num_vertices();
  if (n == 0) return InvalidArgumentError("cannot order an empty graph");
  if (points != nullptr) {
    SPECTRAL_CHECK_EQ(points->size(), n);
  }
  SPECTRAL_CHECK_GE(options.leaf_size, 2);
  SPECTRAL_CHECK_GE(options.max_depth, 1);

  Bisector bisector;
  bisector.points = points;
  bisector.options = &options;
  bisector.ranks.assign(static_cast<size_t>(n), -1);

  std::vector<int64_t> all(static_cast<size_t>(n));
  std::iota(all.begin(), all.end(), 0);
  bisector.OrderAny(graph, all, 0, nullptr);
  if (!bisector.ok()) return bisector.error;
  SPECTRAL_CHECK_EQ(bisector.next_rank, n);

  auto order = LinearOrder::FromRanks(std::move(bisector.ranks));
  if (!order.ok()) return order.status();
  RecursiveBisectionResult result;
  result.order = std::move(*order);
  result.num_solves = bisector.num_solves;
  result.warm_solves = bisector.warm_solves;
  result.matvecs = bisector.matvecs;
  result.depth = bisector.depth_reached;
  return result;
}

StatusOr<RecursiveBisectionResult> RecursiveSpectralOrder(
    const PointSet& points, const RecursiveBisectionOptions& options) {
  if (points.empty()) {
    return InvalidArgumentError("cannot order an empty point set");
  }
  auto graph = BuildRequestGraph(points, options.base);
  if (!graph.ok()) return graph.status();
  return RecursiveSpectralOrderGraph(*graph, &points, options);
}

}  // namespace spectral
