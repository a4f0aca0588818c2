// Warm-start path property tests (the contract behind the solver
// overhaul): across every bench workload, the warm-started multilevel
// solve and the cold block solve produce the *identical* final order; a
// deliberately garbage warm start still converges to the same answer; and
// the eigen/warm_start.h unit honors its invariants (kernel-orthogonal
// block, disconnection detection through the hierarchy).

#include <algorithm>
#include <cmath>
#include <numbers>

#include <gtest/gtest.h>

#include "core/mapping_service.h"
#include "core/multilevel.h"
#include "core/ordering_request.h"
#include "eigen/fiedler.h"
#include "eigen/warm_start.h"
#include "graph/coarsening.h"
#include "graph/grid_graph.h"
#include "graph/laplacian.h"
#include "graph/point_graph.h"
#include "space/point_set.h"
#include "util/random.h"
#include "workload/generators.h"

namespace spectral {
namespace {

std::vector<int64_t> Ranks(const LinearOrder& order) {
  std::vector<int64_t> ranks(static_cast<size_t>(order.size()));
  for (int64_t i = 0; i < order.size(); ++i) {
    ranks[static_cast<size_t>(i)] = order.RankOf(i);
  }
  return ranks;
}

PointSet LexSorted(const PointSet& in) {
  std::vector<std::vector<Coord>> rows;
  rows.reserve(static_cast<size_t>(in.size()));
  for (int64_t i = 0; i < in.size(); ++i) {
    rows.emplace_back(in[i].begin(), in[i].end());
  }
  std::sort(rows.begin(), rows.end());
  PointSet out(in.dims());
  for (const auto& row : rows) out.Add(row);
  return out;
}

// The bench workloads of bench_ordering_engines (grid64x64 is the
// degenerate square; the other two have a dominant direction).
struct Workload {
  std::string name;
  PointSet points{2};
  SpectralLpmOptions spectral;
};

std::vector<Workload> BenchWorkloads() {
  std::vector<Workload> workloads;
  {
    Workload w;
    w.name = "grid64x64";
    w.points = PointSet::FullGrid(GridSpec::Uniform(2, 64));
    w.spectral.fiedler.num_pairs = 3;
    workloads.push_back(std::move(w));
  }
  {
    Workload w;
    w.name = "grid128x32";
    w.points = PointSet::FullGrid(GridSpec({128, 32}));
    w.spectral.fiedler.num_pairs = 3;
    workloads.push_back(std::move(w));
  }
  {
    Workload w;
    w.name = "kernelblob300x30";
    Rng rng(12345);
    w.points = LexSorted(SampleConnectedBlob(GridSpec({300, 30}), 5000, rng));
    w.spectral.fiedler.num_pairs = 3;
    w.spectral.graph.radius = 2;
    w.spectral.graph.kernel = WeightKernel::kGaussian;
    w.spectral.graph.gaussian_sigma = 1.5;
    workloads.push_back(std::move(w));
  }
  return workloads;
}

TEST(WarmStart, WarmAndColdOrdersAreIdenticalOnBenchWorkloads) {
  MappingService service;
  for (const Workload& w : BenchWorkloads()) {
    OrderingRequest cold = OrderingRequest::ForPoints(w.points);
    cold.options.spectral = w.spectral;
    cold.options.spectral.warm_start_threshold = 0;  // cold block solve
    OrderingRequest warm = OrderingRequest::ForPoints(w.points);
    warm.options.spectral = w.spectral;  // default: warm-started multilevel

    auto cold_result = service.Order(cold);
    auto warm_result = service.Order(warm);
    ASSERT_TRUE(cold_result.ok()) << w.name << ": " << cold_result.status();
    ASSERT_TRUE(warm_result.ok()) << w.name << ": " << warm_result.status();
    EXPECT_EQ(cold_result->method, "block-lanczos") << w.name;
    EXPECT_NE(warm_result->method.find("block-lanczos+warm"),
              std::string::npos)
        << w.name << ": " << warm_result->method;
    EXPECT_EQ(Ranks(cold_result->order), Ranks(warm_result->order))
        << w.name << ": warm-started and cold orders diverged";
    EXPECT_NEAR(cold_result->lambda2, warm_result->lambda2,
                1e-9 * std::max(1.0, cold_result->lambda2))
        << w.name;
  }
}

TEST(WarmStart, GarbageWarmStartConvergesToTheSameFiedlerVector) {
  // Feed ComputeFiedler a deliberately useless warm start (the deflated
  // ones direction, an alternating high-frequency vector, and a zero
  // vector): the solve must fall back cleanly and produce the same
  // canonicalized vector as the cold solve.
  const GridSpec grid({48, 24});
  const SparseMatrix lap = BuildLaplacian(BuildGridGraph(grid));
  const auto axes = PointSet::FullGrid(grid).CenteredAxisFunctions();
  const int64_t n = lap.rows();

  FiedlerOptions options;
  options.method = FiedlerMethod::kBlockLanczos;
  options.num_pairs = 3;

  VectorBlock garbage;
  garbage.emplace_back(static_cast<size_t>(n), 1.0);  // deflated kernel
  garbage.emplace_back(static_cast<size_t>(n), 0.0);  // zero column
  Vector alternating(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    alternating[static_cast<size_t>(i)] = (i % 2 == 0) ? 1.0 : -1.0;
  }
  garbage.push_back(std::move(alternating));

  auto cold = ComputeFiedler(lap, options, axes);
  auto warm = ComputeFiedler(lap, options, axes, &garbage);
  ASSERT_TRUE(cold.ok()) << cold.status();
  ASSERT_TRUE(warm.ok()) << warm.status();
  EXPECT_NEAR(warm->lambda2, cold->lambda2, 1e-10);
  ASSERT_EQ(warm->fiedler.size(), cold->fiedler.size());
  for (size_t i = 0; i < warm->fiedler.size(); ++i) {
    EXPECT_NEAR(warm->fiedler[i], cold->fiedler[i], 1e-7);
  }
}

TEST(WarmStart, BlockIsKernelOrthogonalAndAccurate) {
  const Graph g = BuildGridGraph(GridSpec({40, 20}));
  const std::vector<WarmStartLevel> levels = BuildWarmStartLevels(g);
  ASSERT_GT(levels.size(), 1u);
  FiedlerOptions options;
  options.num_pairs = 3;
  auto warm = MultilevelFiedlerWarmStart(levels, options);
  ASSERT_TRUE(warm.ok()) << warm.status();
  ASSERT_EQ(warm->block.size(), 3u);
  EXPECT_EQ(warm->levels, static_cast<int>(levels.size()));
  EXPECT_GT(warm->matvecs, 0);

  const int64_t n = g.num_vertices();
  Vector lv(static_cast<size_t>(n));
  for (const Vector& column : warm->block) {
    EXPECT_NEAR(Norm2(column), 1.0, 1e-10);
    EXPECT_NEAR(Sum(column), 0.0, 1e-8);  // orthogonal to the kernel
    // Near-eigenvector: the Rayleigh residual must be far below the
    // spectral radius (it only needs to be a good start, not converged).
    levels[0].laplacian.MatVec(column, lv);
    const double rho = Dot(column, lv);
    Axpy(-rho, column, lv);
    EXPECT_LT(Norm2(lv), 0.05) << "smoothed column is not a usable start";
  }
}

TEST(WarmStart, DetectsDisconnectionThroughTheHierarchy) {
  // Two disjoint 12x12 islands: coarsening preserves components, so the
  // coarsest dense solve must report the second zero eigenvalue.
  std::vector<GraphEdge> edges;
  const Graph island = BuildGridGraph(GridSpec({12, 12}));
  const int64_t m = island.num_vertices();
  island.ForEachEdge([&](int64_t u, int64_t v, double w) {
    edges.push_back({u, v, w});
    edges.push_back({u + m, v + m, w});
  });
  const Graph two = Graph::FromEdges(2 * m, edges);
  auto warm = MultilevelFiedlerWarmStart(BuildWarmStartLevels(two), {});
  ASSERT_FALSE(warm.ok());
  EXPECT_EQ(warm.status().code(), StatusCode::kFailedPrecondition);
}

TEST(WarmStart, StalledCoarseningFallsBackToColdCoarsestSolve) {
  // A 600-vertex star stalls heavy-edge matching immediately (only the hub
  // can match), so the hierarchy has zero steps and the "coarsest" level
  // is the 600-vertex input — above the dense limit (512), which routes
  // into the cold loose block-solve fallback. That path must have a real
  // restart budget of its own (regression: it used to CHECK-fail on a
  // zero restart budget).
  const int64_t n = 600;
  std::vector<GraphEdge> edges;
  for (int64_t leaf = 1; leaf < n; ++leaf) edges.push_back({0, leaf, 1.0});
  const Graph star = Graph::FromEdges(n, edges);
  EXPECT_TRUE(BuildCoarseningHierarchy(star, {}).steps.empty());
  const std::vector<WarmStartLevel> levels = BuildWarmStartLevels(star);
  ASSERT_EQ(levels.size(), 1u);
  FiedlerOptions options;
  options.num_pairs = 2;
  auto warm = MultilevelFiedlerWarmStart(levels, options);
  ASSERT_TRUE(warm.ok()) << warm.status();
  ASSERT_FALSE(warm->block.empty());
  // Star lambda2 = 1: the fallback block must be a usable approximation.
  Vector lv(static_cast<size_t>(n));
  levels[0].laplacian.MatVec(warm->block[0], lv);
  const double rho = Dot(warm->block[0], lv);
  EXPECT_NEAR(rho, 1.0, 0.05);
}

TEST(WarmStart, HierarchySharedWithMultilevelEngineStopsAtCoarsestSize) {
  const Graph g = BuildGridGraph(GridSpec({32, 32}));
  CoarseningOptions options;
  options.coarsest_size = 64;
  const CoarseningHierarchy hierarchy = BuildCoarseningHierarchy(g, options);
  ASSERT_FALSE(hierarchy.steps.empty());
  EXPECT_LE(hierarchy.coarsest_size(g.num_vertices()), 64);
  // Each step at least halves-ish the level (heavy-edge matching bound).
  int64_t previous = g.num_vertices();
  for (const Coarsening& step : hierarchy.steps) {
    EXPECT_GE(step.num_coarse, (previous + 1) / 2);
    EXPECT_LT(step.num_coarse, previous);
    previous = step.num_coarse;
  }
}

}  // namespace
}  // namespace spectral
