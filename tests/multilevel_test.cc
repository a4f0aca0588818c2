// Multilevel Fiedler solver tests: coarsening invariants, eigenvalue
// agreement with the flat solver, and the end-to-end engine path.

#include <cmath>
#include <numbers>
#include <set>

#include <gtest/gtest.h>

#include "core/multilevel.h"
#include "core/ordering_engine.h"
#include "core/ordering_request.h"
#include "core/spectral_lpm.h"
#include "graph/coarsening.h"
#include "graph/grid_graph.h"
#include "graph/laplacian.h"
#include "graph/traversal.h"

namespace spectral {
namespace {

constexpr double kPi = std::numbers::pi;

// The "spectral" engine on `points` under `options`.
StatusOr<OrderingResult> Map(const PointSet& points,
                             const SpectralLpmOptions& options = {}) {
  OrderingRequest request = OrderingRequest::ForPoints(points);
  request.options.spectral = options;
  auto engine = MakeOrderingEngine("spectral");
  if (!engine.ok()) return engine.status();
  return (*engine)->Order(request);
}

TEST(Coarsening, PathContractsByHalf) {
  const Graph g = BuildGridGraph(GridSpec({16}));
  const Coarsening c = CoarsenByHeavyEdgeMatching(g);
  EXPECT_EQ(c.num_coarse, 8);  // perfect matching on an even path
  EXPECT_TRUE(IsConnected(c.coarse));
}

TEST(Coarsening, MappingIsOntoAndContiguousIds) {
  const Graph g = BuildGridGraph(GridSpec({7, 5}));
  const Coarsening c = CoarsenByHeavyEdgeMatching(g);
  std::set<int64_t> ids(c.fine_to_coarse.begin(), c.fine_to_coarse.end());
  EXPECT_EQ(static_cast<int64_t>(ids.size()), c.num_coarse);
  EXPECT_EQ(*ids.begin(), 0);
  EXPECT_EQ(*ids.rbegin(), c.num_coarse - 1);
  // Each coarse vertex contains 1 or 2 fine vertices.
  std::vector<int> sizes(static_cast<size_t>(c.num_coarse), 0);
  for (int64_t cv : c.fine_to_coarse) sizes[static_cast<size_t>(cv)] += 1;
  for (int s : sizes) {
    EXPECT_GE(s, 1);
    EXPECT_LE(s, 2);
  }
}

TEST(Coarsening, HeavyEdgesContractFirst) {
  // Two vertices joined by a heavy edge must merge.
  std::vector<GraphEdge> edges = {
      {0, 1, 10.0}, {1, 2, 1.0}, {2, 3, 1.0}, {3, 0, 1.0}};
  const Graph g = Graph::FromEdges(4, edges);
  const Coarsening c = CoarsenByHeavyEdgeMatching(g);
  EXPECT_EQ(c.fine_to_coarse[0], c.fine_to_coarse[1]);
}

TEST(Coarsening, WeightsAreConserved) {
  // Cross-cluster fine weight equals total coarse weight.
  const Graph g = BuildGridGraph(GridSpec({6, 6}));
  const Coarsening c = CoarsenByHeavyEdgeMatching(g);
  double expected = 0.0;
  g.ForEachEdge([&](int64_t u, int64_t v, double w) {
    if (c.fine_to_coarse[static_cast<size_t>(u)] !=
        c.fine_to_coarse[static_cast<size_t>(v)]) {
      expected += w;
    }
  });
  EXPECT_NEAR(c.coarse.TotalEdgeWeight(), expected, 1e-12);
}

TEST(Coarsening, ProlongVector) {
  const Graph g = BuildGridGraph(GridSpec({4}));
  const Coarsening c = CoarsenByHeavyEdgeMatching(g);
  ASSERT_EQ(c.num_coarse, 2);
  const std::vector<double> coarse = {1.0, 2.0};
  const auto fine = ProlongVector(c, coarse);
  ASSERT_EQ(fine.size(), 4u);
  for (size_t v = 0; v < 4; ++v) {
    EXPECT_EQ(fine[v], coarse[static_cast<size_t>(c.fine_to_coarse[v])]);
  }
}

TEST(Multilevel, MatchesFlatLambda2OnPath) {
  const int n = 400;
  const Graph g = BuildGridGraph(GridSpec({n}));
  auto result = ComputeFiedlerMultilevel(g);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_NEAR(result->lambda2, 2.0 - 2.0 * std::cos(kPi / n), 1e-7);
  EXPECT_GT(result->matvecs, 0);
}

TEST(Multilevel, MatchesFlatLambda2OnGrid) {
  const Graph g = BuildGridGraph(GridSpec({24, 18}));
  auto flat = ComputeFiedler(BuildLaplacian(g));
  auto multi = ComputeFiedlerMultilevel(g);
  ASSERT_TRUE(flat.ok());
  ASSERT_TRUE(multi.ok()) << multi.status();
  EXPECT_NEAR(multi->lambda2, flat->lambda2,
              1e-6 * std::max(1.0, flat->lambda2));
  // Same eigenvector up to sign (non-degenerate rectangle).
  EXPECT_NEAR(std::fabs(Dot(multi->fiedler, flat->fiedler)), 1.0, 1e-5);
}

TEST(Multilevel, ResidualIsSmall) {
  const Graph g = BuildGridGraph(GridSpec({20, 20}));
  const SparseMatrix lap = BuildLaplacian(g);
  auto result = ComputeFiedlerMultilevel(g);
  ASSERT_TRUE(result.ok());
  Vector lv(result->fiedler.size());
  lap.MatVec(result->fiedler, lv);
  Axpy(-result->lambda2, result->fiedler, lv);
  EXPECT_LT(Norm2(lv), 1e-6);
}

TEST(Multilevel, RejectsDisconnected) {
  const Graph g =
      Graph::FromEdges(4, std::vector<GraphEdge>{{0, 1, 1.0}, {2, 3, 1.0}});
  EXPECT_FALSE(ComputeFiedlerMultilevel(g).ok());
}

TEST(Multilevel, RejectsTiny) {
  EXPECT_FALSE(ComputeFiedlerMultilevel(Graph::FromEdges(1, {})).ok());
}

TEST(Multilevel, CoarsestSizeRespected) {
  const Graph g = BuildGridGraph(GridSpec({30, 30}));
  MultilevelOptions options;
  options.coarsen.coarsest_size = 500;  // almost no coarsening
  auto shallow = ComputeFiedlerMultilevel(g, options);
  ASSERT_TRUE(shallow.ok());
  options.coarsen.coarsest_size = 16;
  auto deep = ComputeFiedlerMultilevel(g, options);
  ASSERT_TRUE(deep.ok());
  EXPECT_NEAR(shallow->lambda2, deep->lambda2, 1e-6);
}

TEST(Multilevel, EngineIntegrationMatchesFlatOrder) {
  // Rectangle (non-degenerate): multilevel and flat must give the same
  // final order thanks to rank quantization.
  const PointSet points = PointSet::FullGrid(GridSpec({20, 11}));
  auto flat = Map(points);
  SpectralLpmOptions ml;
  ml.warm_start_threshold = 50;
  auto multi = Map(points, ml);
  ASSERT_TRUE(flat.ok());
  ASSERT_TRUE(multi.ok());
  EXPECT_TRUE(multi->method.rfind("multilevel", 0) == 0)
      << multi->method;
  // Orders agree up to a global reversal (the eigenvector sign of the
  // multilevel path is inherited from the coarsest solve).
  int64_t agree = 0;
  int64_t agree_reversed = 0;
  const int64_t n = points.size();
  for (int64_t i = 0; i < n; ++i) {
    if (multi->order.RankOf(i) == flat->order.RankOf(i)) ++agree;
    if (multi->order.RankOf(i) == n - 1 - flat->order.RankOf(i)) {
      ++agree_reversed;
    }
  }
  EXPECT_TRUE(agree == n || agree_reversed == n)
      << "agree=" << agree << " reversed=" << agree_reversed;
}

TEST(Multilevel, SquareGridOrderMatchesFlatSolve) {
  // Regression pin for the old bench_ordering_engines grid64x64 row, where
  // spectral-multilevel sat at spearman_vs_spectral == -0.706721 — byte-
  // equal to the sweep engine's value. Diagnosis: lambda2 of a square grid
  // is degenerate (the x- and y-modes tie), the old V-cycle tracked a
  // single eigenpair with no axis canonicalization, so it silently
  // returned an axis-aligned member of the eigenspace; sorting a pure
  // axis mode (constant along the other axis, ties broken by index) IS the
  // sweep order up to orientation — the V-cycle degenerated to a sweep.
  // The block warm-start cascade carries the whole num_pairs eigenspace to
  // the finest level and canonicalizes with the axes there, so the
  // multilevel path now produces the *identical* order to a flat (cold)
  // solve of the same grid.
  const PointSet points = PointSet::FullGrid(GridSpec({64, 64}));
  SpectralLpmOptions flat_options;
  flat_options.fiedler.num_pairs = 3;
  flat_options.warm_start_threshold = 0;  // cold flat block solve
  SpectralLpmOptions ml_options;
  ml_options.fiedler.num_pairs = 3;
  ml_options.warm_start_threshold = 50;
  auto flat = Map(points, flat_options);
  auto multi = Map(points, ml_options);
  ASSERT_TRUE(flat.ok());
  ASSERT_TRUE(multi.ok());
  EXPECT_EQ(flat->method, "block-lanczos");
  EXPECT_TRUE(multi->method.rfind("multilevel", 0) == 0)
      << multi->method;
  for (int64_t i = 0; i < points.size(); ++i) {
    ASSERT_EQ(multi->order.RankOf(i), flat->order.RankOf(i))
        << "multilevel order diverged from flat at point " << i;
  }
}

TEST(Multilevel, LargeGridSanity) {
  // 64x64 = 4096 vertices: multilevel converges and the eigenvalue matches
  // the closed form min(2 - 2cos(pi/64)) of the grid product spectrum.
  const Graph g = BuildGridGraph(GridSpec({64, 64}));
  auto result = ComputeFiedlerMultilevel(g);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_NEAR(result->lambda2, 2.0 - 2.0 * std::cos(kPi / 64), 1e-6);
}

}  // namespace
}  // namespace spectral
