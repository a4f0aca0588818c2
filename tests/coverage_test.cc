// Gap-coverage tests: options and paths not exercised by the module suites
// (Lanczos oracle warm starts, kernel weights, shape
// enumeration, per-query callbacks).

#include <cmath>
#include <numbers>

#include <gtest/gtest.h>

#include "core/ordering_engine.h"
#include "core/ordering_request.h"
#include "eigen/operator.h"
#include "graph/grid_graph.h"
#include "graph/laplacian.h"
#include "graph/point_graph.h"
#include "query/range_query.h"
#include "reference/lanczos.h"
#include "space/point_set.h"

namespace spectral {
namespace {

constexpr double kPi = std::numbers::pi;

SparseMatrix GridLap(std::vector<Coord> sides) {
  return BuildLaplacian(BuildGridGraph(GridSpec(std::move(sides))));
}

TEST(LanczosWarmStart, ExactEigenvectorConvergesImmediately) {
  // Feed the analytic Fiedler vector of a path as the start: Lanczos must
  // converge in a single (cheap) cycle.
  const int n = 60;
  const SparseMatrix lap = GridLap({n});
  const double shift = lap.GershgorinBound() + 1e-9;
  const SparseOperator inner(&lap);
  const ShiftNegateOperator op(&inner, shift);
  std::vector<Vector> deflate = {
      Vector(static_cast<size_t>(n), 1.0 / std::sqrt(static_cast<double>(n)))};

  LanczosOptions warm;
  warm.start.resize(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    warm.start[static_cast<size_t>(i)] = std::cos((i + 0.5) * kPi / n);
  }
  auto result = LargestEigenpair(op, deflate, warm);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->converged);
  EXPECT_EQ(result->restarts, 1);
  EXPECT_NEAR(shift - result->eigenvalue, 2.0 - 2.0 * std::cos(kPi / n),
              1e-8);
}

TEST(LanczosWarmStart, DegenerateStartFallsBackToRandom) {
  const int n = 20;
  const SparseMatrix lap = GridLap({n});
  const SparseOperator inner(&lap);
  const ShiftNegateOperator op(&inner, lap.GershgorinBound() + 1e-9);
  const Vector ones(static_cast<size_t>(n),
                    1.0 / std::sqrt(static_cast<double>(n)));
  std::vector<Vector> deflate = {ones};
  LanczosOptions options;
  options.start = ones;  // entirely inside the deflation span
  auto result = LargestEigenpair(op, deflate, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->converged);
}

TEST(PointGraphKernels, GaussianWeights) {
  PointSet points(1);
  points.Add(std::vector<Coord>{0});
  points.Add(std::vector<Coord>{1});
  points.Add(std::vector<Coord>{3});
  PointGraphOptions options;
  options.radius = 2;
  options.kernel = WeightKernel::kGaussian;
  options.gaussian_sigma = 2.0;
  auto g = BuildPointGraph(points, options);
  ASSERT_TRUE(g.ok());
  // Edge (0,1) at d=1: w = exp(-0.25); edge (1,2) at d=2: w = exp(-1).
  EXPECT_NEAR(g->WeightedDegree(0), std::exp(-0.25), 1e-12);
  EXPECT_NEAR(g->WeightedDegree(2), std::exp(-1.0), 1e-12);
}

TEST(PointGraphKernels, KernelsOrderWeightsSensibly) {
  PointSet points(1);
  points.Add(std::vector<Coord>{0});
  points.Add(std::vector<Coord>{2});
  PointGraphOptions uniform;
  uniform.radius = 2;
  PointGraphOptions inv = uniform;
  inv.kernel = WeightKernel::kInverseDistance;
  PointGraphOptions gauss = uniform;
  gauss.kernel = WeightKernel::kGaussian;
  gauss.gaussian_sigma = 1.0;
  auto gu = BuildPointGraph(points, uniform);
  auto gi = BuildPointGraph(points, inv);
  auto gg = BuildPointGraph(points, gauss);
  ASSERT_TRUE(gu.ok());
  ASSERT_TRUE(gi.ok());
  ASSERT_TRUE(gg.ok());
  EXPECT_GT(gu->WeightedDegree(0), gi->WeightedDegree(0));
  EXPECT_GT(gi->WeightedDegree(0), gg->WeightedDegree(0));
}

TEST(ShapesForVolume, WithinToleranceWhenAchievable) {
  const GridSpec grid = GridSpec::Uniform(2, 10);  // 100 cells
  const auto shapes = ShapesForVolume(grid, 0.25, 0.1);
  ASSERT_FALSE(shapes.empty());
  for (const auto& s : shapes) {
    EXPECT_GE(s.Volume(), 22);
    EXPECT_LE(s.Volume(), 28);
  }
}

TEST(ShapesForVolume, FallsBackToClosest) {
  // 1-d grid of 7 cells, target 40% = 2.8 cells with zero tolerance: the
  // closest integer extents are {3}.
  const GridSpec grid({7});
  const auto shapes = ShapesForVolume(grid, 0.4, 0.0);
  ASSERT_EQ(shapes.size(), 1u);
  EXPECT_EQ(shapes[0].Volume(), 3);
}

TEST(ShapesForVolume, IncludesSlabShapes) {
  const GridSpec grid = GridSpec::Uniform(2, 8);
  const auto shapes = ShapesForVolume(grid, 0.125, 0.05);  // 8 cells
  bool has_slab = false;
  for (const auto& s : shapes) {
    if (s.extents[0] == 8 || s.extents[1] == 8) has_slab = true;
  }
  EXPECT_TRUE(has_slab);  // the 8x1 / 1x8 shapes are part of the population
}

TEST(ForEachRangeQuery, VisitsEveryPlacementWithCorrectVolume) {
  const GridSpec grid({5, 4});
  const LinearOrder order = LinearOrder::Identity(20);
  RangeQueryShape shape;
  shape.extents = {2, 3};
  int64_t count = 0;
  ForEachRangeQuery(grid, order, shape,
                    [&](int64_t min_rank, int64_t max_rank, int64_t volume) {
                      EXPECT_EQ(volume, 6);
                      EXPECT_GE(max_rank - min_rank, volume - 1);
                      ++count;
                    });
  EXPECT_EQ(count, (5 - 2 + 1) * (4 - 3 + 1));
}

TEST(ForEachRangeQuery, AgreesWithEvaluate) {
  const GridSpec grid({6, 6});
  const PointSet points = PointSet::FullGrid(grid);
  auto engine = MakeOrderingEngine("spectral");
  ASSERT_TRUE(engine.ok());
  auto order = (*engine)->Order(OrderingRequest::ForPoints(points));
  ASSERT_TRUE(order.ok());
  RangeQueryShape shape;
  shape.extents = {3, 2};
  int64_t max_spread = 0;
  ForEachRangeQuery(grid, order->order, shape,
                    [&](int64_t min_rank, int64_t max_rank, int64_t) {
                      max_spread = std::max(max_spread, max_rank - min_rank);
                    });
  RangeQueryOptions options;
  options.include_axis_permutations = false;
  const auto stats =
      EvaluateRangeQueries(grid, order->order, shape, options);
  EXPECT_EQ(stats.max_spread, max_spread);
}

TEST(MapperOptions, QuantizationDisabledStillValid) {
  const PointSet points = PointSet::FullGrid(GridSpec({6, 4}));
  OrderingRequest request = OrderingRequest::ForPoints(points);
  request.options.spectral.rank_quantum_rel = 0.0;  // raw double ordering
  auto engine = MakeOrderingEngine("spectral");
  ASSERT_TRUE(engine.ok());
  auto result = (*engine)->Order(request);
  ASSERT_TRUE(result.ok());
  std::vector<bool> seen(24, false);
  for (int64_t i = 0; i < 24; ++i) {
    seen[static_cast<size_t>(result->order.RankOf(i))] = true;
  }
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(MapperOptions, CanonicalizationOffIsStillOptimal) {
  const GridSpec grid({5, 5});
  const PointSet points = PointSet::FullGrid(grid);
  OrderingRequest request = OrderingRequest::ForPoints(points);
  request.options.spectral.canonicalize_with_axes = false;
  auto engine = MakeOrderingEngine("spectral");
  ASSERT_TRUE(engine.ok());
  auto result = (*engine)->Order(request);
  ASSERT_TRUE(result.ok());
  const Graph g = BuildGridGraph(grid);
  EXPECT_NEAR(DirichletEnergy(g, result->embedding), result->lambda2, 1e-7);
}

}  // namespace
}  // namespace spectral
