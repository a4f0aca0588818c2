// OrderingEngine registry tests: round-trip construction of every name,
// request-based adapter-vs-direct equivalence against the underlying
// producers, input-kind handling (points / graph / affinity), request
// addressing, and byte-identical output across solver thread counts.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/curve_order.h"
#include "core/ordering_engine.h"
#include "core/ordering_request.h"
#include "core/recursive_bisection.h"
#include "core/spectral_lpm.h"
#include "space/point_set.h"

namespace spectral {
namespace {

std::vector<int64_t> Ranks(const LinearOrder& order) {
  std::vector<int64_t> ranks(static_cast<size_t>(order.size()));
  for (int64_t i = 0; i < order.size(); ++i) {
    ranks[static_cast<size_t>(i)] = order.RankOf(i);
  }
  return ranks;
}

// A 5-point strip, a 3-point strip, a 2-point strip, and a singleton — four
// components of distinct sizes, far enough apart to stay disconnected.
PointSet FourComponentPoints() {
  PointSet points(2);
  for (Coord i = 0; i < 5; ++i) points.Add(std::vector<Coord>{0, i});
  for (Coord i = 0; i < 3; ++i) points.Add(std::vector<Coord>{100, i});
  for (Coord i = 0; i < 2; ++i) points.Add(std::vector<Coord>{200, i});
  points.Add(std::vector<Coord>{300, 0});
  return points;
}

TEST(OrderingEngineRegistry, EveryNameConstructsAndOrders) {
  const PointSet points = PointSet::FullGrid(GridSpec({8, 8}));
  for (const std::string& name : AllOrderingEngineNames()) {
    auto engine = MakeOrderingEngine(name);
    ASSERT_TRUE(engine.ok()) << name << ": " << engine.status();
    EXPECT_EQ((*engine)->name(), name);
    auto result = (*engine)->Order(OrderingRequest::ForPoints(points, name));
    ASSERT_TRUE(result.ok()) << name << ": " << result.status();
    EXPECT_EQ(result->order.size(), points.size());
    EXPECT_FALSE(result->detail.empty()) << name;
    EXPECT_FALSE(result->method.empty()) << name;
  }
}

TEST(OrderingEngineRegistry, UnknownNameIsNotFound) {
  auto engine = MakeOrderingEngine("no-such-engine");
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kNotFound);
  // The error names the registry so CLI users can self-serve.
  EXPECT_NE(engine.status().message().find("spectral"), std::string::npos);
}

TEST(OrderingEngineRegistry, MisaddressedRequestIsRejected) {
  const PointSet points = PointSet::FullGrid(GridSpec({4, 4}));
  auto engine = MakeOrderingEngine("hilbert");
  ASSERT_TRUE(engine.ok());
  // The request says "spectral" but the engine is hilbert: a routing bug a
  // batch scheduler must hear about, not silently mis-serve.
  auto result = (*engine)->Order(OrderingRequest::ForPoints(points));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(OrderingEngineRegistry, InvalidRequestIsRejected) {
  auto engine = MakeOrderingEngine("spectral");
  ASSERT_TRUE(engine.ok());
  OrderingRequest empty;  // kPoints with no point set
  auto result = (*engine)->Order(empty);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(OrderingEngineRegistry, SpectralAdapterMatchesDirectMapper) {
  const PointSet points = PointSet::FullGrid(GridSpec({16, 16}));
  SpectralLpmOptions options;
  options.fiedler.num_pairs = 3;

  auto direct = SpectralMapper(options).Map(points);
  ASSERT_TRUE(direct.ok());

  OrderingRequest request = OrderingRequest::ForPoints(points);
  request.options.spectral = options;
  auto engine = MakeOrderingEngine("spectral");
  ASSERT_TRUE(engine.ok());
  auto via_engine = (*engine)->Order(request);
  ASSERT_TRUE(via_engine.ok());

  EXPECT_EQ(Ranks(direct->order), Ranks(via_engine->order));
  EXPECT_EQ(direct->lambda2, via_engine->lambda2);
  EXPECT_EQ(direct->num_components, via_engine->num_components);
  EXPECT_EQ(direct->method_used, via_engine->method);
  EXPECT_EQ(direct->values, via_engine->embedding);
}

TEST(OrderingEngineRegistry, AffinityRequestMatchesAffinityOptions) {
  // The kPointsWithAffinity input kind and options.spectral.affinity_edges
  // are two spellings of the same mapping problem.
  const PointSet points = PointSet::FullGrid(GridSpec({6, 6}));
  const std::vector<GraphEdge> edges = {{0, 35, 5.0}};

  OrderingRequest via_options = OrderingRequest::ForPoints(points);
  via_options.options.spectral.affinity_edges = edges;
  const OrderingRequest via_input =
      OrderingRequest::ForPointsWithAffinity(points, edges);

  auto engine = MakeOrderingEngine("spectral");
  ASSERT_TRUE(engine.ok());
  auto a = (*engine)->Order(via_options);
  auto b = (*engine)->Order(via_input);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(Ranks(a->order), Ranks(b->order));
  EXPECT_EQ(a->embedding, b->embedding);
}

// One malformed affinity edge, sent to every engine that reads affinity
// edges: all of them build the request graph through BuildRequestGraph and
// must reject it with the same InvalidArgument message.
struct MalformedAffinityCase {
  GraphEdge edge;
  std::string message;
};

class MalformedAffinityEdge : public ::testing::TestWithParam<std::string> {};

TEST_P(MalformedAffinityEdge, IsRejectedWithTheSameMessage) {
  const PointSet points = PointSet::FullGrid(GridSpec({6, 6}));
  const std::vector<MalformedAffinityCase> cases = {
      {{0, 36, 1.0}, "affinity edge endpoint out of range"},
      {{-1, 3, 1.0}, "affinity edge endpoint out of range"},
      {{4, 4, 1.0}, "affinity edge endpoints must differ"},
      {{0, 35, 0.0}, "affinity edge weight must be positive"},
      {{0, 35, -2.0}, "affinity edge weight must be positive"},
  };
  auto engine = MakeOrderingEngine(GetParam());
  ASSERT_TRUE(engine.ok());
  for (const MalformedAffinityCase& c : cases) {
    OrderingRequest request =
        OrderingRequest::ForPointsWithAffinity(points, {c.edge}, GetParam());
    request.options.sharded.num_shards = 2;
    auto result = (*engine)->Order(request);
    ASSERT_FALSE(result.ok()) << GetParam() << ": " << c.message;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(result.status().message(), c.message) << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(SpectralFamily, MalformedAffinityEdge,
                         ::testing::Values("spectral", "bisection",
                                           "sharded-spectral"));

TEST(OrderingEngineRegistry, CurveAdaptersMatchOrderByCurve) {
  const PointSet points = PointSet::FullGrid(GridSpec({16, 16}));
  for (CurveKind kind : AllCurveKinds()) {
    auto direct = OrderByCurve(points, kind);
    ASSERT_TRUE(direct.ok()) << CurveKindName(kind);

    auto engine = MakeOrderingEngine(CurveKindName(kind));
    ASSERT_TRUE(engine.ok());
    auto via_engine = (*engine)->Order(
        OrderingRequest::ForPoints(points, CurveKindName(kind)));
    ASSERT_TRUE(via_engine.ok()) << CurveKindName(kind);

    EXPECT_EQ(Ranks(*direct), Ranks(via_engine->order)) << CurveKindName(kind);
    // Power-of-two families fit 16 exactly; peano pads to 27.
    EXPECT_EQ(via_engine->grid_side, kind == CurveKind::kPeano ? 27 : 16)
        << CurveKindName(kind);
    EXPECT_EQ(via_engine->grid_cells,
              static_cast<int64_t>(via_engine->grid_side) *
                  via_engine->grid_side)
        << CurveKindName(kind);
  }
}

TEST(OrderingEngineRegistry, CurvePaddingDiagnostics) {
  // A 5x5 extent forces power-of-two and power-of-three padding.
  const PointSet points = PointSet::FullGrid(GridSpec({5, 5}));
  auto hilbert = MakeOrderingEngine("hilbert");
  ASSERT_TRUE(hilbert.ok());
  auto result =
      (*hilbert)->Order(OrderingRequest::ForPoints(points, "hilbert"));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->grid_side, 8);
  EXPECT_EQ(result->grid_cells, 64);

  auto peano = MakeOrderingEngine("peano");
  ASSERT_TRUE(peano.ok());
  auto peano_result =
      (*peano)->Order(OrderingRequest::ForPoints(points, "peano"));
  ASSERT_TRUE(peano_result.ok());
  EXPECT_EQ(peano_result->grid_side, 9);
}

TEST(OrderingEngineRegistry, BisectionAdapterMatchesDirect) {
  const PointSet points = PointSet::FullGrid(GridSpec({16, 16}));
  RecursiveBisectionOptions options;
  options.leaf_size = 8;

  auto direct = RecursiveSpectralOrder(points, options);
  ASSERT_TRUE(direct.ok());

  OrderingRequest request = OrderingRequest::ForPoints(points, "bisection");
  request.options.bisection.leaf_size = 8;
  auto engine = MakeOrderingEngine("bisection");
  ASSERT_TRUE(engine.ok());
  auto via_engine = (*engine)->Order(request);
  ASSERT_TRUE(via_engine.ok());

  EXPECT_EQ(Ranks(direct->order), Ranks(via_engine->order));
  EXPECT_EQ(direct->num_solves, via_engine->num_solves);
  EXPECT_EQ(direct->depth, via_engine->depth);
}

TEST(OrderingEngineRegistry, GraphInputCapability) {
  std::vector<GraphEdge> edges = {{0, 1, 1.0}, {1, 2, 1.0}, {2, 3, 1.0}};
  const Graph graph = Graph::FromEdges(4, edges);

  for (const std::string& name : AllOrderingEngineNames()) {
    auto engine = MakeOrderingEngine(name);
    ASSERT_TRUE(engine.ok()) << name;
    const bool is_spectral_family = name == "spectral" ||
                                    name == "spectral-multilevel" ||
                                    name == "sharded-spectral" ||
                                    name == "bisection";
    EXPECT_EQ((*engine)->supports_graph_input(), is_spectral_family) << name;
    auto result = (*engine)->Order(
        OrderingRequest::ForGraph(graph, /*canonical_points=*/nullptr, name));
    if (is_spectral_family) {
      ASSERT_TRUE(result.ok()) << name << ": " << result.status();
      EXPECT_EQ(result->order.size(), 4);
    } else {
      ASSERT_FALSE(result.ok()) << name;
      EXPECT_EQ(result.status().code(), StatusCode::kUnimplemented) << name;
    }
  }
}

TEST(OrderingEngineRegistry, ParallelSolveIsByteIdenticalToSerial) {
  const PointSet points = FourComponentPoints();

  OrderingRequest serial_request = OrderingRequest::ForPoints(points);
  serial_request.options.spectral.parallelism = 1;
  auto engine = MakeOrderingEngine("spectral");
  ASSERT_TRUE(engine.ok());
  auto serial = (*engine)->Order(serial_request);
  ASSERT_TRUE(serial.ok());
  ASSERT_EQ(serial->num_components, 4);

  OrderingRequest parallel_request = OrderingRequest::ForPoints(points);
  parallel_request.options.spectral.parallelism = 8;
  auto parallel = (*engine)->Order(parallel_request);
  ASSERT_TRUE(parallel.ok());

  EXPECT_EQ(Ranks(serial->order), Ranks(parallel->order));
  // Byte-identical, not just rank-identical: the Fiedler components, the
  // diagnostics, and the solver label all match the serial run.
  EXPECT_EQ(serial->embedding, parallel->embedding);
  EXPECT_EQ(serial->lambda2, parallel->lambda2);
  EXPECT_EQ(serial->matvecs, parallel->matvecs);
  EXPECT_EQ(serial->method, parallel->method);
}

TEST(OrderingEngineRegistry, ParallelSolveOnLargeSingleComponent) {
  // Exercises the row-partitioned matvec path (grid big enough to clear
  // the SparseOperator parallel threshold) and checks it against serial.
  const PointSet points = PointSet::FullGrid(GridSpec({64, 64}));
  OrderingRequest serial_request = OrderingRequest::ForPoints(points);
  serial_request.options.spectral.parallelism = 1;
  OrderingRequest parallel_request = OrderingRequest::ForPoints(points);
  parallel_request.options.spectral.parallelism = 4;

  auto engine = MakeOrderingEngine("spectral");
  ASSERT_TRUE(engine.ok());
  auto serial = (*engine)->Order(serial_request);
  auto parallel = (*engine)->Order(parallel_request);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(Ranks(serial->order), Ranks(parallel->order));
  EXPECT_EQ(serial->embedding, parallel->embedding);
  EXPECT_EQ(serial->matvecs, parallel->matvecs);
}

TEST(OrderingEngineRegistry, MultilevelNameIsAnAliasOfSpectral) {
  // "spectral-multilevel" is the same engine under a second name: byte-for-
  // byte the same order, embedding, and diagnostics as "spectral". 32x32 =
  // 1024 vertices clears the warm-start threshold, so both run the
  // multilevel cascade.
  const PointSet points = PointSet::FullGrid(GridSpec({32, 32}));
  auto spectral = MakeOrderingEngine("spectral");
  auto alias = MakeOrderingEngine("spectral-multilevel");
  ASSERT_TRUE(spectral.ok());
  ASSERT_TRUE(alias.ok());
  EXPECT_EQ((*alias)->name(), "spectral-multilevel");
  auto expect =
      (*spectral)->Order(OrderingRequest::ForPoints(points, "spectral"));
  auto result = (*alias)->Order(
      OrderingRequest::ForPoints(points, "spectral-multilevel"));
  ASSERT_TRUE(expect.ok()) << expect.status();
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->method.rfind("multilevel", 0) == 0) << result->method;
  ASSERT_EQ(result->order.size(), points.size());
  for (int64_t i = 0; i < points.size(); ++i) {
    ASSERT_EQ(result->order.RankOf(i), expect->order.RankOf(i))
        << "alias order diverged at point " << i;
  }
  EXPECT_EQ(result->embedding, expect->embedding);
  EXPECT_EQ(result->detail, expect->detail);
}

}  // namespace
}  // namespace spectral
