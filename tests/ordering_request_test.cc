// OrderingRequest tests: structural validation and the fingerprint
// contract — equal inputs/options hash equal, every semantic field change
// (input contents, engine name, any option layer) changes the fingerprint,
// and runtime-only fields (parallelism, worker pools) are excluded so
// caches hit across differently-parallel runs.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/ordering_engine.h"
#include "core/ordering_request.h"
#include "space/point_set.h"
#include "util/thread_pool.h"

namespace spectral {
namespace {

PointSet MakePoints() { return PointSet::FullGrid(GridSpec({4, 4})); }

Graph MakeGraph() {
  const std::vector<GraphEdge> edges = {{0, 1, 1.0}, {1, 2, 2.0}};
  return Graph::FromEdges(3, edges);
}

TEST(OrderingRequestValidate, AcceptsWellFormedRequests) {
  const PointSet points = MakePoints();
  const Graph graph = MakeGraph();
  EXPECT_TRUE(OrderingRequest::ForPoints(points).Validate().ok());
  EXPECT_TRUE(OrderingRequest::ForPointsWithAffinity(points, {{0, 15, 2.0}})
                  .Validate()
                  .ok());
  EXPECT_TRUE(OrderingRequest::ForGraph(graph).Validate().ok());
}

TEST(OrderingRequestValidate, RejectsMalformedRequests) {
  const PointSet points = MakePoints();
  const Graph graph = MakeGraph();

  OrderingRequest no_engine = OrderingRequest::ForPoints(points);
  no_engine.engine.clear();
  EXPECT_FALSE(no_engine.Validate().ok());

  OrderingRequest no_payload;
  EXPECT_FALSE(no_payload.Validate().ok());

  // Affinity edges on a plain kPoints request: the caller forgot the kind.
  OrderingRequest stray_edges = OrderingRequest::ForPoints(points);
  stray_edges.affinity_edges.push_back({0, 1, 1.0});
  EXPECT_FALSE(stray_edges.Validate().ok());

  // Graph + mismatched canonicalization points.
  OrderingRequest mismatched = OrderingRequest::ForGraph(graph, &points);
  EXPECT_FALSE(mismatched.Validate().ok());
}

TEST(OrderingRequestFingerprint, EqualContentHashesEqual) {
  // Separately constructed but identical inputs and options: the
  // fingerprint must depend on content, not object identity.
  const PointSet a = MakePoints();
  const PointSet b = MakePoints();
  OrderingRequest ra = OrderingRequest::ForPoints(a);
  OrderingRequest rb = OrderingRequest::ForPoints(b);
  ra.options.spectral.fiedler.num_pairs = 4;
  rb.options.spectral.fiedler.num_pairs = 4;
  EXPECT_EQ(ra.Fingerprint(), rb.Fingerprint());
  EXPECT_EQ(ra.Fingerprint().ToHex(), rb.Fingerprint().ToHex());
  EXPECT_EQ(ra.Fingerprint().ToHex().size(), 32u);
}

TEST(OrderingRequestFingerprint, InputChangesChangeTheFingerprint) {
  const PointSet points = MakePoints();
  const Fingerprint128 base = OrderingRequest::ForPoints(points).Fingerprint();

  // Engine name.
  EXPECT_NE(OrderingRequest::ForPoints(points, "hilbert").Fingerprint(), base);

  // Point contents (one coordinate nudged).
  PointSet moved(2);
  for (int64_t i = 0; i < points.size(); ++i) moved.Add(points[i]);
  moved.Add(std::vector<Coord>{9, 9});
  EXPECT_NE(OrderingRequest::ForPoints(moved).Fingerprint(), base);

  // Input kind (same point set, affinity kind with no edges yet).
  EXPECT_NE(OrderingRequest::ForPointsWithAffinity(points, {}).Fingerprint(),
            base);

  // Affinity edge content: endpoint and weight.
  const Fingerprint128 aff =
      OrderingRequest::ForPointsWithAffinity(points, {{0, 15, 2.0}})
          .Fingerprint();
  EXPECT_NE(
      OrderingRequest::ForPointsWithAffinity(points, {{0, 14, 2.0}})
          .Fingerprint(),
      aff);
  EXPECT_NE(
      OrderingRequest::ForPointsWithAffinity(points, {{0, 15, 2.5}})
          .Fingerprint(),
      aff);

  // Graph content.
  const Graph g1 = MakeGraph();
  const std::vector<GraphEdge> reweighted = {{0, 1, 1.0}, {1, 2, 2.5}};
  const Graph g2 = Graph::FromEdges(3, reweighted);
  EXPECT_NE(OrderingRequest::ForGraph(g1).Fingerprint(),
            OrderingRequest::ForGraph(g2).Fingerprint());
}

TEST(OrderingRequestFingerprint, EverySemanticOptionLayerIsHashed) {
  const PointSet points = MakePoints();
  const OrderingRequest base_request = OrderingRequest::ForPoints(points);
  const Fingerprint128 base = base_request.Fingerprint();

  // One mutation per option layer; each must move the fingerprint.
  const auto mutated = [&](auto&& mutate) {
    OrderingRequest r = base_request;
    mutate(r.options);
    return r.Fingerprint();
  };
  EXPECT_NE(mutated([](OrderingEngineOptions& o) {
              o.spectral.graph.connectivity = GridConnectivity::kMoore;
            }),
            base);
  EXPECT_NE(mutated([](OrderingEngineOptions& o) { o.spectral.graph.radius = 2; }),
            base);
  EXPECT_NE(mutated([](OrderingEngineOptions& o) {
              o.spectral.graph.kernel = WeightKernel::kGaussian;
            }),
            base);
  EXPECT_NE(mutated([](OrderingEngineOptions& o) {
              o.spectral.canonicalize_with_axes = false;
            }),
            base);
  EXPECT_NE(mutated([](OrderingEngineOptions& o) {
              o.spectral.rank_quantum_rel = 1e-6;
            }),
            base);
  EXPECT_NE(mutated([](OrderingEngineOptions& o) {
              o.spectral.warm_start_threshold = 512;
            }),
            base);
  EXPECT_NE(mutated([](OrderingEngineOptions& o) {
              o.spectral.fiedler.seed = 123;
            }),
            base);
  EXPECT_NE(mutated([](OrderingEngineOptions& o) {
              o.spectral.fiedler.tol = 1e-6;
            }),
            base);
  EXPECT_NE(mutated([](OrderingEngineOptions& o) {
              o.spectral.multilevel.coarsen.coarsest_size = 128;
            }),
            base);
  EXPECT_NE(mutated([](OrderingEngineOptions& o) {
              o.spectral.affinity_edges.push_back({0, 15, 1.0});
            }),
            base);
}

TEST(OrderingRequestFingerprint, OnlyTheNamedEnginesOptionsParticipate) {
  // The fingerprint covers the *effective* options. Fields the named
  // engine never reads must not split the cache key space...
  const PointSet points = MakePoints();
  {
    // "spectral" ignores the bisection and shard shapes.
    const OrderingRequest base_request = OrderingRequest::ForPoints(points);
    OrderingRequest r = base_request;
    r.options.sharded.num_shards = 4;
    r.options.bisection.leaf_size = 16;
    r.options.bisection.max_depth = 8;
    EXPECT_EQ(r.Fingerprint(), base_request.Fingerprint());
  }
  {
    // Curve engines are geometry-only: no option is read at all.
    const OrderingRequest base_request =
        OrderingRequest::ForPoints(points, "hilbert");
    OrderingRequest r = base_request;
    r.options.spectral.fiedler.seed = 99;
    r.options.spectral.graph.radius = 3;
    r.options.bisection.leaf_size = 32;
    EXPECT_EQ(r.Fingerprint(), base_request.Fingerprint());
  }
  // ...while the fields the engine does read must move the fingerprint.
  {
    const OrderingRequest base_request =
        OrderingRequest::ForPoints(points, "bisection");
    const Fingerprint128 base = base_request.Fingerprint();
    OrderingRequest leaf = base_request;
    leaf.options.bisection.leaf_size = 16;
    EXPECT_NE(leaf.Fingerprint(), base);
    OrderingRequest depth = base_request;
    depth.options.bisection.max_depth = 8;
    EXPECT_NE(depth.Fingerprint(), base);
    // bisection.base is overwritten with `spectral` by the engine and so
    // never participates, even for bisection requests.
    OrderingRequest ignored_base = base_request;
    ignored_base.options.bisection.base.fiedler.num_pairs = 7;
    EXPECT_EQ(ignored_base.Fingerprint(), base);
  }
  {
    // "spectral-multilevel" is an alias of "spectral": it reads exactly the
    // spectral options.
    const OrderingRequest base_request =
        OrderingRequest::ForPoints(points, "spectral-multilevel");
    OrderingRequest warm = base_request;
    warm.options.spectral.warm_start_threshold = 1024;
    EXPECT_NE(warm.Fingerprint(), base_request.Fingerprint());
    OrderingRequest ignored = base_request;
    ignored.options.sharded.num_shards = 4;
    ignored.options.bisection.leaf_size = 16;
    EXPECT_EQ(ignored.Fingerprint(), base_request.Fingerprint());
  }
  {
    // sharded-spectral reads the spectral options plus its shard shape,
    // but not the bisection recursion fields.
    const OrderingRequest base_request =
        OrderingRequest::ForPoints(points, "sharded-spectral");
    OrderingRequest shards = base_request;
    shards.options.sharded.num_shards = 4;
    EXPECT_NE(shards.Fingerprint(), base_request.Fingerprint());
    OrderingRequest coarsen = base_request;
    coarsen.options.sharded.coarsen_target = 64;
    EXPECT_NE(coarsen.Fingerprint(), base_request.Fingerprint());
    OrderingRequest ignored = base_request;
    ignored.options.bisection.leaf_size = 16;
    EXPECT_EQ(ignored.Fingerprint(), base_request.Fingerprint());
  }
  {
    // Unknown (future) engine names conservatively hash every field.
    const OrderingRequest base_request =
        OrderingRequest::ForPoints(points, "some-future-engine");
    OrderingRequest r = base_request;
    r.options.bisection.leaf_size = 16;
    EXPECT_NE(r.Fingerprint(), base_request.Fingerprint());
    OrderingRequest s = base_request;
    s.options.sharded.num_shards = 4;
    EXPECT_NE(s.Fingerprint(), base_request.Fingerprint());
  }
}

TEST(OrderingRequestFingerprint, BisectionWarmStartChildrenIsHashed) {
  // Warm-starting the children changes the bisection result's diagnostics
  // (warm_solves, matvecs), so the two requests must not share a cache key.
  const PointSet points = PointSet::FullGrid(GridSpec({48, 40}));
  const OrderingRequest warm = OrderingRequest::ForPoints(points, "bisection");
  OrderingRequest cold = warm;
  cold.options.bisection.warm_start_children = false;
  auto engine = MakeOrderingEngine("bisection");
  ASSERT_TRUE(engine.ok());
  auto warm_result = (*engine)->Order(warm);
  auto cold_result = (*engine)->Order(cold);
  ASSERT_TRUE(warm_result.ok()) << warm_result.status();
  ASSERT_TRUE(cold_result.ok()) << cold_result.status();
  EXPECT_NE(warm_result->detail, cold_result->detail);
  EXPECT_NE(warm.Fingerprint(), cold.Fingerprint());
}

TEST(OrderingRequestFingerprint, RuntimeOnlyFieldsAreExcluded) {
  // parallelism and worker-pool pointers never change the computed order
  // (solves are byte-identical across thread counts), so they must not
  // split the cache key space.
  const PointSet points = MakePoints();
  const Fingerprint128 base = OrderingRequest::ForPoints(points).Fingerprint();

  ThreadPool pool(2);
  OrderingRequest r = OrderingRequest::ForPoints(points);
  r.options.spectral.parallelism = 8;
  r.options.spectral.pool = &pool;
  r.options.spectral.fiedler.matvec_pool = &pool;
  r.options.bisection.base.parallelism = 4;
  EXPECT_EQ(r.Fingerprint(), base);
}

TEST(OrderingRequestFingerprint, StableWithinProcessAcrossCalls) {
  const PointSet points = MakePoints();
  const OrderingRequest request = OrderingRequest::ForPoints(points);
  EXPECT_EQ(request.Fingerprint(), request.Fingerprint());
}

TEST(OrderingRequest, InputSizeFollowsThePayload) {
  const PointSet points = MakePoints();
  const Graph graph = MakeGraph();
  EXPECT_EQ(OrderingRequest::ForPoints(points).InputSize(), 16);
  EXPECT_EQ(OrderingRequest::ForGraph(graph).InputSize(), 3);
  EXPECT_EQ(OrderingRequest().InputSize(), 0);
}

}  // namespace
}  // namespace spectral
