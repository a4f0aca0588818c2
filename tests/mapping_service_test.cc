// MappingService tests — the facade's determinism and caching contract:
// OrderBatch results are byte-identical to per-request serial engine calls
// (cache on or off, any parallelism), a warm-cache batch performs zero
// additional eigensolves (the matvec counter is unchanged), duplicates
// within a batch are deduplicated, and the LRU evicts with counters.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/mapping_service.h"
#include "core/ordering_engine.h"
#include "core/ordering_request.h"
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

// Drops the service's " | cache=..." detail suffix; everything else in the
// result must match the engine's output byte for byte.
std::string StripCacheTag(const std::string& detail) {
  const size_t pos = detail.rfind(" | cache=");
  return pos == std::string::npos ? detail : detail.substr(0, pos);
}

// Full-payload equality between a service result and a direct engine
// reference: order, embedding, and every diagnostic.
void ExpectSameResult(const OrderingResult& service_result,
                      const OrderingResult& reference) {
  EXPECT_EQ(Ranks(service_result.order), Ranks(reference.order));
  EXPECT_EQ(service_result.embedding, reference.embedding);
  EXPECT_EQ(service_result.lambda2, reference.lambda2);
  EXPECT_EQ(service_result.matvecs, reference.matvecs);
  EXPECT_EQ(service_result.num_components, reference.num_components);
  EXPECT_EQ(service_result.method, reference.method);
  EXPECT_EQ(service_result.num_solves, reference.num_solves);
  EXPECT_EQ(service_result.depth, reference.depth);
  EXPECT_EQ(service_result.grid_side, reference.grid_side);
  EXPECT_EQ(service_result.grid_cells, reference.grid_cells);
  EXPECT_EQ(StripCacheTag(service_result.detail), reference.detail);
}

// A heterogeneous batch: several engines, a disconnected input, an option
// variant, and an affinity request.
std::vector<OrderingRequest> MixedRequests(const PointSet& grid_points,
                                           const PointSet& islands) {
  std::vector<OrderingRequest> requests;
  requests.push_back(OrderingRequest::ForPoints(grid_points, "spectral"));
  requests.push_back(OrderingRequest::ForPoints(grid_points, "hilbert"));
  requests.push_back(OrderingRequest::ForPoints(islands, "spectral"));
  requests.push_back(OrderingRequest::ForPoints(grid_points, "bisection"));
  OrderingRequest moore = OrderingRequest::ForPoints(grid_points, "spectral");
  moore.options.spectral.graph.connectivity = GridConnectivity::kMoore;
  requests.push_back(std::move(moore));
  requests.push_back(OrderingRequest::ForPointsWithAffinity(
      grid_points, {{0, 63, 4.0}}, "spectral"));
  requests.push_back(OrderingRequest::ForPoints(grid_points, "sweep"));
  return requests;
}

// Threads of this process, as the kernel lists them.
int64_t ThreadCount() {
  int64_t count = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++count;
  }
  return count;
}

PointSet Islands() {
  PointSet points(2);
  for (Coord i = 0; i < 6; ++i) points.Add(std::vector<Coord>{0, i});
  for (Coord i = 0; i < 4; ++i) points.Add(std::vector<Coord>{500, i});
  for (Coord i = 0; i < 3; ++i) points.Add(std::vector<Coord>{900, i});
  return points;
}

class MappingServiceBatchTest : public ::testing::TestWithParam<int> {};

TEST_P(MappingServiceBatchTest, BatchMatchesSerialEngineCalls) {
  // The acceptance contract: OrderBatch == per-request serial Order calls,
  // byte for byte, with the cache on or off and at any parallelism.
  const PointSet grid_points = PointSet::FullGrid(GridSpec({8, 8}));
  const PointSet islands = Islands();
  const std::vector<OrderingRequest> requests =
      MixedRequests(grid_points, islands);

  // Reference: each request against a fresh engine, no service involved.
  std::vector<OrderingResult> reference;
  for (const OrderingRequest& request : requests) {
    auto engine = MakeOrderingEngine(request.engine);
    ASSERT_TRUE(engine.ok());
    auto result = (*engine)->Order(request);
    ASSERT_TRUE(result.ok()) << result.status();
    reference.push_back(*result);
  }

  for (const size_t cache_capacity : {size_t{0}, size_t{64}}) {
    MappingServiceOptions options;
    options.parallelism = GetParam();
    options.cache_capacity = cache_capacity;
    MappingService service(options);
    auto results = service.OrderBatch(requests);
    ASSERT_EQ(results.size(), requests.size());
    for (size_t i = 0; i < results.size(); ++i) {
      ASSERT_TRUE(results[i].ok())
          << "parallelism=" << GetParam() << " cache=" << cache_capacity
          << " slot " << i << ": " << results[i].status();
      ExpectSameResult(*results[i], reference[i]);
    }

    // A second, cached pass returns the same bytes again.
    auto warm = service.OrderBatch(requests);
    for (size_t i = 0; i < warm.size(); ++i) {
      ASSERT_TRUE(warm[i].ok());
      ExpectSameResult(*warm[i], reference[i]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Parallelism, MappingServiceBatchTest,
                         ::testing::Values(1, 2, 8));

TEST(MappingService, WarmCacheBatchPerformsZeroAdditionalEigensolves) {
  // 16x16 = 256 vertices clears the dense_threshold, so the spectral
  // requests go through Lanczos and the matvec counter is non-trivial.
  const PointSet grid_points = PointSet::FullGrid(GridSpec({16, 16}));
  const PointSet islands = Islands();
  const std::vector<OrderingRequest> requests =
      MixedRequests(grid_points, islands);

  MappingService service;
  auto cold = service.OrderBatch(requests);
  for (const auto& r : cold) ASSERT_TRUE(r.ok());
  const MappingServiceStats after_cold = service.stats();
  EXPECT_GT(after_cold.solver_matvecs, 0);
  EXPECT_EQ(after_cold.solves, static_cast<int64_t>(requests.size()));

  auto warm = service.OrderBatch(requests);
  for (const auto& r : warm) {
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->served_from, ServeKind::kHit);
  }
  const MappingServiceStats after_warm = service.stats();
  // Zero additional engine work: matvec and solve counters are unchanged.
  EXPECT_EQ(after_warm.solver_matvecs, after_cold.solver_matvecs);
  EXPECT_EQ(after_warm.solves, after_cold.solves);
  EXPECT_EQ(after_warm.cache_hits,
            after_cold.cache_hits + static_cast<int64_t>(requests.size()));
  EXPECT_EQ(after_warm.cache_misses, after_cold.cache_misses);
}

TEST(MappingService, DuplicatesWithinABatchSolveOnce) {
  const PointSet points = PointSet::FullGrid(GridSpec({8, 8}));
  const OrderingRequest request = OrderingRequest::ForPoints(points);
  const std::vector<OrderingRequest> batch = {request, request, request};

  MappingService service;
  auto results = service.OrderBatch(batch);
  ASSERT_EQ(results.size(), 3u);
  for (const auto& r : results) ASSERT_TRUE(r.ok());

  const MappingServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, 3);
  EXPECT_EQ(stats.solves, 1);
  EXPECT_EQ(stats.cache_misses, 1);
  EXPECT_EQ(stats.cache_hits, 2);

  // The annotation mirrors a serial replay: first occurrence missed, the
  // repeats hit; the payloads are identical bytes.
  EXPECT_EQ(results[0]->served_from, ServeKind::kMiss);
  EXPECT_EQ(results[1]->served_from, ServeKind::kHit);
  EXPECT_EQ(results[2]->served_from, ServeKind::kHit);
  EXPECT_EQ(Ranks(results[0]->order), Ranks(results[1]->order));
  EXPECT_EQ(results[0]->embedding, results[2]->embedding);
}

TEST(MappingService, SpectralAliasSharesTheCacheEntry) {
  // "spectral-multilevel" is an alias of "spectral" with byte-identical
  // results, so both names share one fingerprint and one solve.
  const PointSet points = PointSet::FullGrid(GridSpec({16, 16}));
  MappingService service;
  auto first = service.Order(OrderingRequest::ForPoints(points, "spectral"));
  auto second = service.Order(
      OrderingRequest::ForPoints(points, "spectral-multilevel"));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(service.stats().solves, 1);
  EXPECT_EQ(first->served_from, ServeKind::kMiss);
  EXPECT_EQ(second->served_from, ServeKind::kHit);
  EXPECT_EQ(Ranks(second->order), Ranks(first->order));
  EXPECT_EQ(second->embedding, first->embedding);
  EXPECT_EQ(StripCacheTag(second->detail), StripCacheTag(first->detail));
}

TEST(MappingService, SerialServiceStartsNoThreads) {
  // parallelism = 1 means serial: a cold 64x64 order (one component far
  // above the matvec row-partition threshold) must not start a pool of
  // its own. The only new thread allowed is the watcher itself.
  MappingServiceOptions options;
  options.parallelism = 1;
  options.cache_capacity = 0;
  MappingService service(options);
  const PointSet points = PointSet::FullGrid(GridSpec({64, 64}));

  const int64_t before = ThreadCount();
  std::atomic<bool> done{false};
  std::atomic<int64_t> peak{before};
  std::thread watcher([&] {
    while (!done.load()) {
      peak.store(std::max(peak.load(), ThreadCount()));
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  auto result = service.Order(OrderingRequest::ForPoints(points));
  done.store(true);
  watcher.join();
  ASSERT_TRUE(result.ok());
  EXPECT_LE(peak.load(), before + 1);
}

TEST(MappingService, CacheTagIsRenderedFromServedFrom) {
  // detail keeps its " | cache=..." bytes (snapshots and logs read them);
  // the tag is a render of served_from, and direct engine calls carry
  // neither.
  const PointSet points = PointSet::FullGrid(GridSpec({5, 5}));
  const OrderingRequest request = OrderingRequest::ForPoints(points);
  auto engine = MakeOrderingEngine("spectral");
  ASSERT_TRUE(engine.ok());
  auto direct = (*engine)->Order(request);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(direct->served_from, ServeKind::kDirect);

  MappingService service;
  auto results =
      service.OrderBatch(std::vector<OrderingRequest>{request, request});
  ASSERT_TRUE(results[0].ok());
  ASSERT_TRUE(results[1].ok());
  EXPECT_EQ(results[0]->detail, direct->detail + " | cache=miss");
  EXPECT_EQ(results[1]->detail, direct->detail + " | cache=hit");

  MappingServiceOptions off;
  off.cache_capacity = 0;
  MappingService uncached(off);
  auto result = uncached.Order(request);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->detail, direct->detail + " | cache=off");
}

TEST(MappingService, CacheOffStillDeduplicatesButNeverHits) {
  const PointSet points = PointSet::FullGrid(GridSpec({6, 6}));
  const OrderingRequest request = OrderingRequest::ForPoints(points);

  MappingServiceOptions options;
  options.cache_capacity = 0;
  MappingService service(options);
  auto results = service.OrderBatch(
      std::vector<OrderingRequest>{request, request});
  for (const auto& r : results) {
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->served_from, ServeKind::kOff);
  }
  EXPECT_EQ(service.stats().solves, 1);

  // A later batch re-solves: nothing was retained.
  auto again = service.Order(request);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(service.stats().solves, 2);
}

TEST(MappingService, LruEvictsAndCountsEvictions) {
  const PointSet a = PointSet::FullGrid(GridSpec({5, 5}));
  const PointSet b = PointSet::FullGrid(GridSpec({6, 6}));

  MappingServiceOptions options;
  options.cache_capacity = 1;
  options.parallelism = 1;
  MappingService service(options);

  ASSERT_TRUE(service.Order(OrderingRequest::ForPoints(a)).ok());  // miss
  ASSERT_TRUE(service.Order(OrderingRequest::ForPoints(b)).ok());  // miss, evicts a
  auto re_a = service.Order(OrderingRequest::ForPoints(a));        // miss again
  ASSERT_TRUE(re_a.ok());
  EXPECT_EQ(re_a->served_from, ServeKind::kMiss);

  const MappingServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache_misses, 3);
  EXPECT_EQ(stats.cache_hits, 0);
  EXPECT_GE(stats.cache_evictions, 2);

  service.ClearCache();
  auto after_clear = service.Order(OrderingRequest::ForPoints(a));
  ASSERT_TRUE(after_clear.ok());
  EXPECT_EQ(after_clear->served_from, ServeKind::kMiss);
}

TEST(MappingService, ErrorsPropagateAndAreNeverCached) {
  const PointSet points = PointSet::FullGrid(GridSpec({4, 4}));

  MappingService service;
  // Unknown engine: NotFound, aligned with its slot; no engine ever ran,
  // so the solve/miss counters stay untouched.
  auto unknown =
      service.Order(OrderingRequest::ForPoints(points, "no-such-engine"));
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(service.stats().solves, 0);
  EXPECT_EQ(service.stats().cache_misses, 0);
  EXPECT_EQ(service.stats().failures, 1);

  // Invalid affinity endpoint: the engine rejects it; repeats re-fail (the
  // error was not cached) and the failure counter advances.
  const OrderingRequest bad = OrderingRequest::ForPointsWithAffinity(
      points, {{0, 99, 1.0}});
  const int64_t failures_before = service.stats().failures;
  ASSERT_FALSE(service.Order(bad).ok());
  ASSERT_FALSE(service.Order(bad).ok());
  const MappingServiceStats stats = service.stats();
  EXPECT_EQ(stats.failures, failures_before + 2);

  // A structurally invalid request is rejected before reaching any engine.
  OrderingRequest invalid;
  auto res = service.Order(invalid);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument);

  // Healthy traffic is unaffected by the failures around it.
  auto ok = service.Order(OrderingRequest::ForPoints(points));
  ASSERT_TRUE(ok.ok()) << ok.status();
}

TEST(MappingService, GraphRequestsFlowThroughTheFacade) {
  const std::vector<GraphEdge> edges = {
      {0, 1, 4.0}, {1, 2, 4.0}, {2, 3, 0.5}, {3, 4, 4.0}, {4, 5, 4.0}};
  const Graph graph = Graph::FromEdges(6, edges);

  MappingService service;
  auto first = service.Order(OrderingRequest::ForGraph(graph));
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->order.size(), 6);

  auto second = service.Order(OrderingRequest::ForGraph(graph));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->served_from, ServeKind::kHit);
  EXPECT_EQ(Ranks(first->order), Ranks(second->order));
  EXPECT_EQ(first->embedding, second->embedding);
}

// A spectral request starved of solver budget: one restart, no Chebyshev
// filter, a tiny Krylov basis, and no multilevel warm start, on a grid too
// large for those crumbs. The solve stays ok() — it returns its best-effort
// order — but reports converged == false, which is what drives the
// degradation ladder below.
OrderingRequest StarvedSpectralRequest(const PointSet& points) {
  OrderingRequest request = OrderingRequest::ForPoints(points, "spectral");
  FiedlerOptions& fiedler = request.options.spectral.fiedler;
  fiedler.max_restarts = 1;
  fiedler.cheb_degree_max = 0;
  fiedler.block_max_basis = 4;
  request.options.spectral.warm_start_threshold = 0;
  return request;
}

TEST(MappingServiceLadder, ConvergenceIsPinnedInResult) {
  const PointSet points = PointSet::FullGrid(GridSpec({24, 24}));

  auto engine = MakeOrderingEngine("spectral");
  ASSERT_TRUE(engine.ok());
  auto starved = (*engine)->Order(StarvedSpectralRequest(points));
  ASSERT_TRUE(starved.ok()) << starved.status();
  EXPECT_FALSE(starved->converged);

  auto healthy = (*engine)->Order(OrderingRequest::ForPoints(points));
  ASSERT_TRUE(healthy.ok()) << healthy.status();
  EXPECT_TRUE(healthy->converged);
}

TEST(MappingServiceLadder, DegradedOrdersServeFallbackAndAreNeverCached) {
  const PointSet points = PointSet::FullGrid(GridSpec({24, 24}));
  MappingServiceOptions options;
  options.parallelism = 1;
  options.cache_capacity = 64;
  // Keep the retry as starved as the first attempt, so the ladder is
  // forced all the way down to the fallback curve.
  options.retry_restart_multiplier = 1;
  MappingService service(options);

  auto result = service.Order(StarvedSpectralRequest(points));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->converged);
  EXPECT_EQ(result->degraded, "hilbert");

  // The served order is exactly the fallback engine's order.
  auto hilbert = MakeOrderingEngine("hilbert");
  ASSERT_TRUE(hilbert.ok());
  auto reference = (*hilbert)->Order(OrderingRequest::ForPoints(
      points, "hilbert"));
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(Ranks(result->order), Ranks(reference->order));

  MappingServiceStats stats = service.stats();
  EXPECT_EQ(stats.retried_solves, 1);
  EXPECT_EQ(stats.degraded_orders, 1);
  EXPECT_EQ(stats.solves, 1);
  // The invariant under test: a degraded order never reaches the cache or
  // any snapshot exported from it, so the repeat misses and re-degrades.
  EXPECT_EQ(service.CacheSize(), 0u);
  EXPECT_TRUE(service.ExportCache().empty());

  auto repeat = service.Order(StarvedSpectralRequest(points));
  ASSERT_TRUE(repeat.ok());
  stats = service.stats();
  EXPECT_EQ(stats.solves, 2);
  EXPECT_EQ(stats.cache_hits, 0);
  EXPECT_EQ(stats.degraded_orders, 2);
  EXPECT_EQ(service.CacheSize(), 0u);
}

TEST(MappingServiceLadder, EscalatedRetryConvergesAndIsCached) {
  const PointSet points = PointSet::FullGrid(GridSpec({24, 24}));
  MappingServiceOptions options;
  options.parallelism = 1;
  options.cache_capacity = 64;
  MappingService service(options);

  // Starve only the restart budget (the Chebyshev filter stays on): one
  // restart is not enough for a cold 576-vertex solve, but the ladder's
  // default 4x escalation is — the retry converges and the ladder stops at
  // rung 1 with a cacheable result.
  OrderingRequest request = OrderingRequest::ForPoints(points, "spectral");
  request.options.spectral.fiedler.max_restarts = 1;
  request.options.spectral.warm_start_threshold = 0;

  auto result = service.Order(request);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->converged);
  EXPECT_EQ(result->degraded, "");

  MappingServiceStats stats = service.stats();
  EXPECT_EQ(stats.retried_solves, 1);
  EXPECT_EQ(stats.degraded_orders, 0);
  EXPECT_EQ(service.CacheSize(), 1u);

  auto repeat = service.Order(request);
  ASSERT_TRUE(repeat.ok());
  EXPECT_EQ(repeat->served_from, ServeKind::kHit);
  EXPECT_EQ(service.stats().solves, 1);
}

TEST(MappingServiceLadder, GraphInputsDegradeToBestEffortSpectral) {
  // A graph request has no geometry to fall back on: the ladder serves the
  // best-effort spectral order, tagged degraded, still uncached.
  std::vector<GraphEdge> edges;
  for (int64_t i = 0; i + 1 < 600; ++i) edges.push_back({i, i + 1, 1.0});
  const Graph graph = Graph::FromEdges(600, edges);

  MappingServiceOptions options;
  options.parallelism = 1;
  options.retry_restart_multiplier = 1;
  MappingService service(options);

  OrderingRequest request = OrderingRequest::ForGraph(graph);
  FiedlerOptions& fiedler = request.options.spectral.fiedler;
  fiedler.max_restarts = 1;
  fiedler.cheb_degree_max = 0;
  fiedler.block_max_basis = 4;
  request.options.spectral.warm_start_threshold = 0;

  auto result = service.Order(request);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->converged);
  EXPECT_EQ(result->degraded, "unconverged");
  EXPECT_EQ(result->order.size(), 600);
  EXPECT_EQ(service.stats().degraded_orders, 1);
  EXPECT_EQ(service.CacheSize(), 0u);
}

TEST(MappingServiceLadder, DegradedTagIsRenderedFromDegraded) {
  // detail keeps its " | degraded=..." bytes, rendered from the typed
  // `degraded` field once per served slot, ahead of the cache tag; direct
  // engine calls carry neither.
  const PointSet points = PointSet::FullGrid(GridSpec({24, 24}));
  MappingServiceOptions options;
  options.parallelism = 1;
  options.retry_restart_multiplier = 1;
  MappingService service(options);

  auto hilbert = MakeOrderingEngine("hilbert");
  ASSERT_TRUE(hilbert.ok());
  auto fallback =
      (*hilbert)->Order(OrderingRequest::ForPoints(points, "hilbert"));
  ASSERT_TRUE(fallback.ok());
  EXPECT_EQ(fallback->degraded, "");
  auto results = service.OrderBatch(std::vector<OrderingRequest>{
      StarvedSpectralRequest(points), StarvedSpectralRequest(points)});
  ASSERT_TRUE(results[0].ok());
  ASSERT_TRUE(results[1].ok());
  EXPECT_EQ(results[0]->detail,
            fallback->detail + " | degraded=hilbert | cache=miss");
  EXPECT_EQ(results[1]->detail,
            fallback->detail + " | degraded=hilbert | cache=hit");

  std::vector<GraphEdge> edges;
  for (int64_t i = 0; i + 1 < 600; ++i) edges.push_back({i, i + 1, 1.0});
  const Graph graph = Graph::FromEdges(600, edges);
  OrderingRequest request = OrderingRequest::ForGraph(graph);
  FiedlerOptions& fiedler = request.options.spectral.fiedler;
  fiedler.max_restarts = 1;
  fiedler.cheb_degree_max = 0;
  fiedler.block_max_basis = 4;
  request.options.spectral.warm_start_threshold = 0;
  auto spectral = MakeOrderingEngine("spectral");
  ASSERT_TRUE(spectral.ok());
  auto direct = (*spectral)->Order(request);
  ASSERT_TRUE(direct.ok());
  EXPECT_FALSE(direct->converged);
  EXPECT_EQ(direct->degraded, "");
  auto result = service.Order(request);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->detail,
            direct->detail + " | degraded=unconverged | cache=miss");
}

TEST(MappingServiceLadder, DisabledLadderServesUnconvergedUncached) {
  const PointSet points = PointSet::FullGrid(GridSpec({24, 24}));
  MappingServiceOptions options;
  options.parallelism = 1;
  options.degrade_unconverged = false;
  MappingService service(options);

  auto result = service.Order(StarvedSpectralRequest(points));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->converged);
  EXPECT_EQ(result->degraded, "");

  const MappingServiceStats stats = service.stats();
  EXPECT_EQ(stats.retried_solves, 0);
  EXPECT_EQ(stats.degraded_orders, 0);
  // Even with the ladder off, an unconverged order must never be cached.
  EXPECT_EQ(service.CacheSize(), 0u);
}


}  // namespace
}  // namespace spectral
