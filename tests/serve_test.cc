// OrderingServer tests — the serving tier's contract: orders served
// through the batcher are byte-identical to direct serial engine calls
// (coalescing on or off, any window, cache cold or warm), overload and
// deadline expiry produce clean Statuses (never a hang), a warm-restarted
// server performs zero eigensolves on previously-served fingerprints, and
// the wire protocol round-trips over streams and TCP.

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/ordering_engine.h"
#include "core/ordering_request.h"
#include "serve/fd_stream.h"
#include "serve/ordering_server.h"
#include "serve/wire.h"
#include "space/grid.h"
#include "space/point_set.h"
#include "util/fault.h"

namespace spectral {
namespace {

std::vector<int64_t> Ranks(const LinearOrder& order) {
  std::vector<int64_t> ranks(static_cast<size_t>(order.size()));
  for (int64_t i = 0; i < order.size(); ++i) {
    ranks[static_cast<size_t>(i)] = order.RankOf(i);
  }
  return ranks;
}

std::string StripCacheTag(const std::string& detail) {
  const size_t pos = detail.rfind(" | cache=");
  return pos == std::string::npos ? detail : detail.substr(0, pos);
}

// Full-payload equality against a direct engine call on the same request.
void ExpectMatchesDirect(const OrderingResult& served,
                         const OrderingRequest& request) {
  auto engine = MakeOrderingEngine(request.engine);
  ASSERT_TRUE(engine.ok());
  auto reference = (*engine)->Order(request);
  ASSERT_TRUE(reference.ok()) << reference.status();
  EXPECT_EQ(Ranks(served.order), Ranks(reference->order));
  EXPECT_EQ(served.embedding, reference->embedding);
  EXPECT_EQ(served.lambda2, reference->lambda2);
  EXPECT_EQ(served.matvecs, reference->matvecs);
  EXPECT_EQ(served.method, reference->method);
  EXPECT_EQ(StripCacheTag(served.detail), reference->detail);
}

OrderingRequest GridRequest(Coord s0, Coord s1,
                            const std::string& engine = "spectral") {
  return OrderingRequest::ForPoints(
      std::make_shared<const PointSet>(PointSet::FullGrid(GridSpec({s0, s1}))),
      engine);
}

TEST(OrderingServer, CoalescedBatchMatchesDirectCalls) {
  // Cache OFF: the repeats below can only be deduplicated by within-batch
  // coalescing, which Pause/Resume makes deterministic.
  OrderingServerOptions options;
  options.service.cache_capacity = 0;
  options.service.parallelism = 2;
  options.window_ms = 0.0;
  OrderingServer server(options);

  const std::vector<OrderingRequest> requests = {
      GridRequest(6, 5), GridRequest(4, 7, "bisection"), GridRequest(6, 5),
      GridRequest(5, 5, "hilbert"), GridRequest(6, 5)};
  server.Pause();
  std::vector<std::future<StatusOr<OrderingResult>>> futures;
  for (const OrderingRequest& request : requests) {
    futures.push_back(server.Submit(request));
  }
  server.Resume();
  for (size_t i = 0; i < requests.size(); ++i) {
    auto result = futures[i].get();
    ASSERT_TRUE(result.ok()) << result.status();
    ExpectMatchesDirect(*result, requests[i]);
  }

  const OrderingServerStats stats = server.stats();
  EXPECT_EQ(stats.accepted, 5);
  EXPECT_EQ(stats.served_ok, 5);
  EXPECT_EQ(stats.service.batches, 1);
  EXPECT_EQ(stats.service.solves, 3);
  EXPECT_EQ(stats.service.coalesced_requests, 2);
  EXPECT_EQ(stats.queue_depth, 0);
  EXPECT_EQ(stats.max_queue_depth, 5);
}

TEST(OrderingServer, WindowCoalescesConcurrentArrivals) {
  OrderingServerOptions options;
  options.service.cache_capacity = 0;
  options.window_ms = 200.0;  // generous: both submits land in one window
  OrderingServer server(options);

  auto f1 = server.Submit(GridRequest(5, 6));
  auto f2 = server.Submit(GridRequest(5, 6));
  auto r1 = f1.get();
  auto r2 = f2.get();
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(Ranks(r1->order), Ranks(r2->order));

  const OrderingServerStats stats = server.stats();
  EXPECT_EQ(stats.service.batches, 1);
  EXPECT_EQ(stats.service.solves, 1);
  EXPECT_EQ(stats.service.coalesced_requests, 1);
  EXPECT_GT(stats.service.batch_latency_max_ms, 0.0);
  EXPECT_GT(stats.p99_ms, 0.0);
}

TEST(OrderingServer, MaxBatchCutsTheWindowShort) {
  OrderingServerOptions options;
  options.service.cache_capacity = 0;
  options.window_ms = 60000.0;  // would stall forever without the cap
  options.max_batch = 2;
  OrderingServer server(options);

  auto f1 = server.Submit(GridRequest(4, 4));
  auto f2 = server.Submit(GridRequest(4, 5));
  EXPECT_TRUE(f1.get().ok());
  EXPECT_TRUE(f2.get().ok());
  EXPECT_EQ(server.stats().service.batches, 1);
}

TEST(OrderingServer, ExpiredDeadlineGetsCleanStatus) {
  OrderingServerOptions options;
  options.service.cache_capacity = 0;
  OrderingServer server(options);

  server.Pause();
  auto expired = server.Submit(GridRequest(5, 5), /*deadline_ms=*/1.0);
  auto alive = server.Submit(GridRequest(5, 4));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server.Resume();

  const auto expired_result = expired.get();
  ASSERT_FALSE(expired_result.ok());
  EXPECT_EQ(expired_result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(alive.get().ok());

  const OrderingServerStats stats = server.stats();
  EXPECT_EQ(stats.expired_deadline, 1);
  EXPECT_EQ(stats.served_ok, 1);
  EXPECT_EQ(stats.service.requests, 1);  // the expired one never dispatched
}

TEST(OrderingServer, OverloadIsShedNotQueued) {
  OrderingServerOptions options;
  options.service.cache_capacity = 0;
  options.max_queue = 2;
  OrderingServer server(options);

  server.Pause();
  auto f1 = server.Submit(GridRequest(4, 6));
  auto f2 = server.Submit(GridRequest(6, 4));
  auto shed = server.Submit(GridRequest(7, 4));
  // The shed future is ready immediately; no dispatch has happened yet.
  const auto shed_result = shed.get();
  ASSERT_FALSE(shed_result.ok());
  EXPECT_EQ(shed_result.status().code(), StatusCode::kResourceExhausted);
  server.Resume();
  EXPECT_TRUE(f1.get().ok());
  EXPECT_TRUE(f2.get().ok());

  const OrderingServerStats stats = server.stats();
  EXPECT_EQ(stats.shed_overload, 1);
  EXPECT_EQ(stats.accepted, 2);
  EXPECT_EQ(stats.served_ok, 2);
}

TEST(OrderingServer, ShutdownDrainsPendingWork) {
  OrderingServerOptions options;
  options.service.cache_capacity = 0;
  OrderingServer server(options);
  server.Pause();
  auto f1 = server.Submit(GridRequest(5, 5));
  auto f2 = server.Submit(GridRequest(5, 6));
  server.Shutdown();  // overrides the pause and drains
  EXPECT_TRUE(f1.get().ok());
  EXPECT_TRUE(f2.get().ok());
  const auto rejected = server.Submit(GridRequest(4, 4)).get();
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kFailedPrecondition);
}

TEST(OrderingServer, WarmRestartFromSnapshotDoesZeroSolves) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "serve_snapshot_test.txt")
          .string();
  const std::vector<OrderingRequest> requests = {
      GridRequest(6, 6), GridRequest(5, 7, "bisection"), GridRequest(4, 9)};

  OrderingServerOptions options;
  options.service.cache_capacity = 16;
  std::vector<OrderingResult> first_results;
  {
    OrderingServer server(options);
    for (const OrderingRequest& request : requests) {
      auto result = server.Submit(request).get();
      ASSERT_TRUE(result.ok()) << result.status();
      first_results.push_back(*result);
    }
    ASSERT_TRUE(server.SaveSnapshot(path).ok());
    EXPECT_EQ(server.stats().service.solves, 3);
  }

  OrderingServer restarted(options);
  auto imported = restarted.LoadSnapshot(path);
  ASSERT_TRUE(imported.ok()) << imported.status();
  EXPECT_EQ(*imported, 3);
  for (size_t i = 0; i < requests.size(); ++i) {
    auto result = restarted.Submit(requests[i]).get();
    ASSERT_TRUE(result.ok()) << result.status();
    // Byte-identical to the first run and to a direct engine call.
    EXPECT_EQ(Ranks(result->order), Ranks(first_results[i].order));
    EXPECT_EQ(result->embedding, first_results[i].embedding);
    ExpectMatchesDirect(*result, requests[i]);
    EXPECT_EQ(result->served_from, ServeKind::kHit);
  }
  const OrderingServerStats stats = restarted.stats();
  EXPECT_EQ(stats.service.solves, 0);
  EXPECT_EQ(stats.service.cache_hits, 3);
  EXPECT_GT(stats.warm_p50_ms, 0.0);
  EXPECT_EQ(stats.cold_p50_ms, 0.0);  // no cold serves happened
  std::filesystem::remove(path);
}

TEST(OrderingServer, CorruptSnapshotIsQuarantinedAndStartsCold) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "serve_corrupt_test.txt")
          .string();
  {
    std::ofstream out(path);
    out << "spectral-lpm-cache v1\n2\nentry zzzz\n";
  }
  OrderingServerOptions options;
  options.service.cache_capacity = 16;
  OrderingServer server(options);
  const auto imported = server.LoadSnapshot(path);
  ASSERT_FALSE(imported.ok());
  EXPECT_EQ(imported.status().code(), StatusCode::kInvalidArgument);
  // The damaged file was moved aside for inspection, never reloaded.
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_TRUE(std::filesystem::exists(path + ".corrupt"));
  EXPECT_NE(imported.status().message().find(".corrupt"), std::string::npos);
  // The server is cold but fully serviceable.
  const auto result = server.Submit(GridRequest(5, 5)).get();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(server.stats().service.solves, 1);
  std::filesystem::remove(path + ".corrupt");
}

TEST(OrderingServer, SnapshotRotationRunsOffThreadAndIsCrashSafe) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "serve_rotation_test.txt")
          .string();
  std::filesystem::remove(path);
  OrderingServerOptions options;
  options.service.cache_capacity = 16;
  {
    OrderingServer server(options);
    ASSERT_TRUE(server.Submit(GridRequest(6, 6)).get().ok());
    ASSERT_TRUE(server.Submit(GridRequest(5, 7)).get().ok());

    auto queued = server.RotateSnapshot(path);
    ASSERT_TRUE(queued.ok()) << queued.status();
    EXPECT_EQ(*queued, 2);
    server.FlushSnapshots();
    EXPECT_EQ(server.stats().snapshots_saved, 1);
    EXPECT_EQ(server.stats().snapshot_failures, 0);
    // No stray temp file: the write was renamed into place atomically.
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

    // A later rotation replaces the file in place (still atomically).
    ASSERT_TRUE(server.Submit(GridRequest(4, 9)).get().ok());
    ASSERT_TRUE(server.RotateSnapshot(path).ok());
    server.FlushSnapshots();
    EXPECT_EQ(server.stats().snapshots_saved, 2);

    EXPECT_EQ(server.RotateSnapshot("").status().code(),
              StatusCode::kInvalidArgument);
  }

  // The rotated snapshot warm-starts a fresh server with zero solves.
  OrderingServer restarted(options);
  auto imported = restarted.LoadSnapshot(path);
  ASSERT_TRUE(imported.ok()) << imported.status();
  EXPECT_EQ(*imported, 3);
  ASSERT_TRUE(restarted.Submit(GridRequest(6, 6)).get().ok());
  EXPECT_EQ(restarted.stats().service.solves, 0);

  restarted.Shutdown();
  EXPECT_EQ(restarted.RotateSnapshot(path).status().code(),
            StatusCode::kFailedPrecondition);
  std::filesystem::remove(path);
}

TEST(OrderingServer, StatsLineAndReset) {
  OrderingServerOptions options;
  options.service.cache_capacity = 4;
  OrderingServer server(options);
  ASSERT_TRUE(server.Submit(GridRequest(5, 5)).get().ok());
  const std::string line = server.StatsLine("s1");
  EXPECT_EQ(line.rfind("STATS s1 ", 0), 0u);
  EXPECT_NE(line.find(" accepted=1"), std::string::npos);
  EXPECT_NE(line.find(" solves=1"), std::string::npos);
  server.ResetStats();
  const OrderingServerStats stats = server.stats();
  EXPECT_EQ(stats.accepted, 0);
  EXPECT_EQ(stats.service.requests, 0);
  EXPECT_EQ(stats.p50_ms, 0.0);
  // The cache itself survives a stats reset.
  ASSERT_TRUE(server.Submit(GridRequest(5, 5)).get().ok());
  EXPECT_EQ(server.stats().service.cache_hits, 1);
}

TEST(Wire, ParseOrderGrid) {
  auto parsed = ParseWireRequest(
      "ORDER r1 spectral deadline=250 connectivity=moore radius=2 GRID 8x5");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->command, WireCommand::kOrder);
  EXPECT_EQ(parsed->id, "r1");
  EXPECT_EQ(parsed->deadline_ms, 250.0);
  EXPECT_EQ(parsed->request.engine, "spectral");
  EXPECT_EQ(parsed->request.options.spectral.graph.connectivity,
            GridConnectivity::kMoore);
  EXPECT_EQ(parsed->request.options.spectral.graph.radius, 2);
  ASSERT_NE(parsed->request.points, nullptr);
  EXPECT_EQ(parsed->request.points->size(), 40);
}

TEST(Wire, ParseOrderPoints) {
  auto parsed = ParseWireRequest("ORDER p sweep POINTS 2 3 0 0 1 0 5 5");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_NE(parsed->request.points, nullptr);
  EXPECT_EQ(parsed->request.points->size(), 3);
  EXPECT_EQ(parsed->request.points->dims(), 2);
  EXPECT_EQ(parsed->request.points->At(2, 1), 5);
}

TEST(Wire, ParseRejectsMalformedLines) {
  const char* kBad[] = {
      "",
      "NONSENSE x",
      "ORDER",
      "ORDER id",
      "ORDER id spectral",
      "ORDER id spectral GRID",
      "ORDER id spectral GRID 4xx4",
      "ORDER id spectral GRID 0x4",
      "ORDER id spectral GRID 4x4 junk",
      "ORDER id spectral bogus=1 GRID 4x4",
      "ORDER id spectral deadline=abc GRID 4x4",
      "ORDER id spectral POINTS 2 3 0 0 1",
      "SNAPSHOT id",
      "HEALTH",
      // Integers that do not fit the type they are narrowed to, or
      // overflow on the way in.
      "ORDER b hilbert GRID 2147483648x2",        // side exceeds Coord
      "ORDER e hilbert POINTS 2147483648 0",      // dims exceeds int
      "ORDER e hilbert POINTS 64 0",              // dims above 63 axes
      "ORDER c hilbert POINTS 1 2 4294967296 0",  // coordinate wraps to 0
      "ORDER c hilbert POINTS 1 1 -2147483649",   // coordinate below Coord
      "ORDER d spectral radius=4294967297 GRID 4x4",       // wraps to 1
      "ORDER f sharded-spectral shards=4294967298 GRID 4x4",
      "ORDER g hilbert GRID 65536x65536x65536x65536",     // cells overflow
      "ORDER g hilbert GRID 4097x4096",                    // above 2^24 cells
      "ORDER h hilbert POINTS 2 9223372036854775807",      // truncated, huge n
  };
  for (const char* line : kBad) {
    const auto parsed = ParseWireRequest(line);
    ASSERT_FALSE(parsed.ok()) << "accepted: " << line;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << line;
  }
}

TEST(Wire, ParseAcceptsTypeLimits) {
  auto edge = ParseWireRequest(
      "ORDER x sweep radius=2147483647 POINTS 1 2 2147483647 -2147483648");
  ASSERT_TRUE(edge.ok()) << edge.status();
  EXPECT_EQ(edge->request.options.spectral.graph.radius, 2147483647);
  EXPECT_EQ(edge->request.points->At(0, 0), 2147483647);
  EXPECT_EQ(edge->request.points->At(1, 0), -2147483648);
}

TEST(OrderingServer, OutOfRangeLineKeepsServing) {
  // A bad line between two valid ORDERs gets a typed error; both orders are
  // still answered.
  OrderingServer server(OrderingServerOptions{});
  std::istringstream in(
      "ORDER a hilbert GRID 4x4\n"
      "ORDER b hilbert GRID 2147483648x2\n"
      "ORDER c hilbert GRID 4x4\n"
      "QUIT\n");
  std::ostringstream out;
  server.ServeStream(in, out);
  std::istringstream lines(out.str());
  std::vector<std::string> replies;
  std::string line;
  while (std::getline(lines, line)) replies.push_back(line);
  ASSERT_EQ(replies.size(), 4u) << out.str();
  EXPECT_EQ(replies[0].rfind("ORDERED a 16 ", 0), 0u);
  EXPECT_EQ(replies[1].rfind("ERROR - INVALID_ARGUMENT", 0), 0u);
  EXPECT_EQ(replies[2].rfind("ORDERED c 16 ", 0), 0u);
  EXPECT_EQ(replies[3], "BYE");
}

TEST(OrderingServer, RetiredShardedEngineGetsTypedErrors) {
  // The retired "sharded-spectral" engine is an unknown registry name (the
  // registry's NotFound), its "shards=" key an unknown option
  // (InvalidArgument); the connection keeps serving either way.
  OrderingServer server(OrderingServerOptions{});
  std::istringstream in(
      "ORDER a sharded-spectral GRID 4x4\n"
      "ORDER b spectral shards=4 GRID 4x4\n"
      "ORDER c spectral GRID 4x4\n"
      "QUIT\n");
  std::ostringstream out;
  server.ServeStream(in, out);
  std::istringstream lines(out.str());
  std::vector<std::string> replies;
  std::string line;
  while (std::getline(lines, line)) replies.push_back(line);
  ASSERT_EQ(replies.size(), 4u) << out.str();
  const auto retired = MakeOrderingEngine("sharded-spectral");
  ASSERT_FALSE(retired.ok());
  EXPECT_EQ(retired.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(replies[0], FormatErrorResponse("a", retired.status()));
  EXPECT_EQ(replies[1].rfind("ERROR - INVALID_ARGUMENT", 0), 0u);
  EXPECT_NE(replies[1].find("unknown option 'shards'"), std::string::npos);
  EXPECT_EQ(replies[2].rfind("ORDERED c 16 ", 0), 0u);
  EXPECT_EQ(replies[3], "BYE");
}

TEST(Wire, StatsHealthAndQuitParse) {
  auto stats = ParseWireRequest("STATS q7");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->command, WireCommand::kStats);
  EXPECT_EQ(stats->id, "q7");
  auto health = ParseWireRequest("HEALTH h3");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->command, WireCommand::kHealth);
  EXPECT_EQ(health->id, "h3");
  auto quit = ParseWireRequest("QUIT");
  ASSERT_TRUE(quit.ok());
  EXPECT_EQ(quit->command, WireCommand::kQuit);
}

TEST(OrderingServer, ServeStreamEndToEnd) {
  OrderingServerOptions options;
  options.service.cache_capacity = 8;
  options.window_ms = 5.0;
  OrderingServer server(options);

  std::istringstream in(
      "ORDER a spectral GRID 6x5\n"
      "ORDER b hilbert GRID 4x4\n"
      "ORDER a2 spectral GRID 6x5\n"
      "bad line\n"
      "STATS s\n"
      "HEALTH h\n"
      "QUIT\n");
  std::ostringstream out;
  server.ServeStream(in, out);

  std::istringstream lines(out.str());
  std::vector<std::string> replies;
  std::string line;
  while (std::getline(lines, line)) replies.push_back(line);
  ASSERT_EQ(replies.size(), 7u);

  auto parsed = ParseWireRequest("ORDER a spectral GRID 6x5");
  ASSERT_TRUE(parsed.ok());
  auto engine = MakeOrderingEngine("spectral");
  ASSERT_TRUE(engine.ok());
  auto reference = (*engine)->Order(parsed->request);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(replies[0], FormatOrderedResponse("a", *reference));
  EXPECT_EQ(replies[1].rfind("ORDERED b 16 ", 0), 0u);
  EXPECT_EQ(replies[2], FormatOrderedResponse("a2", *reference));
  EXPECT_EQ(replies[3].rfind("ERROR - INVALID_ARGUMENT", 0), 0u);
  // STATS is rendered at its reply position: all three orders are counted.
  EXPECT_EQ(replies[4].rfind("STATS s ", 0), 0u);
  EXPECT_NE(replies[4].find(" requests=3"), std::string::npos);
  EXPECT_NE(replies[4].find(" solves=2"), std::string::npos);
  // HEALTH carries only deterministic counters (no latency percentiles).
  EXPECT_EQ(replies[5],
            "HEALTH h accepted=3 shed_overload=0 expired_deadline=0 "
            "served_ok=3 served_error=0 retried_solves=0 degraded_orders=0 "
            "cache_entries=2 snapshots_saved=0 snapshot_failures=0");
  EXPECT_EQ(replies[6], "BYE");
}

// --- Fault-injection failure drills (SPECTRAL_FAULTS builds only) -------

TEST(OrderingServerFaults, SnapshotWriteFailureLeavesPreviousGeneration) {
  if (!kFaultInjectionEnabled) {
    GTEST_SKIP() << "built without SPECTRAL_FAULTS";
  }
  const std::string path =
      (std::filesystem::temp_directory_path() / "serve_fault_snapshot.txt")
          .string();
  std::filesystem::remove(path);

  FaultInjector faults;
  OrderingServerOptions options;
  options.service.cache_capacity = 16;
  options.faults = &faults;
  OrderingServer server(options);
  ASSERT_TRUE(server.Submit(GridRequest(6, 6)).get().ok());

  // Generation 1 lands cleanly.
  ASSERT_TRUE(server.RotateSnapshot(path).ok());
  server.FlushSnapshots();
  ASSERT_EQ(server.stats().snapshots_saved, 1);

  // Generation 2's write is injected to fail mid-file: the rotation is
  // counted as a failure and generation 1 must remain fully readable.
  ASSERT_TRUE(server.Submit(GridRequest(5, 7)).get().ok());
  faults.Arm("snapshot.write", FaultSiteConfig{1.0, {}});
  ASSERT_TRUE(server.RotateSnapshot(path).ok());
  server.FlushSnapshots();
  EXPECT_EQ(server.stats().snapshot_failures, 1);
  EXPECT_EQ(server.stats().snapshots_saved, 1);

  OrderingServer restarted(OrderingServerOptions{});
  auto imported = restarted.LoadSnapshot(path);
  ASSERT_TRUE(imported.ok()) << imported.status();
  EXPECT_EQ(*imported, 1);  // generation 1, untouched by the torn write
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".tmp");
}

TEST(OrderingServerFaults, SolverFaultServesDegradedAndNeverPoisonsCache) {
  if (!kFaultInjectionEnabled) {
    GTEST_SKIP() << "built without SPECTRAL_FAULTS";
  }
  FaultInjector faults;
  faults.Arm("solver.converge", FaultSiteConfig{1.0, {}});
  OrderingServerOptions options;
  options.service.cache_capacity = 16;
  options.service.parallelism = 1;
  options.faults = &faults;
  OrderingServer server(options);

  // Every solve (including the ladder's retry) is forced unconverged, so
  // the point request degrades to the fallback curve — and is NOT cached.
  auto degraded = server.Submit(GridRequest(6, 6)).get();
  ASSERT_TRUE(degraded.ok()) << degraded.status();
  EXPECT_FALSE(degraded->converged);
  EXPECT_EQ(degraded->degraded, "hilbert");
  EXPECT_EQ(server.stats().service.degraded_orders, 1);
  EXPECT_EQ(server.stats().service.retried_solves, 1);
  EXPECT_EQ(server.service().CacheSize(), 0u);

  // With the fault disarmed the same request solves cleanly from scratch:
  // no degraded bytes were left behind in the cache.
  faults.Arm("solver.converge", FaultSiteConfig{});
  auto healthy = server.Submit(GridRequest(6, 6)).get();
  ASSERT_TRUE(healthy.ok()) << healthy.status();
  EXPECT_TRUE(healthy->converged);
  EXPECT_EQ(healthy->degraded, "");
  ExpectMatchesDirect(*healthy, GridRequest(6, 6));
  EXPECT_EQ(server.stats().service.solves, 2);
  EXPECT_EQ(server.service().CacheSize(), 1u);
}

TEST(OrderingServerFaults, DispatchFaultFailsTheBatchWithTypedError) {
  if (!kFaultInjectionEnabled) {
    GTEST_SKIP() << "built without SPECTRAL_FAULTS";
  }
  FaultInjector faults;
  // Only the first dispatched batch fails; the next one serves normally.
  faults.Arm("serve.dispatch", FaultSiteConfig{0.0, {0}});
  OrderingServerOptions options;
  options.service.cache_capacity = 0;
  options.faults = &faults;
  OrderingServer server(options);

  auto failed = server.Submit(GridRequest(5, 5)).get();
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kInternal);
  EXPECT_NE(failed.status().message().find("serve.dispatch"),
            std::string::npos);

  auto ok = server.Submit(GridRequest(5, 5)).get();
  ASSERT_TRUE(ok.ok()) << ok.status();
  const OrderingServerStats stats = server.stats();
  EXPECT_EQ(stats.served_error, 1);
  EXPECT_EQ(stats.served_ok, 1);
}

TEST(OrderingServer, TcpRoundTrip) {
  OrderingServerOptions options;
  options.service.cache_capacity = 8;
  OrderingServer server(options);
  auto port = server.StartTcp(0);
  ASSERT_TRUE(port.ok()) << port.status();
  ASSERT_GT(*port, 0);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(*port));
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);

  FdStreambuf in_buf(fd);
  FdStreambuf out_buf(fd);
  std::istream from_server(&in_buf);
  std::ostream to_server(&out_buf);
  to_server << "ORDER t spectral GRID 5x6\nQUIT\n";
  to_server.flush();

  std::string reply;
  ASSERT_TRUE(static_cast<bool>(std::getline(from_server, reply)));
  auto parsed = ParseWireRequest("ORDER t spectral GRID 5x6");
  ASSERT_TRUE(parsed.ok());
  auto engine = MakeOrderingEngine("spectral");
  ASSERT_TRUE(engine.ok());
  auto reference = (*engine)->Order(parsed->request);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(reply, FormatOrderedResponse("t", *reference));
  ASSERT_TRUE(static_cast<bool>(std::getline(from_server, reply)));
  EXPECT_EQ(reply, "BYE");
  ::close(fd);
  server.Shutdown();
}

// Multi-segment replies must not wait for the client's delayed ACK. A
// 64x64 hilbert reply is ~19 KB, several socket writes; with Nagle left on
// the server side each round trip stalls ~40 ms behind a client that (like
// most) does not set TCP_QUICKACK.
TEST(OrderingServer, TcpLargeRepliesDoNotStallOnDelayedAck) {
  OrderingServerOptions options;
  options.service.cache_capacity = 8;
  OrderingServer server(options);
  auto port = server.StartTcp(0);
  ASSERT_TRUE(port.ok()) << port.status();

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(*port));
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);
  FdStreambuf in_buf(fd);
  FdStreambuf out_buf(fd);
  std::istream from_server(&in_buf);
  std::ostream to_server(&out_buf);

  constexpr int kRequests = 24;
  std::vector<double> round_trip_ms;
  std::string reply;
  for (int i = 0; i < kRequests; ++i) {
    const auto start = std::chrono::steady_clock::now();
    to_server << "ORDER r" << i << " hilbert GRID 64x64\n";
    to_server.flush();
    ASSERT_TRUE(static_cast<bool>(std::getline(from_server, reply)));
    round_trip_ms.push_back(std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count());
    ASSERT_GT(reply.size(), 16384u) << reply.substr(0, 80);
  }
  to_server << "QUIT\n";
  to_server.flush();
  ASSERT_TRUE(static_cast<bool>(std::getline(from_server, reply)));
  EXPECT_EQ(reply, "BYE");
  ::close(fd);
  server.Shutdown();

  std::sort(round_trip_ms.begin(), round_trip_ms.end());
  const double median = round_trip_ms[round_trip_ms.size() / 2];
  EXPECT_LT(median, 20.0) << "median round trip " << median << " ms";
}

}  // namespace
}  // namespace spectral
