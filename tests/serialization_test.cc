#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "core/mapping_service.h"
#include "core/serialization.h"
#include "core/ordering_engine.h"
#include "core/ordering_request.h"
#include "space/point_set.h"

namespace spectral {
namespace {

TEST(Serialization, LinearOrderRoundTrip) {
  auto order = LinearOrder::FromRanks({3, 1, 4, 0, 2});
  ASSERT_TRUE(order.ok());
  std::stringstream buffer;
  ASSERT_TRUE(WriteLinearOrder(*order, buffer).ok());
  auto loaded = ReadLinearOrder(buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded->size(), 5);
  for (int64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(loaded->RankOf(i), order->RankOf(i));
  }
}

TEST(Serialization, LinearOrderRejectsBadMagic) {
  std::stringstream buffer("not-an-order\n3\n0\n1\n2\n");
  EXPECT_FALSE(ReadLinearOrder(buffer).ok());
}

TEST(Serialization, LinearOrderRejectsTruncation) {
  std::stringstream buffer("spectral-lpm-order v1\n5\n0\n1\n2\n");
  EXPECT_FALSE(ReadLinearOrder(buffer).ok());
}

TEST(Serialization, LinearOrderRejectsNonPermutation) {
  std::stringstream buffer("spectral-lpm-order v1\n3\n0\n0\n1\n");
  EXPECT_FALSE(ReadLinearOrder(buffer).ok());
}

TEST(Serialization, PointSetRoundTrip) {
  PointSet points(3);
  points.Add(std::vector<Coord>{1, -2, 3});
  points.Add(std::vector<Coord>{0, 0, 0});
  points.Add(std::vector<Coord>{7, 8, -9});
  std::stringstream buffer;
  ASSERT_TRUE(WritePointSet(points, buffer).ok());
  auto loaded = ReadPointSet(buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded->size(), 3);
  ASSERT_EQ(loaded->dims(), 3);
  for (int64_t i = 0; i < 3; ++i) {
    for (int a = 0; a < 3; ++a) {
      EXPECT_EQ(loaded->At(i, a), points.At(i, a));
    }
  }
}

TEST(Serialization, PointSetRejectsBadHeader) {
  std::stringstream buffer("spectral-lpm-points v1\n-1 2\n");
  EXPECT_FALSE(ReadPointSet(buffer).ok());
}

// A point file's dims is checked against kMaxPointDims before anything is
// allocated: a header naming INT_MAX axes must fail fast, not zero-fill a
// coordinate buffer of that size.
TEST(Serialization, PointSetRejectsTooManyDims) {
  const auto file = [](int dims) {
    std::stringstream buffer;
    buffer << "spectral-lpm-points v1\n1 " << dims << "\n";
    for (int a = 0; a < dims; ++a) buffer << (a > 0 ? " " : "") << a;
    buffer << "\n";
    return buffer;
  };
  std::stringstream widest = file(kMaxPointDims);
  auto loaded = ReadPointSet(widest);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->dims(), kMaxPointDims);

  std::stringstream too_wide = file(kMaxPointDims + 1);
  loaded = ReadPointSet(too_wide);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);

  std::stringstream huge("spectral-lpm-points v1\n0 2147483647\n");
  loaded = ReadPointSet(huge);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(Serialization, PointSetRejectsOutOfRangeCoordinates) {
  for (const char* coord : {"4294967296", "2147483648", "-2147483649"}) {
    std::stringstream buffer;
    buffer << "spectral-lpm-points v1\n2 1\n0\n" << coord << "\n";
    auto loaded = ReadPointSet(buffer);
    ASSERT_FALSE(loaded.ok()) << coord;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  }
  std::stringstream edge("spectral-lpm-points v1\n2 1\n2147483647\n"
                         "-2147483648\n");
  auto loaded = ReadPointSet(edge);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->At(0, 0), 2147483647);
  EXPECT_EQ(loaded->At(1, 0), -2147483648);
}

TEST(Serialization, FileRoundTrip) {
  const auto dir = std::filesystem::temp_directory_path();
  const std::string order_path = (dir / "spectral_order_test.txt").string();
  const std::string points_path = (dir / "spectral_points_test.txt").string();

  const PointSet points = PointSet::FullGrid(GridSpec({4, 4}));
  auto engine = MakeOrderingEngine("spectral");
  ASSERT_TRUE(engine.ok());
  auto mapped = (*engine)->Order(OrderingRequest::ForPoints(points));
  ASSERT_TRUE(mapped.ok());

  ASSERT_TRUE(SaveLinearOrderToFile(mapped->order, order_path).ok());
  ASSERT_TRUE(SavePointSetToFile(points, points_path).ok());

  auto order = LoadLinearOrderFromFile(order_path);
  auto pts = LoadPointSetFromFile(points_path);
  ASSERT_TRUE(order.ok());
  ASSERT_TRUE(pts.ok());
  EXPECT_EQ(order->size(), points.size());
  EXPECT_EQ(pts->size(), points.size());
  for (int64_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(order->RankOf(i), mapped->order.RankOf(i));
  }

  EXPECT_FALSE(LoadLinearOrderFromFile("/nonexistent/path.txt").ok());
  std::filesystem::remove(order_path);
  std::filesystem::remove(points_path);
}

TEST(Serialization, EmptyOrderRoundTrip) {
  auto order = LinearOrder::FromRanks({});
  ASSERT_TRUE(order.ok());
  std::stringstream buffer;
  ASSERT_TRUE(WriteLinearOrder(*order, buffer).ok());
  auto loaded = ReadLinearOrder(buffer);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 0);
}

// Real cache contents: a few spectral solves exported from a warm
// MappingService.
std::vector<OrderCacheEntry> MakeCacheEntries() {
  MappingServiceOptions options;
  options.cache_capacity = 8;
  options.parallelism = 1;
  MappingService service(options);
  for (const auto& sides : {GridSpec({5, 4}), GridSpec({3, 7})}) {
    const PointSet points = PointSet::FullGrid(sides);
    auto result = service.Order(OrderingRequest::ForPoints(points));
    EXPECT_TRUE(result.ok());
  }
  return service.ExportCache();
}

TEST(Serialization, CacheSnapshotRoundTripIsExact) {
  const std::vector<OrderCacheEntry> entries = MakeCacheEntries();
  ASSERT_EQ(entries.size(), 2);

  std::stringstream buffer;
  ASSERT_TRUE(WriteOrderCacheSnapshot(entries, buffer).ok());
  auto loaded = ReadOrderCacheSnapshot(buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded->size(), entries.size());
  for (size_t e = 0; e < entries.size(); ++e) {
    const OrderCacheEntry& want = entries[e];
    const OrderCacheEntry& got = (*loaded)[e];
    EXPECT_EQ(got.fingerprint.hi, want.fingerprint.hi);
    EXPECT_EQ(got.fingerprint.lo, want.fingerprint.lo);
    const OrderingResult& w = want.result;
    const OrderingResult& g = got.result;
    EXPECT_EQ(g.method, w.method);
    EXPECT_EQ(g.detail, w.detail);
    // max_digits10 round-trips doubles bit-exactly; a restored cache entry
    // must be byte-identical to the solve that produced it.
    EXPECT_EQ(g.lambda2, w.lambda2);
    EXPECT_EQ(g.num_components, w.num_components);
    EXPECT_EQ(g.matvecs, w.matvecs);
    EXPECT_EQ(g.restarts, w.restarts);
    EXPECT_EQ(g.spmm_calls, w.spmm_calls);
    EXPECT_EQ(g.reorth_panels, w.reorth_panels);
    EXPECT_EQ(g.num_solves, w.num_solves);
    EXPECT_EQ(g.depth, w.depth);
    EXPECT_EQ(g.grid_side, w.grid_side);
    EXPECT_EQ(g.grid_cells, w.grid_cells);
    EXPECT_EQ(g.converged, w.converged);
    ASSERT_EQ(g.order.size(), w.order.size());
    for (int64_t i = 0; i < w.order.size(); ++i) {
      EXPECT_EQ(g.order.RankOf(i), w.order.RankOf(i));
    }
    ASSERT_EQ(g.embedding.size(), w.embedding.size());
    for (size_t i = 0; i < w.embedding.size(); ++i) {
      EXPECT_EQ(g.embedding[i], w.embedding[i]);
    }
  }
}

TEST(Serialization, EmptyCacheSnapshotRoundTrip) {
  std::stringstream buffer;
  ASSERT_TRUE(
      WriteOrderCacheSnapshot(std::vector<OrderCacheEntry>{}, buffer).ok());
  auto loaded = ReadOrderCacheSnapshot(buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(loaded->empty());
}

TEST(Serialization, CacheSnapshotRejectsWrongVersion) {
  for (const char* old_version :
       {"spectral-lpm-cache v1\n0\n", "spectral-lpm-cache v3\n0\n"}) {
    // Even with a valid checksum trailer, a wrong version line is rejected
    // first (with a version message, not a checksum one).
    std::stringstream buffer(WithSnapshotChecksum(old_version));
    const auto loaded = ReadOrderCacheSnapshot(buffer);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(loaded.status().message().find("bad magic"), std::string::npos)
        << loaded.status();
  }
}

TEST(Serialization, CacheSnapshotRejectsTruncation) {
  std::stringstream full;
  ASSERT_TRUE(WriteOrderCacheSnapshot(MakeCacheEntries(), full).ok());
  const std::string text = full.str();
  // Chop anywhere inside the payload: always a clean error, never a crash
  // (the checksum trailer is gone or covers bytes that are).
  for (const double fraction : {0.25, 0.5, 0.9}) {
    std::stringstream truncated(
        text.substr(0, static_cast<size_t>(text.size() * fraction)));
    const auto loaded = ReadOrderCacheSnapshot(truncated);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(Serialization, CacheSnapshotRejectsBitFlip) {
  std::stringstream full;
  ASSERT_TRUE(WriteOrderCacheSnapshot(MakeCacheEntries(), full).ok());
  std::string text = full.str();
  // Flip one digit inside an embedding value: structurally still a valid
  // snapshot, so only the checksum can catch it.
  const size_t pos = text.find("embedding ");
  ASSERT_NE(pos, std::string::npos);
  char& digit = text[pos + std::string("embedding ").size()];
  digit = digit == '9' ? '8' : '9';
  std::stringstream flipped(text);
  const auto loaded = ReadOrderCacheSnapshot(flipped);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("checksum mismatch"),
            std::string::npos)
      << loaded.status();
}

TEST(Serialization, CacheSnapshotRejectsCorruptPayload) {
  // Bodies with a *valid* checksum trailer, so these exercise the field
  // parsers behind the checksum gate, not the gate itself.
  const char* kBadSnapshots[] = {
      // Non-permutation ranks.
      "spectral-lpm-cache v2\n1\n"
      "entry 000000000000000000000000000000ab\nmethod m\ndetail d\n"
      "metrics 0 1 0 0 0 0 0 0 0 0 1\norder 3 0 0 1\nembedding 0\n",
      // Bad fingerprint (too short).
      "spectral-lpm-cache v2\n1\n"
      "entry 1234\nmethod m\ndetail d\n"
      "metrics 0 1 0 0 0 0 0 0 0 0 1\norder 1 0\nembedding 0\n",
      // Garbage metrics.
      "spectral-lpm-cache v2\n1\n"
      "entry 000000000000000000000000000000ab\nmethod m\ndetail d\n"
      "metrics x 1 0 0 0 0 0 0 0 0 1\norder 1 0\nembedding 0\n",
      // Converged flag outside {0, 1}.
      "spectral-lpm-cache v2\n1\n"
      "entry 000000000000000000000000000000ab\nmethod m\ndetail d\n"
      "metrics 0 1 0 0 0 0 0 0 0 0 7\norder 1 0\nembedding 0\n",
      // Embedding shorter than declared.
      "spectral-lpm-cache v2\n1\n"
      "entry 000000000000000000000000000000ab\nmethod m\ndetail d\n"
      "metrics 0 1 0 0 0 0 0 0 0 0 1\norder 1 0\nembedding 3 0.5\n",
      // Negative entry count.
      "spectral-lpm-cache v2\n-2\n",
  };
  for (const char* bad : kBadSnapshots) {
    std::stringstream buffer(WithSnapshotChecksum(bad));
    const auto loaded = ReadOrderCacheSnapshot(buffer);
    ASSERT_FALSE(loaded.ok()) << "accepted: " << bad;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(loaded.status().message().find("checksum"), std::string::npos)
        << "failed at the checksum gate instead of the parser: "
        << loaded.status();
  }
}

TEST(Serialization, CacheSnapshotFileRoundTrip) {
  const auto dir = std::filesystem::temp_directory_path();
  const std::string path = (dir / "spectral_cache_test.txt").string();
  const std::vector<OrderCacheEntry> entries = MakeCacheEntries();
  ASSERT_TRUE(SaveOrderCacheSnapshotToFile(entries, path).ok());
  // The atomic rename consumed its temp file.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  auto loaded = LoadOrderCacheSnapshotFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->size(), entries.size());
  std::filesystem::remove(path);

  const auto missing = LoadOrderCacheSnapshotFromFile("/nonexistent/cache.txt");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(Serialization, CorruptCacheSnapshotFileIsQuarantined) {
  const auto dir = std::filesystem::temp_directory_path();
  const std::string path = (dir / "spectral_cache_quarantine.txt").string();
  const std::string quarantine = path + ".corrupt";
  std::filesystem::remove(path);
  std::filesystem::remove(quarantine);

  // A valid snapshot, torn mid-file as an interrupted non-atomic writer
  // would leave it.
  std::stringstream full;
  ASSERT_TRUE(WriteOrderCacheSnapshot(MakeCacheEntries(), full).ok());
  const std::string text = full.str();
  {
    std::ofstream torn(path);
    torn << text.substr(0, text.size() / 2);
  }

  const auto loaded = LoadOrderCacheSnapshotFromFile(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  // The damaged file moved aside: the path is clean for the next save and
  // the bytes are kept for inspection.
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_TRUE(std::filesystem::exists(quarantine));
  EXPECT_NE(loaded.status().message().find(".corrupt"), std::string::npos)
      << loaded.status();

  // A second load finds nothing: quarantine is idempotent, never a crash.
  const auto again = LoadOrderCacheSnapshotFromFile(path);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kNotFound);
  std::filesystem::remove(quarantine);
}

}  // namespace
}  // namespace spectral
