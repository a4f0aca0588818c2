// Byte-identity property tests for the packed-basis block solver: the
// spectral orders on three reference workloads must match the committed
// fingerprints of the pre-refactor (unpacked VectorBlock) solver exactly
// — warm and cold, at parallelism 1/2/8. Any change to these hashes means
// the packed kernels, the strided SpMM, or the counter-driven control
// flow altered the solver's arithmetic, which breaks the caching layer's
// byte-identity contract.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/ordering_engine.h"
#include "core/ordering_request.h"
#include "space/point_set.h"
#include "util/hash.h"
#include "util/random.h"
#include "workload/generators.h"

namespace spectral {
namespace {

// Order-rank fingerprints of the solver as of the packed-basis refactor,
// identical to the unpacked solver they replaced (regenerated with
// the same Hasher walk below).
constexpr const char* kGrid64x64Hash = "7a5565039030866a429dd6c6867d426c";
constexpr const char* kGrid128x32Hash = "5ef0b1c1b16a8af52150e93b68eab495";
constexpr const char* kKernelBlobHash = "f9ec1b2bad983062563564937fc3f5fc";

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

std::string OrderHash(const LinearOrder& order) {
  Hasher h;
  for (int64_t i = 0; i < order.size(); ++i) h.MixInt(order.RankOf(i));
  return h.Finish().ToHex();
}

void ExpectGoldenOrders(const std::string& name, const PointSet& points,
                        const SpectralLpmOptions& base,
                        const std::string& expected_hash) {
  for (bool warm : {false, true}) {
    for (int parallelism : {1, 2, 8}) {
      OrderingRequest request = OrderingRequest::ForPoints(points);
      request.options.spectral = base;
      request.options.spectral.parallelism = parallelism;
      if (!warm) request.options.spectral.warm_start_threshold = 0;
      auto engine = MakeOrderingEngine("spectral");
      ASSERT_TRUE(engine.ok());
      auto result = (*engine)->Order(request);
      ASSERT_TRUE(result.ok())
          << name << " warm=" << warm << " p=" << parallelism << ": "
          << result.status();
      EXPECT_EQ(OrderHash(result->order), expected_hash)
          << name << " warm=" << warm << " p=" << parallelism
          << " method=" << result->method;
    }
  }
}

TEST(PackedIdentity, Grid64x64MatchesPreRefactorOrders) {
  SpectralLpmOptions options;
  options.fiedler.num_pairs = 3;
  ExpectGoldenOrders("grid64x64", PointSet::FullGrid(GridSpec::Uniform(2, 64)),
                     options, kGrid64x64Hash);
}

TEST(PackedIdentity, Grid128x32MatchesPreRefactorOrders) {
  SpectralLpmOptions options;
  options.fiedler.num_pairs = 3;
  ExpectGoldenOrders("grid128x32", PointSet::FullGrid(GridSpec({128, 32})),
                     options, kGrid128x32Hash);
}

TEST(PackedIdentity, KernelBlobMatchesPreRefactorOrders) {
  SpectralLpmOptions options;
  options.fiedler.num_pairs = 3;
  options.graph.radius = 2;
  options.graph.kernel = WeightKernel::kGaussian;
  options.graph.gaussian_sigma = 1.5;
  Rng rng(12345);
  ExpectGoldenOrders(
      "kernelblob300x30",
      LexSorted(SampleConnectedBlob(GridSpec({300, 30}), 5000, rng)), options,
      kKernelBlobHash);
}

// The deterministic halves of the kernel profile must also be identical
// across pool sizes (the wall-time halves are machine state, explicitly
// exempt) — they feed OrderingResult::detail, which the caching layer
// compares byte for byte.
TEST(PackedIdentity, ProfileFlopsArePoolInvariant) {
  const PointSet points = PointSet::FullGrid(GridSpec::Uniform(2, 64));
  auto solve = [&](int parallelism) {
    OrderingRequest request = OrderingRequest::ForPoints(points);
    request.options.spectral.fiedler.num_pairs = 3;
    request.options.spectral.parallelism = parallelism;
    request.options.spectral.warm_start_threshold = 0;
    auto engine = MakeOrderingEngine("spectral");
    auto result = (*engine)->Order(request);
    EXPECT_TRUE(result.ok()) << result.status();
    return *std::move(result);
  };
  const OrderingResult serial = solve(1);
  EXPECT_GT(serial.profile.spmm_flops, 0);
  EXPECT_GT(serial.profile.reorth_flops, 0);
  EXPECT_GT(serial.profile.hfill_flops, 0);
  EXPECT_GT(serial.profile.rr_flops, 0);
  for (int parallelism : {2, 8}) {
    const OrderingResult pooled = solve(parallelism);
    EXPECT_EQ(pooled.profile.spmm_flops, serial.profile.spmm_flops);
    EXPECT_EQ(pooled.profile.reorth_flops, serial.profile.reorth_flops);
    EXPECT_EQ(pooled.profile.hfill_flops, serial.profile.hfill_flops);
    EXPECT_EQ(pooled.profile.rr_flops, serial.profile.rr_flops);
    EXPECT_EQ(pooled.profile.cheb_flops, serial.profile.cheb_flops);
    EXPECT_EQ(pooled.detail, serial.detail);
  }
}

}  // namespace
}  // namespace spectral
