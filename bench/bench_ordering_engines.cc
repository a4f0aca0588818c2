// Registry smoke bench: every OrderingEngine on one 64x64 grid through the
// MappingService facade — cold wall time, warm (cached) wall time, Spearman
// rank correlation against the spectral order, and the per-engine cache hit
// rate — plus a section timing the spectral solve on two larger workloads
// (a rectangular grid and a Gaussian-kernel blob) and a multi-component
// parallel-solve scaling section. Each run emits the human tables, CSV
// mirrors, and a machine-readable bench_results/BENCH_ordering_engines.json
// (one object per engine/workload row) that tools/check_bench_regression.py
// diffs against the committed baseline — the CI perf gate.

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "stats/rank_correlation.h"
#include "util/random.h"
#include "util/string_util.h"
#include "util/timer.h"
#include "workload/generators.h"

namespace spectral {
namespace bench {
namespace {

std::vector<int64_t> Ranks(const LinearOrder& order) {
  std::vector<int64_t> ranks(static_cast<size_t>(order.size()));
  for (int64_t i = 0; i < order.size(); ++i) {
    ranks[static_cast<size_t>(i)] = order.RankOf(i);
  }
  return ranks;
}

// Four far-apart 24x24 islands: a disconnected input whose components the
// spectral solver can process concurrently.
PointSet MultiComponentPoints() {
  PointSet points(2);
  const Coord kSide = 24;
  const Coord kGap = 1000;
  for (Coord island = 0; island < 4; ++island) {
    const Coord x0 = island * kGap;
    for (Coord x = 0; x < kSide; ++x) {
      for (Coord y = 0; y < kSide; ++y) {
        points.Add(std::vector<Coord>{static_cast<Coord>(x0 + x), y});
      }
    }
  }
  return points;
}

// Canonical input order: lexicographically sorted points. Vertex ids are
// arbitrary, but the spectral sign convention anchors at the lowest id —
// sorting puts an extreme point first, which keeps the orientation of the
// order robust (run-to-run comparable).
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

struct EngineSample {
  std::string engine;
  std::string workload;
  double cold_ms = 0.0;
  double warm_ms = 0.0;
  double spearman = 0.0;
  double cache_hit_rate = 0.0;
  std::string detail;
};

std::vector<EngineSample>& AllSamples() {
  static std::vector<EngineSample> samples;
  return samples;
}

void EmitJson() {
  std::vector<std::string> rows;
  for (const EngineSample& s : AllSamples()) {
    rows.push_back("{\"engine\": \"" + s.engine + "\", \"workload\": \"" +
                   s.workload + "\", \"cold_ms\": " +
                   FormatDouble(s.cold_ms, 3) +
                   ", \"warm_ms\": " + FormatDouble(s.warm_ms, 3) +
                   ", \"spearman_vs_spectral\": " +
                   FormatDouble(s.spearman, 6) + ", \"cache_hit_rate\": " +
                   FormatDouble(s.cache_hit_rate, 3) + "}");
  }
  EmitJsonRows("BENCH_ordering_engines.json", rows);
}

// Cold + warm timings for `request` on a fresh service (cold cache), plus
// the cache hit rate over the two calls.
EngineSample TimeRequest(const OrderingRequest& request,
                         const std::string& workload) {
  MappingService service;  // default parallelism + LRU capacity
  WallTimer cold_timer;
  auto result = service.Order(request);
  const double cold_ms = cold_timer.ElapsedSeconds() * 1e3;
  SPECTRAL_CHECK(result.ok()) << request.engine << ": " << result.status();
  WallTimer warm_timer;
  auto warm = service.Order(request);
  const double warm_ms = warm_timer.ElapsedSeconds() * 1e3;
  SPECTRAL_CHECK(warm.ok()) << request.engine << ": " << warm.status();

  const MappingServiceStats stats = service.stats();
  EngineSample sample;
  sample.engine = request.engine;
  sample.workload = workload;
  sample.cold_ms = cold_ms;
  sample.warm_ms = warm_ms;
  sample.cache_hit_rate = static_cast<double>(stats.cache_hits) /
                          static_cast<double>(stats.requests);
  sample.detail = result->detail;
  sample.spearman = 1.0;
  return sample;
}

void RunRegistry() {
  const GridSpec grid = GridSpec::Uniform(2, 64);
  const PointSet points = PointSet::FullGrid(grid);

  std::cout << "OrderingEngine registry on a 64x64 grid via MappingService: "
               "cold/warm wall time, Spearman rho vs the spectral order, and "
               "cache hit rate\n\n";

  MappingService service;  // default parallelism + LRU capacity

  auto request_for = [&](const std::string& name) {
    OrderingRequest request = OrderingRequest::ForPoints(points, name);
    request.options.spectral = DefaultSpectralOptions(2);
    return request;
  };

  // First pass: cold + warm timings per engine ("spectral" first in the
  // registry, so its order doubles as the correlation reference without
  // pre-warming any cache).
  std::vector<EngineSample> samples;
  std::vector<std::vector<int64_t>> engine_ranks;
  for (const std::string& name : AllOrderingEngineNames()) {
    const OrderingRequest request = request_for(name);
    const MappingServiceStats before = service.stats();

    WallTimer cold_timer;
    auto result = service.Order(request);
    const double cold_ms = cold_timer.ElapsedSeconds() * 1e3;
    SPECTRAL_CHECK(result.ok()) << name << ": " << result.status();
    WallTimer warm_timer;
    auto warm = service.Order(request);
    const double warm_ms = warm_timer.ElapsedSeconds() * 1e3;
    SPECTRAL_CHECK(warm.ok()) << name << ": " << warm.status();

    const MappingServiceStats after = service.stats();
    const double served =
        static_cast<double>(after.requests - before.requests);
    EngineSample sample;
    sample.engine = name;
    sample.workload = "grid64x64";
    sample.cold_ms = cold_ms;
    sample.warm_ms = warm_ms;
    sample.cache_hit_rate =
        static_cast<double>(after.cache_hits - before.cache_hits) / served;
    sample.detail = result->detail;
    samples.push_back(sample);
    engine_ranks.push_back(Ranks(result->order));
  }

  const std::vector<int64_t>& spectral_ranks = engine_ranks.front();
  TablePrinter table;
  table.SetHeader({"engine", "cold_ms", "warm_ms", "spearman_vs_spectral",
                   "hit_rate", "detail"});
  for (size_t i = 0; i < samples.size(); ++i) {
    EngineSample& sample = samples[i];
    sample.spearman = SpearmanRho(spectral_ranks, engine_ranks[i]);
    table.AddRow({sample.engine, FormatDouble(sample.cold_ms, 2),
                  FormatDouble(sample.warm_ms, 2),
                  FormatDouble(sample.spearman, 4),
                  FormatDouble(sample.cache_hit_rate, 2), sample.detail});
    AllSamples().push_back(sample);
  }
  EmitTable("ordering_engines", table);
}

// The spectral solve on two workloads larger than the registry grid, each
// through a fresh default MappingService: a rectangular full grid and a
// Gaussian-kernel connected blob (non-grid metric data).
void RunSpectralWorkloads() {
  std::cout << "\nSpectral solve on larger workloads (cold = fresh cache)"
               "\n\n";
  TablePrinter table;
  table.SetHeader({"workload", "engine", "cold_ms", "warm_ms", "detail"});
  auto run = [&](const std::string& workload, const PointSet& points,
                 const SpectralLpmOptions& spectral) {
    OrderingRequest request = OrderingRequest::ForPoints(points, "spectral");
    request.options.spectral = spectral;
    const EngineSample sample = TimeRequest(request, workload);
    AllSamples().push_back(sample);
    table.AddRow({workload, sample.engine, FormatDouble(sample.cold_ms, 1),
                  FormatDouble(sample.warm_ms, 2), sample.detail});
  };

  // Rectangular grid: 128x32, the paper's full-grid input stretched to a
  // dominant direction.
  run("grid128x32", PointSet::FullGrid(GridSpec({128, 32})),
      DefaultSpectralOptions(2));

  // Gaussian-kernel blob: an elongated connected point cloud with
  // Gaussian-weighted radius-2 edges.
  Rng rng(12345);
  SpectralLpmOptions kernel = DefaultSpectralOptions(2);
  kernel.graph.radius = 2;
  kernel.graph.kernel = WeightKernel::kGaussian;
  kernel.graph.gaussian_sigma = 1.5;
  run("kernelblob300x30",
      LexSorted(SampleConnectedBlob(GridSpec({300, 30}), 5000, rng)), kernel);

  EmitTable("ordering_engines_workloads", table);
}

void RunParallelScaling() {
  const PointSet points = MultiComponentPoints();
  std::cout << "\nParallel spectral solve, 4 disconnected 24x24 components ("
            << points.size() << " points): wall time by service thread "
               "count (cache off so every run solves)\n\n";

  TablePrinter table;
  table.SetHeader({"parallelism", "ms", "speedup_vs_serial", "identical"});
  double serial_ms = 0.0;
  std::vector<int64_t> serial_ranks;
  for (int parallelism : {1, 2, 4}) {
    MappingServiceOptions service_options;
    service_options.parallelism = parallelism;
    service_options.cache_capacity = 0;
    MappingService service(service_options);

    OrderingRequest request = OrderingRequest::ForPoints(points, "spectral");
    request.options.spectral = DefaultSpectralOptions(2);
    request.options.spectral.parallelism = parallelism;

    WallTimer timer;
    auto result = service.Order(request);
    const double ms = timer.ElapsedSeconds() * 1e3;
    SPECTRAL_CHECK(result.ok()) << result.status();
    SPECTRAL_CHECK_EQ(result->num_components, 4);

    const std::vector<int64_t> ranks = Ranks(result->order);
    if (parallelism == 1) {
      serial_ms = ms;
      serial_ranks = ranks;
    }
    table.AddRow({FormatInt(parallelism), FormatDouble(ms, 2),
                  FormatDouble(serial_ms / ms, 2),
                  ranks == serial_ranks ? "yes" : "NO"});
  }
  EmitTable("ordering_engines_parallel", table);
}

}  // namespace
}  // namespace bench
}  // namespace spectral

int main() {
  spectral::bench::RunRegistry();
  spectral::bench::RunSpectralWorkloads();
  spectral::bench::RunParallelScaling();
  spectral::bench::EmitJson();
  return 0;
}
