// End-to-end page-I/O bench: every curve engine and the spectral engine run
// through MappingService -> BuildQueryPath (layout + rank B+-tree + packed
// R-tree), then a fixed range-query and kNN workload executes against each
// physical design through an LruBufferPool of each configured size. Rows
// are keyed (workload, engine, pool_pages) and report data pages touched,
// page I/Os, hit rates, and modeled I/O cost per query.
//
// Every reported counter is deterministic — a pure function of the order
// and the query stream (see QueryResultStats) — so the committed baseline
// bench_results/BENCH_query_io.json is CI-gateable machine-independently
// (tools/check_bench_regression.py --suite query). wall_ms is the only
// machine-dependent field and is gated on share-of-total only.
//
// The headline gate is the paper's Figure 6 story end-to-end: range
// queries slide at an unaligned stride, so fractal curves pay their
// worst-case straddles (a box crossing a top-level split spans nearly the
// whole file) while the spectral order's interval stays bounded — spectral
// must beat every fractal curve on worst-case pages touched per query.

#include <algorithm>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/mapping_service.h"
#include "core/ordering_request.h"
#include "query/executor.h"
#include "space/point_set.h"
#include "storage/buffer_pool.h"
#include "util/check.h"
#include "util/random.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "util/timer.h"
#include "workload/generators.h"

namespace spectral {
namespace bench {
namespace {

struct RangeBox {
  std::vector<Coord> lo;
  std::vector<Coord> hi;
};

struct QueryWorkload {
  std::string name;
  std::shared_ptr<const PointSet> points;
  std::vector<RangeBox> range_queries;
  std::vector<int64_t> knn_queries;  // query point indices
};

// Square boxes of side `box` sliding at `stride` (deliberately unaligned
// with page and curve-block boundaries) across a `side`-cell extent.
std::vector<RangeBox> SlidingBoxes(Coord side, Coord box, Coord stride) {
  std::vector<RangeBox> boxes;
  for (Coord y = 0; y + box <= side; y += stride) {
    for (Coord x = 0; x + box <= side; x += stride) {
      boxes.push_back(RangeBox{
          {x, y}, {static_cast<Coord>(x + box - 1),
                   static_cast<Coord>(y + box - 1)}});
    }
  }
  return boxes;
}

QueryWorkload MakeGridWorkload() {
  QueryWorkload w;
  w.name = "grid64x64";
  w.points =
      std::make_shared<PointSet>(PointSet::FullGrid(GridSpec({64, 64})));
  w.range_queries = SlidingBoxes(/*side=*/64, /*box=*/8, /*stride=*/3);
  for (int64_t i = 0; i < w.points->size(); i += 97) {
    w.knn_queries.push_back(i);
  }
  return w;
}

QueryWorkload MakeClustersWorkload() {
  QueryWorkload w;
  w.name = "clusters2k";
  Rng rng(0xc1a5ull);
  w.points = std::make_shared<PointSet>(SampleGaussianClusters(
      GridSpec({128, 128}), /*num_clusters=*/4, /*count=*/2048,
      /*stddev_fraction=*/0.08, rng));
  w.range_queries = SlidingBoxes(/*side=*/128, /*box=*/16, /*stride=*/7);
  for (int64_t i = 0; i < w.points->size(); i += 67) {
    w.knn_queries.push_back(i);
  }
  return w;
}

struct Sample {
  std::string workload;
  std::string engine;
  int64_t pool_pages = 0;
  int64_t range_queries = 0;
  double range_pages_mean = 0.0;
  int64_t range_pages_max = 0;
  double range_page_io_mean = 0.0;
  double range_io_cost_mean = 0.0;
  int64_t knn_queries = 0;
  double knn_pages_mean = 0.0;
  double hit_rate = 0.0;
  double wall_ms = 0.0;
};

Sample RunEngine(const QueryWorkload& workload, const QueryPath& path,
                 const std::string& engine, int64_t pool_pages) {
  WallTimer timer;
  LruBufferPool pool(pool_pages);
  const QueryExecutor executor = path.MakeExecutor(&pool);

  Sample s;
  s.workload = workload.name;
  s.engine = engine;
  s.pool_pages = pool_pages;
  s.range_queries = static_cast<int64_t>(workload.range_queries.size());
  s.knn_queries = static_cast<int64_t>(workload.knn_queries.size());

  int64_t range_pages = 0, range_io = 0, knn_pages = 0;
  double range_cost = 0.0;
  for (const RangeBox& box : workload.range_queries) {
    const auto stats = executor.RangeViaBTree(box.lo, box.hi);
    range_pages += stats.pages_touched;
    range_io += stats.page_io;
    range_cost += stats.io_cost;
    s.range_pages_max = std::max(s.range_pages_max, stats.pages_touched);
  }
  for (const int64_t query : workload.knn_queries) {
    const auto stats =
        executor.KnnViaWindow(query, /*k=*/10, /*window=*/32);
    knn_pages += stats.pages_touched;
  }

  const double nr = static_cast<double>(s.range_queries);
  const double nk = static_cast<double>(s.knn_queries);
  s.range_pages_mean = static_cast<double>(range_pages) / nr;
  s.range_page_io_mean = static_cast<double>(range_io) / nr;
  s.range_io_cost_mean = range_cost / nr;
  s.knn_pages_mean = static_cast<double>(knn_pages) / nk;
  s.hit_rate = pool.HitRate();
  s.wall_ms = timer.ElapsedSeconds() * 1e3;
  return s;
}

void Run() {
  const std::vector<std::string> engines = {
      "sweep", "snake", "zorder", "gray", "hilbert", "peano", "spiral",
      "spectral"};
  const std::vector<int64_t> pool_sizes = {8, 64};
  const std::vector<QueryWorkload> workloads = {MakeGridWorkload(),
                                                MakeClustersWorkload()};

  MappingService service;
  QueryPathOptions options;
  options.page_size = 32;

  std::cout << "Query-path page I/O: " << engines.size() << " engines x "
            << workloads.size() << " workloads x " << pool_sizes.size()
            << " pool sizes (page_size=" << options.page_size
            << " records)\n\n";

  TablePrinter table;
  table.SetHeader({"workload", "engine", "pool", "rq_pages_mean",
                   "rq_pages_max", "rq_io_mean", "knn_pages_mean", "hit_rate",
                   "wall_ms"});
  std::vector<std::string> rows;
  for (const QueryWorkload& workload : workloads) {
    for (const std::string& engine : engines) {
      OrderingRequest request =
          OrderingRequest::ForPoints(workload.points, engine);
      if (engine == "spectral") {
        request.options.spectral = DefaultSpectralOptions(2);
      }
      auto path = BuildQueryPath(request, &service, options);
      SPECTRAL_CHECK(path.ok()) << engine << ": " << path.status();

      for (const int64_t pool_pages : pool_sizes) {
        const Sample s = RunEngine(workload, *path, engine, pool_pages);
        table.AddRow({s.workload, s.engine, FormatInt(s.pool_pages),
                      FormatDouble(s.range_pages_mean, 2),
                      FormatInt(s.range_pages_max),
                      FormatDouble(s.range_page_io_mean, 2),
                      FormatDouble(s.knn_pages_mean, 2),
                      FormatDouble(s.hit_rate, 3),
                      FormatDouble(s.wall_ms, 2)});
        rows.push_back(
            "{\"workload\": \"" + s.workload + "\", \"engine\": \"" +
            s.engine + "\", \"pool_pages\": " + FormatInt(s.pool_pages) +
            ", \"range_queries\": " + FormatInt(s.range_queries) +
            ", \"range_pages_mean\": " + FormatDouble(s.range_pages_mean, 6) +
            ", \"range_pages_max\": " + FormatInt(s.range_pages_max) +
            ", \"range_page_io_mean\": " +
            FormatDouble(s.range_page_io_mean, 6) +
            ", \"range_io_cost_mean\": " +
            FormatDouble(s.range_io_cost_mean, 6) +
            ", \"knn_queries\": " + FormatInt(s.knn_queries) +
            ", \"knn_pages_mean\": " + FormatDouble(s.knn_pages_mean, 6) +
            ", \"hit_rate\": " + FormatDouble(s.hit_rate, 6) +
            ", \"wall_ms\": " + FormatDouble(s.wall_ms, 2) + "}");
      }
    }
  }
  EmitTable("query_io", table);
  EmitJsonRows("BENCH_query_io.json", rows);
}

}  // namespace
}  // namespace bench
}  // namespace spectral

int main() {
  spectral::bench::Run();
  return 0;
}
