// map_connected / map_scattered: a closed loop with one client. Each
// iteration generates a fresh seeded point set, makes it queryable with
// BuildQueryPath (spectral order + layout + B+-tree + R-tree), and runs the
// fixed query stream against it through a 64-page buffer pool.

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>

#include "core/mapping_service.h"
#include "core/ordering_engine.h"
#include "core/ordering_request.h"
#include "graph/coarsening.h"
#include "graph/point_graph.h"
#include "graph/subgraph.h"
#include "graph/traversal.h"
#include "index/bplus_tree.h"
#include "index/packed_rtree.h"
#include "serve/ordering_server.h"
#include "serve/wire.h"
#include "storage/buffer_pool.h"
#include "storage/layout.h"
#include "util/random.h"
#include "workload/generators.h"
#include "workloads.h"

namespace perfbench {
namespace {

using spectral::Coord;
using spectral::PointSet;

constexpr Coord kExtent = 128;
// Page metrics (untraced runs) and eigen counters (traced runs) are taken
// over fixed prefixes of the loads, so they repeat exactly for one seed
// whatever the machine speed.
constexpr int64_t kPageLoads = 100;
constexpr int64_t kExactLoads = 16;
// An untraced run makes at least this many loads: the page-metric prefix,
// which is also the least that gives load_p90_ms ten samples beyond it.
constexpr int64_t kMinLoads = kPageLoads;
// Load percentiles are medians over windows of at least this many loads.
constexpr int64_t kLoadWindow = 100;
constexpr int kSetupReps = 5;
// Query latency percentiles are medians over windows of at least this many
// queries (see WindowedPercentile).
constexpr int64_t kLatencyWindow = 1000;
constexpr int kSolverThreads = 4;

std::shared_ptr<const PointSet> GenerateInput(MapKind kind, uint64_t seed,
                                              int64_t iteration) {
  spectral::Rng rng(MixSeed(seed, static_cast<uint64_t>(iteration)));
  const spectral::GridSpec grid({kExtent, kExtent});
  if (kind == MapKind::kConnected) {
    return std::make_shared<const PointSet>(
        spectral::SampleConnectedBlob(grid, 8192, rng));
  }
  return std::make_shared<const PointSet>(spectral::SampleGaussianClusters(
      grid, /*num_clusters=*/4, /*count=*/2048, /*stddev_fraction=*/0.08, rng));
}

spectral::OrderingRequest MakeRequest(std::shared_ptr<const PointSet> points) {
  spectral::OrderingRequest request =
      spectral::OrderingRequest::ForPoints(std::move(points), "spectral");
  request.options.spectral.fiedler.num_pairs = 3;
  return request;
}

spectral::MappingServiceOptions ServiceOptions(int parallelism) {
  spectral::MappingServiceOptions options;
  options.parallelism = parallelism;
  options.cache_capacity = 0;  // every load is a cold order
  return options;
}

QueryStream MapQueryStream(int64_t num_points) {
  return MakeQueryStream(kExtent, /*box=*/16, /*stride=*/7, num_points,
                         /*knn_step=*/67);
}

/// What one load left behind for the metrics and the checks.
struct LoadRecord {
  std::shared_ptr<const PointSet> points;
  bool ok = false;
  double load_ms = 0.0;
  std::vector<int64_t> range_matches;
  std::vector<int64_t> ranks;  // kept for the first load only
  // Traced runs only.
  double order_ms = 0.0;
  double graph_ms = 0.0;
  double components_ms = 0.0;
  double hierarchy_ms = 0.0;
  int64_t num_components = 0;
  spectral::KernelProfile profile;
  int64_t matvecs = 0;
  int64_t restarts = 0;
  bool converged = true;
  int64_t retried = 0;
  int64_t degraded = 0;
  bool serve_ok = true;
};

/// The serve and core layers on the map inputs (traced runs): an in-process
/// OrderingServer, and one loopback connection to it.
struct ServeProbe {
  spectral::OrderingServer* server = nullptr;
  int fd = -1;
  std::string inbox;
};

/// Re-times the serve path on the load's input as sibling spans: the input
/// as one POINTS wire line is parsed, fingerprinted, submitted to the
/// server (a cache hit: the load's order is imported first) and formatted,
/// then the same line makes one round trip over loopback TCP. The reply must
/// equal the in-process one.
void TimeServeLayer(ServeProbe& probe, const spectral::OrderingRequest& request,
                    const spectral::OrderingResult& ordering, Tracer& tracer,
                    int64_t id, LoadRecord* record) {
  const spectral::OrderCacheEntry entry{request.Fingerprint(), ordering};
  probe.server->service().ImportCache({&entry, 1});
  const std::string line =
      "ORDER " + std::to_string(id) + " " + PointsBody("spectral", *request.points);

  const auto t0 = Clock::now();
  auto wire = spectral::ParseWireRequest(line);
  const auto t1 = Clock::now();
  tracer.Add("serve.parse", id, -1, t0, t1);
  if (!wire.ok()) {
    record->serve_ok = false;
    return;
  }
  (void)wire->request.Fingerprint();
  const auto t2 = Clock::now();
  tracer.Add("core.fingerprint", id, -1, t1, t2);
  auto future = probe.server->Submit(std::move(wire->request), wire->deadline_ms);
  future.wait();
  const auto t3 = Clock::now();
  tracer.Add("serve.server", id, -1, t2, t3);
  const auto served = future.get();
  const std::string text =
      served.ok() ? spectral::FormatOrderedResponse(wire->id, *served)
                  : spectral::FormatErrorResponse(wire->id, served.status());
  const auto t4 = Clock::now();
  tracer.Add("serve.format", id, -1, t3, t4);

  std::string reply;
  const bool sent = SendAll(probe.fd, line + "\n") &&
                    ReadLine(probe.fd, &probe.inbox, &reply);
  tracer.Add("serve.roundtrip", id, -1, t4, Clock::now());
  record->serve_ok = served.ok() && sent && reply == text;
}

struct Phase {
  std::vector<LoadRecord> loads;
  QueryTally queries;
  double load_s = 0.0;
  double wall_s = 0.0;
};

std::vector<int64_t> RanksOf(const spectral::LinearOrder& order) {
  std::vector<int64_t> ranks(static_cast<size_t>(order.size()));
  for (int64_t i = 0; i < order.size(); ++i) {
    ranks[static_cast<size_t>(i)] = order.RankOf(i);
  }
  return ranks;
}

/// Re-times the graph layer on the load's input as sibling spans of the
/// order: point-graph build, component split, and the coarsening hierarchy
/// of every component the solver warm-starts.
void TimeGraphLayer(const PointSet& points, const spectral::OrderingRequest& request,
                    Tracer& tracer, int64_t id, int64_t parent,
                    LoadRecord* record) {
  auto t0 = Clock::now();
  auto graph = spectral::BuildPointGraph(points, request.options.spectral.graph);
  auto t1 = Clock::now();
  tracer.Add("graph.build", id, parent, t0, t1);
  record->graph_ms = MsBetween(t0, t1);
  if (!graph.ok()) return;
  int64_t num_components = 0;
  const std::vector<int64_t> labels =
      spectral::ConnectedComponents(*graph, &num_components);
  auto t2 = Clock::now();
  tracer.Add("graph.components", id, parent, t1, t2);
  record->components_ms = MsBetween(t1, t2);
  record->num_components = num_components;

  std::vector<std::vector<int64_t>> members(static_cast<size_t>(num_components));
  for (size_t v = 0; v < labels.size(); ++v) {
    members[static_cast<size_t>(labels[v])].push_back(static_cast<int64_t>(v));
  }
  const int64_t threshold = request.options.spectral.warm_start_threshold;
  const auto t3 = Clock::now();
  for (const auto& component : members) {
    if (threshold <= 0 || static_cast<int64_t>(component.size()) < threshold) {
      continue;
    }
    const spectral::InducedSubgraph sub =
        spectral::BuildInducedSubgraph(*graph, component);
    const spectral::CoarseningHierarchy hierarchy =
        spectral::BuildCoarseningHierarchy(
            sub.graph, request.options.spectral.multilevel.coarsen);
    (void)hierarchy;
  }
  const auto t4 = Clock::now();
  tracer.Add("graph.hierarchy", id, parent, t3, t4);
  record->hierarchy_ms = MsBetween(t3, t4);
}

/// One iteration of the loop: generate input `i`, load it, run the query
/// stream. With tracing on, the load is decomposed into spans and the graph,
/// curve and serve layers are re-timed on the same input.
void RunLoad(MapKind kind, const RunOptions& options,
             spectral::MappingService& service, int64_t i, Tracer& tracer,
             ServeProbe* probe, Phase* phase) {
  LoadRecord record;
  record.points = GenerateInput(kind, options.seed, i);
  const spectral::OrderingRequest request = MakeRequest(record.points);
  const QueryStream stream = MapQueryStream(record.points->size());

  spectral::StatusOr<spectral::QueryPath> path =
      spectral::InvalidArgumentError("not built");
  const auto t0 = Clock::now();
  if (!tracer.enabled()) {
    path = spectral::BuildQueryPath(request, &service,
                                    spectral::QueryPathOptions{});
  } else {
    const int64_t load = tracer.BeginAt("load", i, -1, t0);
    const spectral::MappingServiceStats before = service.stats();
    const auto order_start = Clock::now();
    auto ordered = service.Order(request);
    const auto order_end = Clock::now();
    const spectral::MappingServiceStats after = service.stats();
    tracer.Add("core.order", i, load, order_start, order_end);
    record.order_ms = MsBetween(order_start, order_end);
    record.retried = after.retried_solves - before.retried_solves;
    record.degraded = after.degraded_orders - before.degraded_orders;
    if (ordered.ok()) {
      record.profile = ordered->profile;
      record.matvecs = ordered->matvecs;
      record.restarts = ordered->restarts;
      record.converged = ordered->converged;
      path = AssembleQueryPath(record.points, std::move(*ordered), tracer, i,
                               load);
    } else {
      path = ordered.status();
    }
    tracer.End(load);
  }
  const auto t1 = Clock::now();
  record.load_ms = MsBetween(t0, t1);
  phase->load_s += record.load_ms / 1e3;
  if (tracer.enabled()) {
    TimeGraphLayer(*record.points, request, tracer, i, -1, &record);
    // The curve layer on the same input: a cold hilbert order.
    auto hilbert = spectral::MakeOrderingEngine("hilbert");
    const auto h0 = Clock::now();
    if (hilbert.ok()) {
      (void)(*hilbert)->Order(
          spectral::OrderingRequest::ForPoints(record.points, "hilbert"));
    }
    tracer.Add("sfc.order", i, -1, h0, Clock::now());
  }
  record.ok = path.ok();
  if (path.ok() && probe != nullptr) {
    TimeServeLayer(*probe, request, path->ordering, tracer, i, &record);
  }
  if (path.ok()) {
    if (i == 0) record.ranks = RanksOf(path->ordering.order);
    RunQueryStream(*path, stream, i < kPageLoads, &phase->queries,
                   &record.range_matches);
  }
  phase->loads.push_back(std::move(record));
}

/// Loads for `seconds` and at least `min_loads` times. A traced run with a
/// `baseline` loads every input twice, untraced into `baseline` and then
/// traced, so the tracing overhead compares like with like.
Phase RunPhase(MapKind kind, const RunOptions& options,
               spectral::MappingService& service, double seconds,
               int64_t min_loads, Tracer& tracer, ServeProbe* probe = nullptr,
               Phase* baseline = nullptr) {
  Phase phase;
  Tracer off(false);
  const auto start = Clock::now();
  for (int64_t i = 0;
       i < min_loads || MsBetween(start, Clock::now()) < seconds * 1e3; ++i) {
    if (baseline != nullptr) {
      RunLoad(kind, options, service, i, off, nullptr, baseline);
    }
    RunLoad(kind, options, service, i, tracer, probe, &phase);
  }
  phase.wall_s = MsBetween(start, Clock::now()) / 1e3;
  if (baseline != nullptr) baseline->wall_s = phase.wall_s;
  return phase;
}

/// Brute-force range counts for every load, the first load's order against
/// a direct registry-engine order, and failed loads.
void CheckPhase(const Phase& phase, MapKind kind, const RunOptions& options,
                RunResult* result) {
  for (size_t i = 0; i < phase.loads.size(); ++i) {
    const LoadRecord& load = phase.loads[i];
    result->outcomes.Record(load.ok);
    if (!load.ok) continue;
    const QueryStream stream = MapQueryStream(load.points->size());
    for (size_t b = 0; b < stream.boxes.size(); ++b) {
      const bool match = b < load.range_matches.size() &&
                         load.range_matches[b] ==
                             BruteForceMatches(*load.points, stream.boxes[b]);
      result->outcomes.Record(match);
    }
    for (size_t k = 0; k < stream.knn_points.size(); ++k) {
      result->outcomes.Record(true);  // kNN answers are counted, not checked
    }
  }
  if (!phase.loads.empty() && phase.loads[0].ok) {
    auto engine = spectral::MakeOrderingEngine("spectral");
    auto direct = (*engine)->Order(
        MakeRequest(GenerateInput(kind, options.seed, 0)));
    const bool same = direct.ok() && RanksOf(direct->order) == phase.loads[0].ranks;
    if (!same) {
      result->outcomes.Record(false);
      result->notes.push_back("first load's order differs from the direct engine order");
    }
  }
  result->correct = result->outcomes.failed == 0;
}

void AddPhaseNote(const Phase& phase, RunResult* result) {
  char line[160];
  std::snprintf(line, sizeof(line),
                "loads=%zu queries=%zu wall_s=%.2f load_s=%.2f query_s=%.2f",
                phase.loads.size(), phase.queries.latencies_ms.size(),
                phase.wall_s, phase.load_s, phase.queries.query_s);
  result->notes.push_back(line);
}

void SetEndToEnd(const Phase& phase, double setup_s, RunResult* result) {
  std::vector<double> load_ms;
  int64_t points = 0;
  for (const LoadRecord& load : phase.loads) {
    load_ms.push_back(load.load_ms);
    points += load.points->size();
  }
  const QueryTally& q = phase.queries;
  const Percentile p50 = WindowedPercentile(q.latencies_ms, 0.50, kLatencyWindow);
  const Percentile p99 = WindowedPercentile(q.latencies_ms, 0.99, kLatencyWindow);
  const Percentile l50 = WindowedPercentile(load_ms, 0.50, kLoadWindow);
  const Percentile l90 = WindowedPercentile(load_ms, 0.90, kLoadWindow);
  const double queries = static_cast<double>(q.latencies_ms.size());
  const double correct_queries =
      std::max(0.0, queries - static_cast<double>(result->outcomes.failed));

  result->Set("setup_s", setup_s, "s");
  result->Set("latency_p50_ms", p50.value, "ms");
  result->Set("latency_p99_ms", p99.value, "ms");
  result->Set("goodput_rps", correct_queries / (phase.load_s + q.query_s), "1/s");
  result->Set("load_p50_ms", l50.value, "ms");
  result->Set("load_p90_ms", l90.value, "ms");
  result->Set("points_per_s", static_cast<double>(points) / phase.load_s, "1/s");
  result->Set("queries_per_s", queries / q.query_s, "1/s");
  result->Set("range_pages_mean",
              static_cast<double>(q.range_pages) /
                  static_cast<double>(std::max<int64_t>(1, q.range_queries)),
              "pages");
  result->Set("range_pages_max", Mean(q.range_pages_max), "pages");
  result->Set("knn_pages_mean",
              static_cast<double>(q.knn_pages) /
                  static_cast<double>(std::max<int64_t>(1, q.knn_queries)),
              "pages");
  result->Set("success_frac", result->outcomes.success_frac(), "frac");
  result->AddSupport("latency_p50_ms (per query)", p50);
  result->AddSupport("latency_p99_ms (per query)", p99);
  result->AddSupport("load_p50_ms", l50);
  result->AddSupport("load_p90_ms", l90);
  if (!l90.supported) {
    result->notes.push_back(
        "load_p90_ms has fewer than 10 loads beyond it; lengthen --seconds");
  }
}

/// System set-up of a map run: the solver service with its worker pool,
/// and the first dataset with its query stream. Median of several.
double MeasureSetup(MapKind kind, const RunOptions& options) {
  std::vector<double> reps;
  for (int r = 0; r < kSetupReps; ++r) {
    const auto t0 = Clock::now();
    spectral::MappingService service(ServiceOptions(kSolverThreads));
    auto points = GenerateInput(kind, options.seed, 0);
    const QueryStream stream = MapQueryStream(points->size());
    reps.push_back(MsBetween(t0, Clock::now()) / 1e3);
  }
  return Median(reps);
}

/// Order time at parallelism 1 over parallelism 4 on the first inputs,
/// alternating the two so drift hits both alike; at least three inputs and
/// a second of orders on each side.
double MeasureSpeedup(MapKind kind, const RunOptions& options) {
  spectral::MappingService serial(ServiceOptions(1));
  spectral::MappingService parallel(ServiceOptions(kSolverThreads));
  std::vector<double> p1, p4;
  double total_p1 = 0.0, total_p4 = 0.0;
  for (int64_t i = 0; i < 3 || std::min(total_p1, total_p4) < 1e3; ++i) {
    const spectral::OrderingRequest request =
        MakeRequest(GenerateInput(kind, options.seed, i));
    const auto t0 = Clock::now();
    (void)serial.Order(request);
    const auto t1 = Clock::now();
    (void)parallel.Order(request);
    const auto t2 = Clock::now();
    p1.push_back(MsBetween(t0, t1));
    p4.push_back(MsBetween(t1, t2));
    total_p1 += p1.back();
    total_p4 += p4.back();
  }
  return Median(p1) / Median(p4);
}

void SetPerLayer(const Phase& phase, const std::vector<Span>& spans,
                 double untraced_load_p50, MapKind kind,
                 const RunOptions& options,
                 const spectral::OrderingServerStats& serve_stats,
                 RunResult* result) {
  std::vector<double> order, unattributed, graph, components, hierarchy,
      num_components;
  spectral::KernelProfile profile;
  int64_t matvecs = 0, restarts = 0, unconverged = 0, retried = 0, degraded = 0;
  for (size_t i = 0; i < phase.loads.size(); ++i) {
    const LoadRecord& load = phase.loads[i];
    order.push_back(load.order_ms);
    graph.push_back(load.graph_ms);
    components.push_back(load.components_ms);
    hierarchy.push_back(load.hierarchy_ms);
    num_components.push_back(static_cast<double>(load.num_components));
    unattributed.push_back(load.order_ms - load.graph_ms - load.components_ms -
                           load.hierarchy_ms - load.profile.total_ms());
    if (!load.converged) ++unconverged;
    retried += load.retried;
    degraded += load.degraded;
    if (static_cast<int64_t>(i) < kExactLoads) {
      profile.Add(load.profile);
      matvecs += load.matvecs;
      restarts += load.restarts;
    }
  }
  const double exact = static_cast<double>(
      std::min<int64_t>(kExactLoads, static_cast<int64_t>(phase.loads.size())));
  const double per_load = 1.0 / std::max(1.0, exact);
  const Percentile order_p50 = PercentileOf(order, 0.5);
  result->Set("core.order_ms_p50", order_p50.value, "ms");
  result->Set("core.unattributed_ms_p50", PercentileOf(unattributed, 0.5).value, "ms");
  result->Set("core.retried_solves", static_cast<double>(retried), "count");
  result->Set("core.degraded_orders", static_cast<double>(degraded), "count");
  result->Set("core.solves", static_cast<double>(phase.loads.size()), "count");
  result->Set("graph.build_ms_p50", PercentileOf(graph, 0.5).value, "ms");
  result->Set("graph.components_ms_p50", PercentileOf(components, 0.5).value, "ms");
  result->Set("graph.num_components_mean", Mean(num_components), "count");
  result->Set("graph.hierarchy_ms_p50", PercentileOf(hierarchy, 0.5).value, "ms");
  // Busy times are means per load over the exact prefix, like the counts.
  result->Set("eigen.spmm_ms", profile.spmm_ms * per_load, "ms");
  result->Set("eigen.reorth_ms", profile.reorth_ms * per_load, "ms");
  result->Set("eigen.hfill_ms", profile.hfill_ms * per_load, "ms");
  result->Set("eigen.rr_ms", profile.rr_ms * per_load, "ms");
  result->Set("eigen.cheb_ms", profile.cheb_ms * per_load, "ms");
  result->Set("eigen.flops", static_cast<double>(profile.total_flops()) * per_load,
              "count");
  result->Set("eigen.matvecs", static_cast<double>(matvecs) * per_load, "count");
  result->Set("eigen.restarts", static_cast<double>(restarts) * per_load, "count");
  result->Set("eigen.gflops",
              profile.total_ms() > 0.0
                  ? static_cast<double>(profile.total_flops()) /
                        (profile.total_ms() * 1e6)
                  : 0.0,
              "GFLOP/s");
  result->Set("eigen.unconverged", static_cast<double>(unconverged), "count");
  result->Set("eigen.speedup_p4", MeasureSpeedup(kind, options), "x");

  auto p50_ms = [&](std::string_view name) {
    return PercentileOf(DurationsMs(spans, name), 0.5).value;
  };
  const double parse_ms = p50_ms("serve.parse");
  const double server_ms = p50_ms("serve.server");
  const double format_ms = p50_ms("serve.format");
  result->Set("serve.parse_us_p50", parse_ms * 1e3, "us");
  result->Set("serve.format_us_p50", format_ms * 1e3, "us");
  result->Set("serve.server_ms_p50", server_ms, "ms");
  result->Set("serve.server_ms_p99",
              PercentileOf(DurationsMs(spans, "serve.server"), 0.99).value, "ms");
  result->Set("serve.stream_ms_p50",
              p50_ms("serve.roundtrip") - parse_ms - server_ms - format_ms, "ms");
  result->Set("core.fingerprint_us_p50", p50_ms("core.fingerprint") * 1e3, "us");
  const spectral::MappingServiceStats& m = serve_stats.service;
  result->Set("serve.batch_size_mean",
              static_cast<double>(m.requests) /
                  static_cast<double>(std::max<int64_t>(1, m.batches)),
              "count");
  result->Set("serve.max_queue_depth",
              static_cast<double>(serve_stats.max_queue_depth), "count");
  result->Set("serve.shed", static_cast<double>(serve_stats.shed_overload), "count");
  result->Set("serve.expired", static_cast<double>(serve_stats.expired_deadline),
              "count");
  result->Set("core.batch_ms_mean",
              m.batch_latency_total_ms /
                  static_cast<double>(std::max<int64_t>(1, m.batches)),
              "ms");
  result->Set("core.batch_ms_max", m.batch_latency_max_ms, "ms");
  for (const LoadRecord& load : phase.loads) result->outcomes.Record(load.serve_ok);
  result->correct = result->outcomes.failed == 0;

  result->Set("sfc.order_us_p50",
              PercentileOf(DurationsMs(spans, "sfc.order"), 0.5).value * 1e3, "us");
  result->Set("storage.layout_ms", Median(DurationsMs(spans, "storage.layout")), "ms");
  result->Set("index.btree_ms", Median(DurationsMs(spans, "index.btree")), "ms");
  result->Set("index.rtree_ms", Median(DurationsMs(spans, "index.rtree")), "ms");

  const QueryTally& q = phase.queries;
  result->Set("query.range_us_p50", PercentileOf(q.range_latencies_us, 0.5).value, "us");
  result->Set("query.knn_us_p50", PercentileOf(q.knn_latencies_us, 0.5).value, "us");
  result->Set("query.scan_per_match",
              static_cast<double>(q.records_scanned) /
                  static_cast<double>(std::max<int64_t>(1, q.matches)),
              "frac");
  result->Set("index.nodes_read_mean",
              static_cast<double>(q.index_nodes_read) /
                  static_cast<double>(std::max<size_t>(1, q.latencies_ms.size())),
              "count");
  result->Set("storage.pool_hit_rate",
              static_cast<double>(q.pool_hits) /
                  static_cast<double>(std::max<int64_t>(1, q.pool_accesses)),
              "frac");

  std::vector<double> traced_load;
  for (const LoadRecord& load : phase.loads) traced_load.push_back(load.load_ms);
  result->Set("trace.overhead_frac",
              (Median(traced_load) - untraced_load_p50) / untraced_load_p50,
              "frac");
  result->AddSupport("core.order_ms_p50", order_p50);
}

}  // namespace

RunResult RunMapWorkload(MapKind kind, const RunOptions& options) {
  RunResult result;
  const double setup_s = MeasureSetup(kind, options);
  spectral::MappingService service(ServiceOptions(kSolverThreads));
  {
    // Warm-up load on an input outside the timed sequence, so lazy
    // allocation and first-touch costs are not charged to the first loads.
    auto warm = spectral::BuildQueryPath(
        MakeRequest(GenerateInput(kind, options.seed, -1)), &service,
        spectral::QueryPathOptions{});
    (void)warm;
  }

  Tracer off(false);
  if (!options.trace) {
    const Phase phase = RunPhase(kind, options, service, options.seconds,
                                 kMinLoads, off);
    result.Set("peak_rss_mb", PeakRssMb(), "MiB");
    CheckPhase(phase, kind, options, &result);
    SetEndToEnd(phase, setup_s, &result);
    AddPhaseNote(phase, &result);
    return result;
  }

  spectral::OrderingServerOptions serve_options;
  serve_options.service.parallelism = 1;
  serve_options.service.cache_capacity = 4;
  spectral::OrderingServer server(serve_options);
  ServeProbe probe;
  probe.server = &server;
  if (auto port = server.StartTcp(0); port.ok()) {
    probe.fd = ConnectLoopback(*port);
    // A reply that never comes fails the check instead of hanging the run.
    const timeval timeout{10, 0};
    ::setsockopt(probe.fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  }
  Tracer tracer(true);
  Phase baseline;
  const Phase traced = RunPhase(kind, options, service, options.seconds,
                                kExactLoads, tracer, &probe, &baseline);
  CheckPhase(baseline, kind, options, &result);
  AddPhaseNote(baseline, &result);
  const spectral::OrderingServerStats serve_stats = server.stats();

  // The snapshot layer on the server's cache (the last loads' orders).
  const std::string snapshot = options.workdir + "/map.snapshot";
  auto t0 = Clock::now();
  const bool saved = server.SaveSnapshot(snapshot).ok();
  result.Set("core.snapshot_save_ms", MsBetween(t0, Clock::now()), "ms");
  spectral::OrderingServer restored(serve_options);
  t0 = Clock::now();
  const bool loaded = restored.LoadSnapshot(snapshot).ok();
  result.Set("core.snapshot_load_ms", MsBetween(t0, Clock::now()), "ms");
  result.outcomes.Record(saved && loaded);
  std::remove(snapshot.c_str());
  if (probe.fd >= 0) ::close(probe.fd);
  server.Shutdown();

  std::vector<double> baseline_ms;
  for (const LoadRecord& load : baseline.loads) baseline_ms.push_back(load.load_ms);
  const std::vector<Span> spans = tracer.spans();
  SetPerLayer(traced, spans, Median(baseline_ms), kind, options, serve_stats,
              &result);
  const std::string path = options.workdir + "/trace_" +
                           (kind == MapKind::kConnected ? "map_connected"
                                                        : "map_scattered") +
                           ".csv";
  if (tracer.WriteCsv(path)) result.notes.push_back("spans written to " + path);
  for (std::string& line : SelfTimeReport(spans)) {
    result.notes.push_back(std::move(line));
  }
  return result;
}

// ---------------------------------------------------------------------------
// Query stream, shared with the serve workloads' page metrics.
// ---------------------------------------------------------------------------

QueryStream MakeQueryStream(Coord extent, Coord box, Coord stride,
                            int64_t num_points, int64_t knn_step) {
  QueryStream stream;
  for (Coord y = 0; y + box <= extent; y += stride) {
    for (Coord x = 0; x + box <= extent; x += stride) {
      stream.boxes.push_back(Box{{x, y},
                                 {static_cast<Coord>(x + box - 1),
                                  static_cast<Coord>(y + box - 1)}});
    }
  }
  for (int64_t i = 0; i < num_points; i += knn_step) {
    stream.knn_points.push_back(i);
  }
  return stream;
}

QueryStream MakeScaledQueryStream(const PointSet& points) {
  std::vector<Coord> lo, hi;
  points.Bounds(&lo, &hi);
  const Coord extent = std::max(hi[0], hi[1]) + 1;
  const Coord box = std::max<Coord>(2, extent / 8);
  const Coord stride = std::max<Coord>(1, (7 * box) / 16);
  return MakeQueryStream(extent, box, stride, points.size(), /*knn_step=*/67);
}

void RunQueryStream(const spectral::QueryPath& path, const QueryStream& stream,
                    bool count_pages, QueryTally* tally,
                    std::vector<int64_t>* range_matches) {
  spectral::LruBufferPool pool(kPoolPages);
  const spectral::QueryExecutor executor = path.MakeExecutor(&pool);
  int64_t max_pages = 0;
  auto account = [&](const spectral::QueryResultStats& stats) {
    tally->records_scanned += stats.records_scanned;
    tally->matches += stats.matches;
    tally->index_nodes_read += stats.index_nodes_read;
  };
  const auto begin = Clock::now();
  for (const Box& box : stream.boxes) {
    const auto t0 = Clock::now();
    const spectral::QueryResultStats stats =
        executor.RangeViaBTree(box.lo, box.hi);
    const auto t1 = Clock::now();
    const double ms = MsBetween(t0, t1);
    tally->latencies_ms.push_back(ms);
    tally->range_latencies_us.push_back(ms * 1e3);
    range_matches->push_back(stats.matches);
    account(stats);
    if (count_pages) {
      ++tally->range_queries;
      tally->range_pages += stats.pages_touched;
      max_pages = std::max(max_pages, stats.pages_touched);
    }
  }
  for (const int64_t point : stream.knn_points) {
    const auto t0 = Clock::now();
    const spectral::QueryResultStats stats =
        executor.KnnViaWindow(point, kKnnK, kKnnWindow);
    const auto t1 = Clock::now();
    const double ms = MsBetween(t0, t1);
    tally->latencies_ms.push_back(ms);
    tally->knn_latencies_us.push_back(ms * 1e3);
    account(stats);
    if (count_pages) {
      ++tally->knn_queries;
      tally->knn_pages += stats.pages_touched;
    }
  }
  tally->query_s += MsBetween(begin, Clock::now()) / 1e3;
  tally->pool_hits += pool.hits();
  tally->pool_accesses += pool.accesses();
  if (count_pages && !stream.boxes.empty()) {
    tally->range_pages_max.push_back(static_cast<double>(max_pages));
  }
}

int64_t BruteForceMatches(const PointSet& points, const Box& box) {
  int64_t count = 0;
  for (int64_t i = 0; i < points.size(); ++i) {
    const Coord x = points.At(i, 0), y = points.At(i, 1);
    if (x >= box.lo[0] && x <= box.hi[0] && y >= box.lo[1] && y <= box.hi[1]) {
      ++count;
    }
  }
  return count;
}

spectral::QueryPath AssembleQueryPath(std::shared_ptr<const PointSet> points,
                                      spectral::OrderingResult ordering,
                                      Tracer& tracer, int64_t request,
                                      int64_t parent) {
  const spectral::QueryPathOptions options;
  int64_t span = tracer.Begin("storage.layout", request, parent);
  spectral::StorageLayout layout(ordering.order, options.page_size);
  tracer.End(span);
  span = tracer.Begin("index.btree", request, parent);
  spectral::StaticBPlusTree rank_index =
      spectral::StaticBPlusTree::BuildRankIndex(ordering.order, options.btree);
  tracer.End(span);
  span = tracer.Begin("index.rtree", request, parent);
  spectral::PackedRTree rtree =
      spectral::PackedRTree::Build(*points, ordering.order, options.rtree);
  tracer.End(span);
  return spectral::QueryPath{std::move(points), std::move(ordering),
                             std::move(layout), std::move(rank_index),
                             std::move(rtree), options};
}

}  // namespace perfbench
