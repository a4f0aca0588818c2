// The four benchmark workloads and the query stream they share.
//
//   map_connected  closed loop: one 8192-point connected blob per load
//   map_scattered  closed loop: one 2048-point four-cluster set per load
//   serve_hot      open loop, ~2000 req/s, every request a cache hit
//   serve_churn    open loop, ~60 req/s, Zipfian mix with misses + rotation
//
// README.md in this directory records why each was chosen and which layer
// metric should move which end-to-end metric on which workload.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "harness.h"
#include "query/executor.h"
#include "space/point_set.h"

namespace perfbench {

enum class MapKind { kConnected, kScattered };
enum class ServeKind { kHot, kChurn };

RunResult RunMapWorkload(MapKind kind, const RunOptions& options);
RunResult RunServeWorkload(ServeKind kind, const RunOptions& options);

/// Closed 2-d box [lo, hi].
struct Box {
  std::array<spectral::Coord, 2> lo;
  std::array<spectral::Coord, 2> hi;
};

/// The fixed query stream run against every loaded input: square range
/// boxes sliding at an unaligned stride over the input's extent, plus
/// window kNN probes at every `knn_step`-th point.
struct QueryStream {
  std::vector<Box> boxes;
  std::vector<int64_t> knn_points;
};
QueryStream MakeQueryStream(spectral::Coord extent, spectral::Coord box,
                            spectral::Coord stride, int64_t num_points,
                            int64_t knn_step);
/// The stream scaled to a point set's bounding extent (box = extent / 8).
QueryStream MakeScaledQueryStream(const spectral::PointSet& points);

inline constexpr int kKnnK = 10;
inline constexpr int64_t kKnnWindow = 32;
inline constexpr int64_t kPoolPages = 64;

/// Page and counter totals of query streams run against loaded inputs.
struct QueryTally {
  std::vector<double> latencies_ms;       // every query
  std::vector<double> range_latencies_us;  // range queries
  std::vector<double> knn_latencies_us;    // kNN queries
  double query_s = 0.0;
  int64_t range_queries = 0;
  int64_t range_pages = 0;
  std::vector<double> range_pages_max;  // one per input
  int64_t knn_queries = 0;
  int64_t knn_pages = 0;
  int64_t records_scanned = 0;
  int64_t matches = 0;
  int64_t index_nodes_read = 0;
  int64_t pool_hits = 0;
  int64_t pool_accesses = 0;
};

/// Runs `stream` against `path` through a fresh 64-page buffer pool,
/// timing each query. Range `matches` are appended to `range_matches` for
/// the later brute-force check. Pages count into `tally` only when
/// `count_pages` (page metrics use a fixed prefix of the inputs so they
/// repeat exactly for one seed).
void RunQueryStream(const spectral::QueryPath& path, const QueryStream& stream,
                    bool count_pages, QueryTally* tally,
                    std::vector<int64_t>* range_matches);

/// Points of `points` inside `box` (the brute-force reference).
int64_t BruteForceMatches(const spectral::PointSet& points, const Box& box);

/// Materializes an already-computed order into its physical design (layout,
/// rank B+-tree, packed R-tree), recording one span per index under
/// `parent` when tracing.
spectral::QueryPath AssembleQueryPath(
    std::shared_ptr<const spectral::PointSet> points,
    spectral::OrderingResult ordering, Tracer& tracer, int64_t request,
    int64_t parent);

/// "<engine> POINTS 2 <n> <coords...>": a point set as the body of an ORDER
/// wire line.
std::string PointsBody(const std::string& engine,
                       const spectral::PointSet& points);

/// Connects to 127.0.0.1:`port` with Nagle off and quick ACKs on; -1 on
/// failure.
int ConnectLoopback(int port);
/// Re-arms the socket's quick-ACK mode after a read (see its definition).
void QuickAck(int fd);
/// Writes all of `data`; false on a closed or failed socket.
bool SendAll(int fd, std::string_view data);
/// Reads the next '\n'-terminated line (without it) into `line`, keeping
/// bytes past it in `inbox`; false on EOF or error.
bool ReadLine(int fd, std::string* inbox, std::string* line);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
