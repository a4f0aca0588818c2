// OrderingServer: the long-lived serving tier over the MappingService
// facade — ordering-as-a-service. A process wraps one OrderingServer
// (tools/spectral_serve.cc) and clients speak a line-delimited protocol
// over TCP or a stdin/stdout pipe; in-process consumers (tests, benches)
// submit OrderingRequests directly and get futures back. Either way every
// request flows through the same path:
//
//   Submit -> admission control -> bounded queue -> aggregation window ->
//   one MappingService::OrderBatch -> completion
//
// * Aggregation window: the batcher thread collects requests that arrive
//   within `window_ms` of the oldest pending one (or until `max_batch`)
//   and serves them as ONE OrderBatch call, so concurrently-arriving
//   duplicates are coalesced into a single solve by fingerprint dedup and
//   distinct requests share the solver fan-out. Orders are byte-identical
//   to direct serial engine calls at any window size (the MappingService
//   determinism contract; test-enforced).
// * Admission control + deadlines: when the queue holds `max_queue`
//   requests, new submissions are shed immediately with RESOURCE_EXHAUSTED;
//   a request whose deadline passes before its batch is dispatched
//   completes with DEADLINE_EXCEEDED. Responses always arrive — overload
//   and expiry produce a clean Status, never a hang.
// * Cache persistence: SaveSnapshot/LoadSnapshot move the fingerprint ->
//   order LRU through core/serialization.h, so a restarted server keeps
//   its warm set and performs zero eigensolves on previously-served
//   fingerprints. A corrupt/truncated/wrong-version snapshot is
//   quarantined to "<path>.corrupt" and the server simply starts cold.
//   RotateSnapshot queues the save on a dedicated background writer
//   thread (the snapshot wire command and SIGHUP rotation use it), so a
//   multi-megabyte fsync never stalls batching or reply writing; saves
//   are crash-safe (tmp file + fsync + atomic rename — see
//   core/serialization.h).
// * Fault injection: OrderingServerOptions::faults (a util/fault.h
//   registry, active only in SPECTRAL_FAULTS builds) arms the
//   "serve.dispatch" site here (a dispatched batch fails every live
//   request with a typed INTERNAL error instead of solving), and is
//   handed down to the MappingService ("solver.converge") and the
//   snapshot writer ("snapshot.write"/"snapshot.rename"). Every injected
//   failure surfaces as a well-formed error reply — never a hang.
// * Stats: stats() / the STATS command surface MappingServiceStats plus
//   serving counters (accepted/shed/expired, batches, coalesced requests,
//   queue depth) and p50/p99 latency — overall and split cold (engine
//   solve) vs. warm (cache hit) — from log-scale histograms.
// * Graceful drain: Shutdown() (and the destructor) stop intake, serve
//   everything already queued, then join; in-flight futures all complete.
//
// Wire protocol (one request per line; tokens space-separated; responses
// are one line each, in submission order per connection):
//
//   ORDER <id> <engine> [deadline=<ms>] [connectivity=<orthogonal|moore>]
//         [radius=<n>] GRID <s0>x<s1>[x...]
//   ORDER <id> <engine> [options...] POINTS <dims> <n> <c0> <c1> ...
//   STATS <id>
//   HEALTH <id>
//   SNAPSHOT <id> <path>
//   QUIT
//
//   -> ORDERED <id> <n> <rank of point 0> ... <rank of point n-1>
//   -> ERROR <id> <CODE> <message>        (CODE = StatusCodeName)
//   -> STATS <id> key=value ...
//   -> HEALTH <id> key=value ...
//   -> SAVED <id> <entries> <path>
//   -> BYE                                (answer to QUIT)
//
// <id> is any client-chosen token, echoed verbatim. STATS, HEALTH, and
// SNAPSHOT are rendered at their position in the reply stream, so they
// reflect every earlier ORDER on the connection. SNAPSHOT queues the save
// on the background writer and replies immediately with the entry count;
// HEALTH waits for queued snapshot saves to land first, then reports only
// deterministic counters (no latency percentiles), so scripted fault runs
// can compare HEALTH output byte-for-byte across seeds. Operational knobs
// (OrderingServerOptions): window_ms (aggregation window), max_batch
// (drain cap per batch), max_queue (admission bound), default_deadline_ms
// (0 = none), snapshot_path (used by the spectral_serve tool to restore on
// start and persist on exit), and the embedded MappingServiceOptions
// (worker parallelism + LRU cache capacity).

#ifndef SPECTRAL_LPM_SERVE_ORDERING_SERVER_H_
#define SPECTRAL_LPM_SERVE_ORDERING_SERVER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <iosfwd>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/mapping_service.h"
#include "core/ordering_engine.h"
#include "core/ordering_request.h"
#include "stats/histogram.h"
#include "util/status.h"

namespace spectral {

/// Operational knobs; see the header comment for semantics.
struct OrderingServerOptions {
  /// Worker parallelism and LRU order-cache capacity of the underlying
  /// MappingService.
  MappingServiceOptions service;
  /// Aggregation window: requests arriving within this many milliseconds
  /// of the oldest pending request are served as one OrderBatch. 0 still
  /// coalesces whatever is queued when the batcher wakes.
  double window_ms = 1.0;
  /// Max requests dispatched as one batch.
  size_t max_batch = 64;
  /// Admission bound: submissions beyond this many queued requests are
  /// shed with RESOURCE_EXHAUSTED.
  size_t max_queue = 1024;
  /// Deadline applied when a request does not carry its own; <= 0 = none.
  double default_deadline_ms = 0.0;
  /// Snapshot file the spectral_serve tool restores from on start and
  /// saves to on exit; the server itself only acts on explicit
  /// SaveSnapshot/LoadSnapshot/RotateSnapshot calls (and the SNAPSHOT
  /// wire command / SIGHUP rotation in the tool).
  std::string snapshot_path;
  /// Optional fault-injection registry (not owned; must outlive the
  /// server). Arms "serve.dispatch" here and is forwarded to the
  /// MappingService (unless service.faults is already set) and the
  /// snapshot writer. Runtime-only; a no-op unless built with
  /// SPECTRAL_FAULTS.
  FaultInjector* faults = nullptr;
};

/// Point-in-time serving statistics (all counters since construction or
/// the last ResetStats()).
struct OrderingServerStats {
  MappingServiceStats service;
  int64_t accepted = 0;
  int64_t shed_overload = 0;
  int64_t expired_deadline = 0;
  int64_t served_ok = 0;
  int64_t served_error = 0;
  /// Background snapshot rotations that landed on disk / failed (an
  /// injected or real write error; the previous snapshot generation at
  /// the target path survives either way).
  int64_t snapshots_saved = 0;
  int64_t snapshot_failures = 0;
  size_t queue_depth = 0;
  size_t max_queue_depth = 0;
  /// Submit-to-completion latency percentiles in milliseconds (log-scale
  /// histogram approximation, ~2% resolution). "cold" = served by an
  /// engine solve, "warm" = served from the order cache.
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double cold_p50_ms = 0.0;
  double cold_p99_ms = 0.0;
  double warm_p50_ms = 0.0;
  double warm_p99_ms = 0.0;
};

class OrderingServer {
 public:
  explicit OrderingServer(OrderingServerOptions options = {});
  /// Graceful drain: equivalent to Shutdown().
  ~OrderingServer();
  OrderingServer(const OrderingServer&) = delete;
  OrderingServer& operator=(const OrderingServer&) = delete;

  /// Enqueues one request. The future always becomes ready: with the
  /// result, or with RESOURCE_EXHAUSTED (queue full), DEADLINE_EXCEEDED
  /// (expired before dispatch), or FAILED_PRECONDITION (server shut down).
  /// deadline_ms < 0 applies options().default_deadline_ms.
  std::future<StatusOr<OrderingResult>> Submit(OrderingRequest request,
                                               double deadline_ms = -1.0);

  /// Pauses/resumes batch dispatch (admission continues). Pausing lets
  /// tests and drain tooling compose a deterministic batch: everything
  /// submitted while paused is dispatched as one batch on Resume (up to
  /// max_batch). Shutdown overrides a pause.
  void Pause();
  void Resume();

  OrderingServerStats stats() const;
  /// Zeroes serving counters and latency histograms (and the underlying
  /// MappingService counters). Cache contents are retained.
  void ResetStats();
  /// The "STATS <id> key=value ..." response line.
  std::string StatsLine(const std::string& id) const;
  /// The "HEALTH <id> key=value ..." response line: deterministic
  /// counters only (accepted/shed/expired/served, retries, degraded
  /// orders, cache entries, snapshot rotations) — no latency fields, so
  /// identical request+fault schedules produce identical HEALTH lines.
  std::string HealthLine(const std::string& id) const;

  /// Writes the current order cache to `path` synchronously (ExportCache
  /// -> crash-safe SaveOrderCacheSnapshotToFile). Used for the final save
  /// on process exit; live rotation goes through RotateSnapshot.
  Status SaveSnapshot(const std::string& path) const;
  /// Restores the order cache from `path`; returns the number of entries
  /// imported. On any parse error the damaged file is quarantined to
  /// "<path>.corrupt", the cache is left untouched (the server starts
  /// cold), and the error is returned.
  StatusOr<int64_t> LoadSnapshot(const std::string& path);
  /// Snapshots the cache to `path` off the serving path: clones the cache
  /// now, queues the write on the background snapshot writer, and returns
  /// the number of entries the snapshot will contain. The write itself is
  /// crash-safe; failures bump stats().snapshot_failures and leave any
  /// previous snapshot at `path` intact. Returns FAILED_PRECONDITION
  /// after Shutdown().
  StatusOr<int64_t> RotateSnapshot(const std::string& path);
  /// Blocks until every queued RotateSnapshot write has completed.
  void FlushSnapshots();

  /// Serves the line protocol over a stream pair until QUIT or EOF.
  /// Responses are written in submission order; ORDER lines are submitted
  /// as they are read, so a client that pipelines requests gets them
  /// coalesced by the aggregation window. Blocking; returns when the
  /// stream ends.
  void ServeStream(std::istream& in, std::ostream& out);

  /// Listens on 127.0.0.1:`port` (0 = ephemeral) and serves each accepted
  /// connection on its own thread via ServeStream. Returns the bound port.
  StatusOr<int> StartTcp(int port);

  /// Stops intake, drains the queue (all pending futures complete), stops
  /// the TCP listener and connection threads, joins the batcher, then
  /// drains and joins the snapshot writer (queued rotations still land).
  /// Idempotent.
  void Shutdown();

  const OrderingServerOptions& options() const { return options_; }
  MappingService& service() { return service_; }

 private:
  struct Pending {
    OrderingRequest request;
    std::promise<StatusOr<OrderingResult>> promise;
    std::chrono::steady_clock::time_point enqueue;
    std::chrono::steady_clock::time_point deadline;
    bool has_deadline = false;
  };

  struct SnapshotJob {
    std::string path;
    std::vector<OrderCacheEntry> entries;
  };

  void BatcherLoop();
  void DispatchBatch(std::vector<Pending> batch);
  void AcceptLoop();
  void SnapshotLoop();
  /// Caller holds stats_mu_.
  void RecordLatencyLocked(double ms, bool warm);

  const OrderingServerOptions options_;
  MappingService service_;

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Pending> queue_;
  bool paused_ = false;
  bool shutdown_ = false;

  mutable std::mutex stats_mu_;
  int64_t accepted_ = 0;
  int64_t shed_overload_ = 0;
  int64_t expired_deadline_ = 0;
  int64_t served_ok_ = 0;
  int64_t served_error_ = 0;
  size_t max_queue_depth_ = 0;
  // log10(latency ms) histograms; see RecordLatencyLocked.
  Histogram latency_all_;
  Histogram latency_cold_;
  Histogram latency_warm_;

  std::thread batcher_;

  // Background snapshot writer: RotateSnapshot enqueues, SnapshotLoop
  // drains. Counters live under snap_mu_ (stats() reads them there).
  mutable std::mutex snap_mu_;
  std::condition_variable snap_cv_;
  std::deque<SnapshotJob> snap_queue_;
  bool snap_inflight_ = false;
  bool snap_shutdown_ = false;
  int64_t snapshots_saved_ = 0;
  int64_t snapshot_failures_ = 0;
  std::thread snapshot_writer_;

  std::mutex tcp_mu_;
  int listen_fd_ = -1;
  std::thread accept_thread_;
  std::vector<int> connection_fds_;
  std::vector<std::thread> connection_threads_;
};

}  // namespace spectral

#endif  // SPECTRAL_LPM_SERVE_ORDERING_SERVER_H_
