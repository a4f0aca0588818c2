// MappingService: the batching, caching front end over the OrderingEngine
// registry — the seam a production deployment talks to.
//
//   MappingService service;
//   auto result = service.Order(OrderingRequest::ForPoints(points));
//   auto batch  = service.OrderBatch(requests);
//
// OrderBatch deduplicates requests by fingerprint, consults an LRU order
// cache (keyed by OrderingRequest::Fingerprint(), a content hash of input +
// options), and fans the remaining solves out largest-first across one
// shared util/thread_pool. That same pool is handed down to the spectral
// engines (SpectralLpmOptions::pool), so request fan-out, per-component
// Fiedler solves, and row-partitioned matvecs all draw from a single set of
// workers instead of nesting a pool per request.
//
// Determinism contract: results are byte-identical to issuing the requests
// one at a time against a fresh engine — cache on or off, any parallelism —
// because every engine solve is deterministic and independent. The only
// service-added artifacts record how each request was served: the typed
// OrderingResult::served_from and ::degraded, and the " | degraded=..." and
// " | cache=hit|miss|off" suffixes rendered from them onto
// OrderingResult::detail; hit/miss/
// eviction *counters* live in the MappingServiceStats struct. (One
// divergence from a strict serial replay: within a batch, duplicate
// requests are served from one solve even if a serial replay would have
// evicted the entry in between; the order payload is identical either way.)

#ifndef SPECTRAL_LPM_CORE_MAPPING_SERVICE_H_
#define SPECTRAL_LPM_CORE_MAPPING_SERVICE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/ordering_engine.h"
#include "core/ordering_request.h"
#include "util/hash.h"
#include "util/status.h"

namespace spectral {

class FaultInjector;
class ThreadPool;

/// Options for MappingService.
struct MappingServiceOptions {
  /// Worker threads shared by batch fan-out and the spectral engines'
  /// component/matvec parallelism. 0 = hardware_concurrency, 1 = serial:
  /// no pool, and a request whose spectral.parallelism is 0 ("auto") runs
  /// with 1; an explicit request value still applies.
  int parallelism = 0;
  /// Capacity of the LRU order cache, in cached results. 0 disables
  /// caching (batch-level deduplication still applies).
  size_t cache_capacity = 128;
  /// Optional fault-injection registry (not owned; must outlive the
  /// service). Handed to every engine solve as spectral.faults, so a
  /// SPECTRAL_FAULTS build can script "solver.converge" failures through
  /// the full ladder below. Runtime-only: never fingerprinted, a no-op in
  /// normal builds.
  FaultInjector* faults = nullptr;
  /// Degradation ladder for unconverged solves (converged == false on an
  /// otherwise-ok result). When enabled: retry the solve once with
  /// max_restarts escalated by retry_restart_multiplier; if still
  /// unconverged, serve the fallback curve order (point inputs) or the
  /// best-effort spectral order (graph inputs), marked in
  /// OrderingResult::degraded. Unconverged results are never cached either way — the
  /// ladder only decides what gets served.
  bool degrade_unconverged = true;
  /// Restart-budget escalation factor for the ladder's single retry.
  int retry_restart_multiplier = 4;
  /// Geometry-only engine serving degraded point requests ("hilbert",
  /// "sweep", ...). Must accept kPoints requests.
  std::string fallback_engine = "hilbert";
};

/// Service-level counters. Hits count requests served without running an
/// engine (LRU hit or duplicate-in-batch); misses count engine solves.
struct MappingServiceStats {
  int64_t requests = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t cache_evictions = 0;
  /// Requests that returned an error (errors are never cached).
  int64_t failures = 0;
  /// Engine invocations actually run (== cache_misses).
  int64_t solves = 0;
  /// Eigensolver matvecs performed by those solves. Unchanged by a
  /// warm-cache batch: repeats cost zero additional eigensolver work.
  int64_t solver_matvecs = 0;
  /// OrderBatch invocations (Order() counts as a batch of one).
  int64_t batches = 0;
  /// Valid requests served from another request in the *same* batch
  /// (within-batch fingerprint dedup; a subset of cache_hits).
  int64_t coalesced_requests = 0;
  /// Wall time spent inside OrderBatch, summed over batches / worst batch.
  double batch_latency_total_ms = 0.0;
  double batch_latency_max_ms = 0.0;
  /// Ladder rung 1: solves re-run with an escalated restart budget after
  /// the first attempt came back unconverged. Not counted in `solves`
  /// (that stays == cache_misses, one per distinct request).
  int64_t retried_solves = 0;
  /// Ladder rung 2: requests served a degraded order (fallback curve or
  /// marked best-effort spectral). Degraded results are never cached.
  int64_t degraded_orders = 0;

  /// Zeroes every counter (a stats window boundary, e.g. between the cold
  /// and warm phases of a serving bench).
  void Reset() { *this = MappingServiceStats(); }
};

/// One persistable order-cache entry: the cache key plus the engine result
/// exactly as the LRU stores it (served_from == kDirect and no
/// " | cache=..." annotation — both are added per serve, not per entry).
/// See core/serialization.h for the snapshot wire format.
struct OrderCacheEntry {
  Fingerprint128 fingerprint;
  OrderingResult result;
};

/// Thread-safe facade: Order/OrderBatch may be called from any thread.
class MappingService {
 public:
  explicit MappingService(MappingServiceOptions options = {});
  ~MappingService();
  MappingService(const MappingService&) = delete;
  MappingService& operator=(const MappingService&) = delete;

  /// Orders one request (a batch of one: same cache, same counters).
  StatusOr<OrderingResult> Order(const OrderingRequest& request);

  /// Orders every request, returning results aligned with the input span.
  /// Requests are deduplicated by fingerprint, cache-checked, and the
  /// remaining solves run largest-first on the shared pool. A failed solve
  /// fails every duplicate of that request with the same status.
  std::vector<StatusOr<OrderingResult>> OrderBatch(
      std::span<const OrderingRequest> requests);

  MappingServiceStats stats() const;
  /// Zeroes the counters (the cache contents are retained).
  void ResetStats();
  /// Drops every cached order (counters are retained).
  void ClearCache();
  /// Entries currently held by the LRU order cache.
  size_t CacheSize() const;
  const MappingServiceOptions& options() const { return options_; }

  /// Copies the LRU order cache, most-recently-used first — the payload a
  /// serving tier snapshots to disk so a restarted process keeps its warm
  /// set (core/serialization.h WriteOrderCacheSnapshot).
  std::vector<OrderCacheEntry> ExportCache() const;

  /// Pre-fills the cache from a snapshot. Entries must be ordered
  /// most-recently-used first (ExportCache order); recency is preserved.
  /// Entries beyond cache_capacity and fingerprints already cached are
  /// skipped; caching disabled imports nothing. Returns the number of
  /// entries actually inserted. Counters are untouched: restoring a warm
  /// set is not a hit, a miss, or an eviction.
  int64_t ImportCache(std::span<const OrderCacheEntry> entries);

 private:
  /// Moves `fingerprint` to the front of the LRU, inserting `result` if
  /// absent; evicts from the back past capacity. Caller holds mu_.
  void InsertLocked(const Fingerprint128& fingerprint,
                    const OrderingResult& result);

  const MappingServiceOptions options_;
  std::unique_ptr<ThreadPool> pool_;  // null when serial

  mutable std::mutex mu_;
  // LRU: most recently used at the front; index_ points into lru_.
  std::list<std::pair<Fingerprint128, OrderingResult>> lru_;
  std::unordered_map<Fingerprint128,
                     std::list<std::pair<Fingerprint128, OrderingResult>>::
                         iterator,
                     Fingerprint128Hash>
      index_;
  MappingServiceStats stats_;
};

}  // namespace spectral

#endif  // SPECTRAL_LPM_CORE_MAPPING_SERVICE_H_
