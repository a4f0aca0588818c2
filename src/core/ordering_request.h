// OrderingRequest: the one value type every consumer uses to ask for a
// linear order. A request names the engine (an OrderingEngine registry
// name), carries a tagged input source — a point set, a caller-built graph,
// or points plus affinity edges — and embeds the full per-request option
// set. Requests are self-describing: Fingerprint() is a stable content hash
// of the input and the effective options, which is what MappingService keys
// its order cache on and what batch deduplication compares.
//
// Input payloads are held by shared_ptr<const T> so a request is a value:
// copyable, storable in batches, and safe to hand across threads. The
// borrowing factories (taking const T&) wrap the caller's object without
// copying — the caller must keep it alive until every Order/OrderBatch call
// using the request has returned. The owning factories (taking shared_ptr)
// tie the payload's lifetime to the request.

#ifndef SPECTRAL_LPM_CORE_ORDERING_REQUEST_H_
#define SPECTRAL_LPM_CORE_ORDERING_REQUEST_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/recursive_bisection.h"
#include "core/spectral_lpm.h"
#include "graph/graph.h"
#include "space/point_set.h"
#include "util/hash.h"
#include "util/status.h"

namespace spectral {

/// Per-request configuration shared by every engine family.
struct OrderingEngineOptions {
  /// Graph build + eigensolver configuration for the spectral family (also
  /// the `base` of bisection). `parallelism` and `pool` live here.
  SpectralLpmOptions spectral;
  /// Recursion shape for "bisection"; its `base` member is ignored in favor
  /// of `spectral` above.
  RecursiveBisectionOptions bisection;
};

/// Which input payload a request carries.
enum class OrderingInputKind {
  /// A point set; the engine builds its own neighborhood graph (or grid).
  kPoints,
  /// A point set plus extra affinity edges by point index (paper section 4:
  /// "treat p and q as if they were at distance 1"). Spectral family only.
  kPointsWithAffinity,
  /// A caller-built graph whose weights encode mapping priority; `points`
  /// is optional and only canonicalizes degenerate eigenspaces. Spectral
  /// family only.
  kGraph,
};

/// A single ordering request: engine name + tagged input + options.
struct OrderingRequest {
  /// OrderingEngine registry name (see AllOrderingEngineNames()). Engines
  /// reject requests addressed to a different engine, which keeps cache
  /// keys and batch routing honest.
  std::string engine = "spectral";

  OrderingInputKind input = OrderingInputKind::kPoints;
  /// kPoints / kPointsWithAffinity payload; optional canonicalization hint
  /// under kGraph.
  std::shared_ptr<const PointSet> points;
  /// kGraph payload.
  std::shared_ptr<const Graph> graph;
  /// kPointsWithAffinity payload, appended to options.spectral's edges.
  std::vector<GraphEdge> affinity_edges;

  /// Full per-request configuration (no hidden engine state).
  OrderingEngineOptions options;

  // Borrowing factories: the payload is referenced, not copied; the caller
  // keeps it alive until the request is no longer used.
  static OrderingRequest ForPoints(const PointSet& points,
                                   std::string_view engine = "spectral");
  static OrderingRequest ForPointsWithAffinity(
      const PointSet& points, std::vector<GraphEdge> affinity_edges,
      std::string_view engine = "spectral");
  static OrderingRequest ForGraph(const Graph& graph,
                                  const PointSet* canonical_points = nullptr,
                                  std::string_view engine = "spectral");

  // Owning factories: the request shares ownership of the payload.
  static OrderingRequest ForPoints(std::shared_ptr<const PointSet> points,
                                   std::string_view engine = "spectral");
  static OrderingRequest ForGraph(std::shared_ptr<const Graph> graph,
                                  std::shared_ptr<const PointSet>
                                      canonical_points = nullptr,
                                  std::string_view engine = "spectral");

  /// Structural validity: a non-empty engine name and a payload matching
  /// `input` (points for the point kinds, graph for kGraph, affinity edges
  /// only under kPointsWithAffinity). Engines call this before ordering;
  /// MappingService rejects invalid requests without consulting the cache.
  Status Validate() const;

  /// Stable content hash of the request: canonical engine name (an alias
  /// such as "spectral-multilevel" hashes as "spectral"), input kind, the
  /// *contents* of the point set / graph / affinity edges, and the
  /// effective options — the option fields the named engine actually reads
  /// (curve engines read none; `bisection.base` is always overwritten by
  /// the engine and never hashed; unknown engine names conservatively hash
  /// everything). Two requests with equal fingerprints produce
  /// byte-identical OrderingResults, so the fingerprint is a sound cache
  /// key, and requests differing only in ignored fields share one cache
  /// entry. Runtime-only fields are excluded: `spectral.parallelism`,
  /// `spectral.pool`, `spectral.faults`, and the fiedler `matvec_pool`
  /// pointers never change the computed order of a fault-free solve
  /// (solves are byte-identical across thread counts) and would otherwise
  /// defeat caching across differently-parallel runs.
  Fingerprint128 Fingerprint() const;

  /// Number of input vertices (points or graph vertices); 0 when the
  /// payload is missing. MappingService schedules batches largest-first.
  int64_t InputSize() const;

  /// The configuration the spectral family solves with: options.spectral
  /// with this request's affinity edges appended to any configured ones.
  SpectralLpmOptions EffectiveSpectralOptions() const;
};

}  // namespace spectral

#endif  // SPECTRAL_LPM_CORE_ORDERING_REQUEST_H_
