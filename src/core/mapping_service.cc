#include "core/mapping_service.h"

#include <algorithm>
#include <utility>

#include "util/thread_pool.h"
#include "util/timer.h"

namespace spectral {

namespace {

// Records how a batch slot was served, as the typed field and as the
// " | cache=..." tag rendered from it onto detail, after the " | degraded=..."
// tag rendered from `degraded`. Both mirror what a one-at-a-time replay
// would report, so batched and serial results stay byte-identical.
void Annotate(OrderingResult& result, ServeKind kind) {
  if (!result.degraded.empty()) {
    result.detail += " | degraded=" + result.degraded;
  }
  result.served_from = kind;
  switch (kind) {
    case ServeKind::kDirect:
      return;
    case ServeKind::kOff:
      result.detail += " | cache=off";
      return;
    case ServeKind::kHit:
      result.detail += " | cache=hit";
      return;
    case ServeKind::kMiss:
      result.detail += " | cache=miss";
      return;
  }
}

}  // namespace

MappingService::MappingService(MappingServiceOptions options)
    : options_(options) {
  int threads = options_.parallelism;
  if (threads <= 0) threads = ThreadPool::DefaultThreads();
  if (threads > 1) pool_ = std::make_unique<ThreadPool>(threads);
}

MappingService::~MappingService() = default;

StatusOr<OrderingResult> MappingService::Order(const OrderingRequest& request) {
  auto results = OrderBatch(std::span<const OrderingRequest>(&request, 1));
  return std::move(results.front());
}

std::vector<StatusOr<OrderingResult>> MappingService::OrderBatch(
    std::span<const OrderingRequest> requests) {
  const WallTimer batch_timer;
  const bool cache_enabled = options_.cache_capacity > 0;

  // One job per distinct fingerprint; slots remember which requests it
  // serves, in input order (slots.front() is the first occurrence).
  struct Job {
    const OrderingRequest* request = nullptr;
    Fingerprint128 fingerprint;
    std::vector<size_t> slots;
    StatusOr<OrderingResult> result{Status(StatusCode::kInternal, "unsolved")};
    bool cached = false;
    /// True once an engine actually ran the request (as opposed to engine
    /// construction failing), so the solve counters stay honest.
    bool engine_ran = false;
    /// Ladder rung 1 ran: the solve was retried with an escalated budget.
    /// Rung 2 leaves its mark on the result itself (`degraded`).
    bool retried = false;
  };

  std::vector<StatusOr<OrderingResult>> results(
      requests.size(), StatusOr<OrderingResult>(
                           Status(StatusCode::kInternal, "unassigned slot")));
  std::vector<Job> jobs;
  std::unordered_map<Fingerprint128, size_t, Fingerprint128Hash> job_of;
  int64_t invalid = 0;

  for (size_t i = 0; i < requests.size(); ++i) {
    if (Status s = requests[i].Validate(); !s.ok()) {
      results[i] = std::move(s);
      ++invalid;
      continue;
    }
    const Fingerprint128 fp = requests[i].Fingerprint();
    auto [it, inserted] = job_of.try_emplace(fp, jobs.size());
    if (inserted) {
      Job job;
      job.request = &requests[i];
      job.fingerprint = fp;
      jobs.push_back(std::move(job));
    }
    jobs[it->second].slots.push_back(i);
  }

  // Cache lookups, all up-front (solves below never change what this batch
  // hits: a duplicate of a missed request is served from the batch's own
  // solve, exactly as a serial replay would find it freshly cached).
  std::vector<size_t> to_solve;
  if (cache_enabled) {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t j = 0; j < jobs.size(); ++j) {
      auto it = index_.find(jobs[j].fingerprint);
      if (it == index_.end()) {
        to_solve.push_back(j);
        continue;
      }
      lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
      jobs[j].result = it->second->second;
      jobs[j].cached = true;
    }
  } else {
    to_solve.resize(jobs.size());
    for (size_t j = 0; j < jobs.size(); ++j) to_solve[j] = j;
  }

  // Largest solves first: the biggest eigenproblem dominates the critical
  // path, so it must start before the small fry. Ties keep input order.
  std::sort(to_solve.begin(), to_solve.end(), [&](size_t a, size_t b) {
    const int64_t sa = jobs[a].request->InputSize();
    const int64_t sb = jobs[b].request->InputSize();
    if (sa != sb) return sa > sb;
    return jobs[a].slots.front() < jobs[b].slots.front();
  });

  auto solve = [&](size_t j) {
    Job& job = jobs[j];
    auto engine = MakeOrderingEngine(job.request->engine);
    if (!engine.ok()) {
      job.result = engine.status();
      return;
    }
    job.engine_ran = true;
    // Hand the batch pool down so component solves and matvecs reuse it
    // (no nested pools); the pool never changes the result. A pool-less
    // service is serial: a request left at "auto" parallelism runs on the
    // calling thread instead of spawning a pool of its own.
    OrderingRequest shared = *job.request;
    if (pool_ != nullptr) {
      shared.options.spectral.pool = pool_.get();
    } else if (shared.options.spectral.parallelism == 0) {
      shared.options.spectral.parallelism = 1;
    }
    shared.options.spectral.faults = options_.faults;
    job.result = (*engine)->Order(shared);

    // Degradation ladder: an ok-but-unconverged order climbs two rungs —
    // one retry with an escalated restart budget, then a degraded serve.
    // Whatever rung wins, an unconverged result is never cached (gated at
    // the insert below on result->converged).
    if (!options_.degrade_unconverged || !job.result.ok() ||
        job.result->converged) {
      return;
    }
    job.retried = true;
    OrderingRequest retry = shared;
    int& budget = retry.options.spectral.fiedler.max_restarts;
    budget = std::max(1, budget * std::max(1, options_.retry_restart_multiplier));
    if (auto second = (*engine)->Order(retry);
        second.ok() && second->converged) {
      job.result = std::move(second);
      return;
    }
    // Rung 2. Point inputs fall back to the configured geometry-only curve
    // engine; graph inputs have no geometry to fall back on and serve the
    // best-effort spectral order instead. Both are tagged degraded and
    // carry converged == false.
    if (job.request->points != nullptr &&
        job.request->input != OrderingInputKind::kGraph &&
        job.request->engine != options_.fallback_engine) {
      auto fallback_engine = MakeOrderingEngine(options_.fallback_engine);
      if (fallback_engine.ok()) {
        auto fallback = (*fallback_engine)
                            ->Order(OrderingRequest::ForPoints(
                                job.request->points,
                                options_.fallback_engine));
        if (fallback.ok()) {
          fallback->converged = false;
          fallback->degraded = options_.fallback_engine;
          job.result = std::move(fallback);
          return;
        }
      }
    }
    job.result->degraded = "unconverged";
  };

  if (pool_ != nullptr && to_solve.size() > 1) {
    pool_->ParallelFor(0, static_cast<int64_t>(to_solve.size()), 1,
                       [&](int64_t i) {
                         solve(to_solve[static_cast<size_t>(i)]);
                       });
  } else {
    for (size_t j : to_solve) solve(j);
  }

  // Publish counters and cache inserts (first-occurrence order keeps the
  // LRU state deterministic) under the lock; the O(n)-sized per-slot
  // result copies are built after it drops so concurrent callers only
  // contend on the bookkeeping.
  {
    const double batch_ms = batch_timer.ElapsedSeconds() * 1e3;
    std::lock_guard<std::mutex> lock(mu_);
    stats_.requests += static_cast<int64_t>(requests.size());
    stats_.failures += invalid;
    stats_.batches += 1;
    stats_.coalesced_requests += static_cast<int64_t>(requests.size()) -
                                 invalid - static_cast<int64_t>(jobs.size());
    stats_.batch_latency_total_ms += batch_ms;
    stats_.batch_latency_max_ms =
        std::max(stats_.batch_latency_max_ms, batch_ms);
    for (Job& job : jobs) {
      stats_.retried_solves += job.retried ? 1 : 0;
      if (!job.result.ok()) {
        // Engine-construction failures (unknown name) never ran a solve
        // and keep the solves == cache_misses invariant out of the
        // counters.
        stats_.solves += job.engine_ran ? 1 : 0;
        stats_.cache_misses += job.engine_ran ? 1 : 0;
        stats_.failures += static_cast<int64_t>(job.slots.size());
        continue;
      }
      stats_.degraded_orders += job.result->degraded.empty()
                                    ? 0
                                    : static_cast<int64_t>(job.slots.size());
      if (job.cached) {
        stats_.cache_hits += static_cast<int64_t>(job.slots.size());
      } else {
        stats_.cache_misses += 1;
        stats_.solves += 1;
        stats_.solver_matvecs += job.result->matvecs;
        stats_.cache_hits += static_cast<int64_t>(job.slots.size()) - 1;
        // Unconverged (and therefore degraded) orders must never poison
        // the cache or any snapshot exported from it.
        if (cache_enabled && job.result->converged) {
          InsertLocked(job.fingerprint, *job.result);
        }
      }
    }
  }
  for (Job& job : jobs) {
    if (!job.result.ok()) {
      for (size_t slot : job.slots) results[slot] = job.result.status();
      continue;
    }
    for (size_t k = 0; k < job.slots.size(); ++k) {
      OrderingResult copy = *job.result;
      Annotate(copy, !cache_enabled ? ServeKind::kOff
               : (job.cached || k > 0) ? ServeKind::kHit
                                       : ServeKind::kMiss);
      results[job.slots[k]] = std::move(copy);
    }
  }
  return results;
}

void MappingService::InsertLocked(const Fingerprint128& fingerprint,
                                  const OrderingResult& result) {
  auto it = index_.find(fingerprint);
  if (it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(fingerprint, result);
  index_[fingerprint] = lru_.begin();
  while (lru_.size() > options_.cache_capacity) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    stats_.cache_evictions += 1;
  }
}

MappingServiceStats MappingService::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void MappingService::ResetStats() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.Reset();
}

std::vector<OrderCacheEntry> MappingService::ExportCache() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<OrderCacheEntry> entries;
  entries.reserve(lru_.size());
  for (const auto& [fingerprint, result] : lru_) {
    entries.push_back(OrderCacheEntry{fingerprint, result});
  }
  return entries;
}

int64_t MappingService::ImportCache(std::span<const OrderCacheEntry> entries) {
  if (options_.cache_capacity == 0) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  // Insert in reverse so the snapshot's most-recent entry ends up at the
  // front of the LRU; entries past capacity would be evicted immediately,
  // so they are skipped up front (without bumping the eviction counter —
  // restoring a snapshot is not cache traffic).
  const size_t limit = std::min(entries.size(), options_.cache_capacity);
  int64_t inserted = 0;
  for (size_t i = limit; i-- > 0;) {
    const OrderCacheEntry& entry = entries[i];
    if (index_.find(entry.fingerprint) != index_.end()) continue;
    lru_.emplace_front(entry.fingerprint, entry.result);
    index_[entry.fingerprint] = lru_.begin();
    ++inserted;
  }
  while (lru_.size() > options_.cache_capacity) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
  }
  return inserted;
}

void MappingService::ClearCache() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
}

size_t MappingService::CacheSize() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

}  // namespace spectral
