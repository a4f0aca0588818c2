// serve_hot / serve_churn: open-loop traffic against an in-process
// OrderingServer listening on loopback TCP.
//
// One generator thread sends each wire line at its due time over at most
// four connections (request i on connection i % 4); one reader thread polls
// all connections and timestamps every reply line. Latency runs from the
// due time to the moment the reply line is read. After the timed phase the
// harness checks every reply against the direct registry-engine order of
// its parsed request, then lays each distinct served order out into pages
// and indexes and runs the scaled query stream on it for the page metrics.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <future>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

#include "core/mapping_service.h"
#include "core/ordering_engine.h"
#include "core/serialization.h"
#include "serve/ordering_server.h"
#include "serve/wire.h"
#include "util/random.h"
#include "workload/generators.h"
#include "workload/trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using spectral::Coord;
using spectral::PointSet;

constexpr int kConnections = 4;
constexpr int kSolverThreads = 4;
constexpr int kSetupReps = 5;
// Latency percentiles are medians over windows of at least this many
// requests (see WindowedPercentile), enough for p99 in each window.
constexpr int64_t kLatencyWindow = 1000;
// serve_churn replays this many requests of its mix into the cache before
// the timed phase, so timing starts from a warm, steady hit rate.
constexpr int64_t kChurnWarmRequests = 1024;

struct ServeSpec {
  const char* name;
  double rate_per_s;
  double latency_limit_ms;
  size_t cache_capacity;
  double rotate_every_s;  // 0 = no snapshot rotation
};

// serve_churn's cache holds half its universe. With 64 entries (hit rate
// ~0.56) the median request sat on the step between hits and requests
// queued behind solves, and its latency swung by 2x between runs of one
// seed; at 256 the median is a hit and the solves shape the tail.
ServeSpec SpecOf(ServeKind kind) {
  if (kind == ServeKind::kHot) {
    return ServeSpec{"serve_hot", 2000.0, 5.0, 128, 0.0};
  }
  return ServeSpec{"serve_churn", 60.0, 250.0, 256, 1.0};
}

/// One distinct request of the workload's universe.
struct Entry {
  std::string body;  // the wire line after "ORDER <id> "
  spectral::OrderingRequest request;  // ParseWireRequest of the line
  // Filled by the reference solve (harness work, never timed).
  bool have_reference = false;
  spectral::OrderingResult reference;
  uint64_t expected_hash = 0;
};

Entry EntryFor(std::string body) {
  Entry entry;
  entry.body = std::move(body);
  return entry;
}

struct Traffic {
  std::vector<Entry> universe;
  std::vector<int> trace;       // universe index of request i
  std::vector<int> warm_trace;  // requests that fill the cache before timing

  const Entry& EntryOf(int64_t i) const {
    return universe[static_cast<size_t>(trace[static_cast<size_t>(i)])];
  }
};

std::string GridBody(const std::string& engine, Coord s0, Coord s1) {
  return engine + " GRID " + std::to_string(s0) + "x" + std::to_string(s1);
}

/// Zipf(0.99) draws over `universe` popularity ranks; rank r maps to entry
/// rank_to_entry[r].
std::vector<int> ZipfTrace(int64_t count, const std::vector<int>& rank_to_entry,
                           spectral::Rng& rng) {
  std::vector<double> cdf(rank_to_entry.size());
  double total = 0.0;
  for (size_t r = 0; r < cdf.size(); ++r) {
    total += std::pow(static_cast<double>(r + 1), -0.99);
    cdf[r] = total;
  }
  std::vector<int> trace;
  trace.reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    const double u = rng.UniformDouble() * total;
    const size_t rank = std::min<size_t>(
        static_cast<size_t>(std::lower_bound(cdf.begin(), cdf.end(), u) -
                            cdf.begin()),
        cdf.size() - 1);
    trace.push_back(rank_to_entry[rank]);
  }
  return trace;
}

/// serve_hot: 32 GRID lines (first side stratified over 8..64, second side
/// seeded) interleaved with 32 POINTS lines (connected blobs of 256..4096
/// points, stratified). Popularity rank r goes to entry (37 r) mod 64, so
/// every popularity band holds a spread of sizes whatever the seed.
Traffic MakeHotTraffic(uint64_t seed, int64_t count) {
  constexpr int kPerKind = 32;
  spectral::Rng rng(MixSeed(seed, 0x407));
  Traffic traffic;
  for (int j = 0; j < kPerKind; ++j) {
    const Coord s0 = static_cast<Coord>(8 + (56 * j) / (kPerKind - 1));
    const Coord s1 = static_cast<Coord>(rng.UniformInt(8, 64));
    traffic.universe.push_back(EntryFor(GridBody("spectral", s0, s1)));
    const int64_t n = 256 + (3840 * j) / (kPerKind - 1);
    const PointSet blob =
        spectral::SampleConnectedBlob(spectral::GridSpec({96, 96}), n, rng);
    traffic.universe.push_back(EntryFor(PointsBody("spectral", blob)));
  }
  std::vector<int> rank_to_entry(traffic.universe.size());
  for (size_t r = 0; r < rank_to_entry.size(); ++r) {
    rank_to_entry[r] = static_cast<int>((37 * r) % rank_to_entry.size());
  }
  traffic.trace = ZipfTrace(count, rank_to_entry, rng);
  return traffic;
}

/// serve_churn: MakeZipfianRequestMix over {spectral, hilbert} grids of
/// sides 16..64, a universe of 512; the first kChurnWarmRequests requests
/// warm the cache, the rest are timed.
Traffic MakeChurnTraffic(uint64_t seed, int64_t count) {
  spectral::ZipfianRequestMixOptions options;
  options.num_requests = kChurnWarmRequests + count;
  options.universe_size = 512;
  options.engines = {"spectral", "hilbert"};
  options.min_side = 16;
  options.max_side = 64;
  options.seed = MixSeed(seed, 0xc4);
  const spectral::ZipfianRequestMix mix = spectral::MakeZipfianRequestMix(options);
  Traffic traffic;
  for (const spectral::OrderingRequest& request : mix.universe) {
    std::vector<Coord> lo, hi;
    request.points->Bounds(&lo, &hi);
    traffic.universe.push_back(EntryFor(
        GridBody(request.engine, hi[0] - lo[0] + 1, hi[1] - lo[1] + 1)));
  }
  traffic.warm_trace.assign(mix.trace.begin(),
                            mix.trace.begin() + kChurnWarmRequests);
  traffic.trace.assign(mix.trace.begin() + kChurnWarmRequests, mix.trace.end());
  return traffic;
}

std::string OrderLine(int64_t i, const Entry& entry) {
  return "ORDER " + std::to_string(i) + " " + entry.body;
}

void ParseUniverse(Traffic* traffic) {
  for (Entry& entry : traffic->universe) {
    auto wire = spectral::ParseWireRequest(OrderLine(0, entry));
    if (wire.ok()) entry.request = std::move(wire->request);
  }
}

/// Direct registry-engine orders for the entries in `wanted`, on the
/// harness's own threads (never timed).
void SolveReferences(Traffic* traffic, const std::vector<int>& wanted) {
  std::atomic<size_t> next{0};
  auto work = [&] {
    for (size_t k = next++; k < wanted.size(); k = next++) {
      Entry& entry = traffic->universe[static_cast<size_t>(wanted[k])];
      auto engine = spectral::MakeOrderingEngine(entry.request.engine);
      if (!engine.ok()) continue;
      // One solver thread per harness thread; parallelism never changes
      // the order.
      spectral::OrderingRequest request = entry.request;
      request.options.spectral.parallelism = 1;
      auto result = (*engine)->Order(request);
      if (!result.ok()) continue;
      entry.reference = std::move(*result);
      entry.have_reference = true;
      const std::string line =
          spectral::FormatOrderedResponse("x", entry.reference);
      entry.expected_hash = ReplyPayloadHash(line);
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kSolverThreads; ++t) threads.emplace_back(work);
  for (std::thread& t : threads) t.join();
}

std::vector<int> DistinctEntries(const std::vector<int>& trace) {
  std::vector<int> distinct(trace);
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());
  return distinct;
}

/// Snapshot rotations due within the schedule: one at every multiple of
/// rotate_every_s up to the last request's due time.
int64_t RotationsIn(const ServeSpec& spec, int64_t count) {
  if (spec.rotate_every_s <= 0.0) return 0;
  const double last_due_s = static_cast<double>(count - 1) / spec.rate_per_s;
  return static_cast<int64_t>(std::floor(last_due_s / spec.rotate_every_s));
}

spectral::OrderingServerOptions ServerOptions(const ServeSpec& spec) {
  spectral::OrderingServerOptions options;
  options.service.parallelism = kSolverThreads;
  options.service.cache_capacity = spec.cache_capacity;
  return options;
}

/// A running server plus its client connections; closes both on scope exit.
struct Session {
  std::unique_ptr<spectral::OrderingServer> server;
  std::vector<int> fds;
  double snapshot_load_ms = 0.0;
  bool ok = false;

  Session() = default;
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;
  Session(Session&& other) noexcept { *this = std::move(other); }
  Session& operator=(Session&& other) noexcept {
    if (this != &other) {
      Close();
      server = std::move(other.server);
      fds = std::exchange(other.fds, {});
      snapshot_load_ms = other.snapshot_load_ms;
      ok = std::exchange(other.ok, false);
    }
    return *this;
  }
  ~Session() { Close(); }

  void Close() {
    for (int fd : fds) ::close(fd);
    fds.clear();
    if (server) server->Shutdown();
    server.reset();
  }
};

/// Server start, snapshot restore, listener and client connections: the
/// system set-up before the first timed request.
Session StartSession(const ServeSpec& spec, const std::string& snapshot,
                     bool connect) {
  Session session;
  session.server =
      std::make_unique<spectral::OrderingServer>(ServerOptions(spec));
  {
    const auto t0 = Clock::now();
    auto loaded = session.server->LoadSnapshot(snapshot);
    session.snapshot_load_ms = MsBetween(t0, Clock::now());
    if (!loaded.ok()) return session;
  }
  if (connect) {
    auto port = session.server->StartTcp(0);
    if (!port.ok()) return session;
    for (int c = 0; c < kConnections; ++c) {
      const int fd = ConnectLoopback(*port);
      if (fd < 0) return session;
      session.fds.push_back(fd);
    }
  }
  session.ok = true;
  return session;
}

/// What the timed phase observed per request.
struct Observed {
  std::vector<double> latency_ms;  // NaN = no reply
  std::vector<ReplyDigest> digest;
  std::vector<double> lag_ms;
  std::unordered_map<int, std::string> first_reply;  // entry -> reply line
  int64_t rotations = 0;
  int64_t rotations_ok = 0;
  double schedule_s = 0.0;
};

/// The untraced open-loop phase over TCP.
Observed RunTcpPhase(const ServeSpec& spec, const Traffic& traffic,
                     int64_t count, Session& session,
                     const std::string& rotate_path) {
  Observed obs;
  obs.latency_ms.assign(static_cast<size_t>(count), std::nan(""));
  obs.digest.resize(static_cast<size_t>(count));
  obs.lag_ms.assign(static_cast<size_t>(count), 0.0);
  obs.schedule_s = static_cast<double>(count) / spec.rate_per_s;

  const int64_t rotations = RotationsIn(spec, count);
  obs.rotations = rotations;

  OpenLoopClock clock{Clock::now() + std::chrono::milliseconds(20),
                      spec.rate_per_s};
  std::atomic<bool> send_failed{false};
  std::thread generator([&] {
    int64_t next_rotation = 1;
    for (int64_t i = 0; i < count; ++i) {
      const auto due = clock.Due(i);
      std::this_thread::sleep_until(due);
      if (next_rotation <= rotations &&
          MsBetween(clock.start, due) >= next_rotation * spec.rotate_every_s * 1e3) {
        const std::string cmd = "SNAPSHOT s" + std::to_string(next_rotation) +
                                " " + rotate_path + "\n";
        if (!SendAll(session.fds[0], cmd)) send_failed = true;
        ++next_rotation;
      }
      const int fd = session.fds[static_cast<size_t>(i % kConnections)];
      obs.lag_ms[static_cast<size_t>(i)] = clock.LagMs(i, Clock::now());
      if (!SendAll(fd, OrderLine(i, traffic.EntryOf(i)) + "\n")) {
        send_failed = true;
      }
    }
  });

  // Reader: poll every connection, split lines, timestamp each read.
  const int64_t expected = count + rotations;
  int64_t received = 0;
  std::vector<std::string> buffers(session.fds.size());
  std::vector<pollfd> polls;
  for (int fd : session.fds) polls.push_back(pollfd{fd, POLLIN, 0});
  const auto give_up = clock.start + std::chrono::duration_cast<Clock::duration>(
                                         std::chrono::duration<double>(
                                             obs.schedule_s + 30.0));
  std::vector<char> chunk(1 << 16);
  while (received < expected && Clock::now() < give_up && !send_failed) {
    if (::poll(polls.data(), polls.size(), 100) <= 0) continue;
    for (size_t c = 0; c < polls.size(); ++c) {
      if ((polls[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const ssize_t n = ::read(polls[c].fd, chunk.data(), chunk.size());
      if (n <= 0) {
        polls[c].fd = -1;  // closed: stop polling it
        continue;
      }
      const auto now = Clock::now();
      QuickAck(polls[c].fd);
      std::string& buf = buffers[c];
      buf.append(chunk.data(), static_cast<size_t>(n));
      size_t begin = 0;
      for (size_t end; (end = buf.find('\n', begin)) != std::string::npos;
           begin = end + 1) {
        const std::string_view line(buf.data() + begin, end - begin);
        ++received;
        if (line.rfind("SAVED ", 0) == 0) {
          ++obs.rotations_ok;
          continue;
        }
        ReplyDigest digest = DigestReply(line);
        int64_t i = -1;
        try {
          i = std::stoll(digest.id);
        } catch (...) {
          continue;
        }
        if (i < 0 || i >= count) continue;
        obs.latency_ms[static_cast<size_t>(i)] = clock.LatencyMs(i, now);
        const int entry = traffic.trace[static_cast<size_t>(i)];
        if (digest.ordered && obs.first_reply.find(entry) == obs.first_reply.end()) {
          obs.first_reply.emplace(entry, std::string(line));
        }
        obs.digest[static_cast<size_t>(i)] = std::move(digest);
      }
      buf.erase(0, begin);
    }
  }
  generator.join();
  return obs;
}

/// The in-process pass of a traced run: what ServeStream does per line —
/// parse, fingerprint, Submit, wait for the future, format — on the same
/// schedule, with a span around each call when `tracer` is enabled.
struct InProcess {
  std::vector<double> latency_ms;
  std::vector<spectral::OrderingResult> misses;  // results solved, not hit
  spectral::OrderingServerStats stats;
};

InProcess RunInProcessPhase(const ServeSpec& spec, const Traffic& traffic,
                            int64_t count, spectral::OrderingServer& server,
                            Tracer& tracer, const std::string& rotate_path) {
  struct InFlight {
    int64_t index = 0;
    int64_t root = -1;
    Clock::time_point submitted;
    std::string id;
    std::future<spectral::StatusOr<spectral::OrderingResult>> future;
  };
  InProcess out;
  out.latency_ms.assign(static_cast<size_t>(count), std::nan(""));
  const int64_t rotations = RotationsIn(spec, count);

  std::mutex mu;
  std::condition_variable cv;
  std::deque<InFlight> queue;  // guarded by mu
  bool done = false;           // guarded by mu

  OpenLoopClock clock{Clock::now() + std::chrono::milliseconds(20),
                      spec.rate_per_s};
  std::thread generator([&] {
    int64_t next_rotation = 1;
    for (int64_t i = 0; i < count; ++i) {
      const auto due = clock.Due(i);
      std::this_thread::sleep_until(due);
      if (next_rotation <= rotations &&
          MsBetween(clock.start, due) >= next_rotation * spec.rotate_every_s * 1e3) {
        ScopedSpan span(tracer, "core.snapshot_rotate", -1);
        (void)server.RotateSnapshot(rotate_path);
        ++next_rotation;
      }
      InFlight flight;
      flight.index = i;
      flight.root = tracer.BeginAt("request", i, -1, due);
      spectral::StatusOr<spectral::WireRequest> wire =
          spectral::InvalidArgumentError("unparsed");
      {
        ScopedSpan span(tracer, "serve.parse", i, flight.root);
        wire = spectral::ParseWireRequest(OrderLine(i, traffic.EntryOf(i)));
      }
      if (!wire.ok()) continue;
      {
        ScopedSpan span(tracer, "core.fingerprint", i, flight.root);
        (void)wire->request.Fingerprint();
      }
      flight.id = wire->id;
      flight.submitted = Clock::now();
      flight.future = server.Submit(std::move(wire->request), wire->deadline_ms);
      {
        std::lock_guard<std::mutex> lock(mu);
        queue.push_back(std::move(flight));
      }
      cv.notify_one();
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      done = true;
    }
    cv.notify_one();
  });

  for (;;) {
    InFlight flight;
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return done || !queue.empty(); });
      if (queue.empty()) break;
      flight = std::move(queue.front());
      queue.pop_front();
    }
    flight.future.wait();
    tracer.Add("serve.server", flight.index, flight.root, flight.submitted,
               Clock::now());
    spectral::StatusOr<spectral::OrderingResult> result = flight.future.get();
    {
      ScopedSpan span(tracer, "serve.format", flight.index, flight.root);
      const std::string text =
          result.ok() ? spectral::FormatOrderedResponse(flight.id, *result)
                      : spectral::FormatErrorResponse(flight.id, result.status());
      (void)text;
    }
    tracer.End(flight.root);
    out.latency_ms[static_cast<size_t>(flight.index)] =
        clock.LatencyMs(flight.index, Clock::now());
    if (result.ok() && result->detail.find("cache=miss") != std::string::npos) {
      out.misses.push_back(std::move(*result));
    }
  }
  generator.join();
  server.FlushSnapshots();
  out.stats = server.stats();
  return out;
}

/// Checks every reply, counts failures, and fills the end-to-end metrics.
void CheckAndReport(const ServeSpec& spec, Traffic& traffic, int64_t count,
                    const Observed& obs, double setup_s, RunResult* result) {
  SolveReferences(&traffic, [&] {
    std::vector<int> missing;
    for (int e : DistinctEntries(std::vector<int>(
             traffic.trace.begin(), traffic.trace.begin() + count))) {
      if (!traffic.universe[static_cast<size_t>(e)].have_reference) {
        missing.push_back(e);
      }
    }
    return missing;
  }());

  // Each distinct reply payload must be a permutation; every reply must hash
  // equal to its entry's reference order.
  std::unordered_map<int, bool> permutation_ok;
  for (const auto& [entry, line] : obs.first_reply) {
    const Entry& e = traffic.universe[static_cast<size_t>(entry)];
    permutation_ok[entry] = IsPermutationReply(line, e.request.InputSize());
  }
  std::vector<double> latencies;
  int64_t good = 0, missing = 0, errors = 0, wrong = 0;
  for (int64_t i = 0; i < count; ++i) {
    const size_t k = static_cast<size_t>(i);
    const int entry = traffic.trace[k];
    const Entry& e = traffic.universe[static_cast<size_t>(entry)];
    const ReplyDigest& d = obs.digest[k];
    const bool replied = !std::isnan(obs.latency_ms[k]);
    const bool ok = e.have_reference &&
                    ReplyCorrect(replied, d, e.expected_hash, permutation_ok[entry]);
    result->outcomes.Record(ok);
    if (!replied) {
      ++missing;
    } else if (!d.ordered) {
      ++errors;
    } else if (!ok) {
      ++wrong;
    }
    if (replied) latencies.push_back(obs.latency_ms[k]);
    if (ok && obs.latency_ms[k] <= spec.latency_limit_ms) ++good;
  }
  for (int64_t r = 0; r < obs.rotations; ++r) {
    result->outcomes.Record(r < obs.rotations_ok);
  }
  if (missing + errors + wrong > 0 || obs.rotations_ok < obs.rotations) {
    result->notes.push_back(
        "FAILED replies: missing=" + std::to_string(missing) +
        " error=" + std::to_string(errors) + " wrong=" + std::to_string(wrong) +
        " rotations_ok=" + std::to_string(obs.rotations_ok) + "/" +
        std::to_string(obs.rotations));
  }

  const Percentile p50 = WindowedPercentile(latencies, 0.50, kLatencyWindow);
  const Percentile p99 = WindowedPercentile(latencies, 0.99, kLatencyWindow);
  const Percentile lag = PercentileOf(obs.lag_ms, 0.99);
  std::string shape = "latency ms by decile:";
  for (const double q : {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99, 1.0}) {
    char cell[32];
    std::snprintf(cell, sizeof(cell), " %.3g", PercentileOf(latencies, q).value);
    shape += cell;
  }
  result->notes.push_back(shape);
  char lag_line[96];
  std::snprintf(lag_line, sizeof(lag_line),
                "generator lag ms: p50 %.3g p99 %.3g max %.3g",
                PercentileOf(obs.lag_ms, 0.5).value, lag.value,
                PercentileOf(obs.lag_ms, 1.0).value);
  result->notes.push_back(lag_line);
  result->Set("setup_s", setup_s, "s");
  result->Set("latency_p50_ms", p50.value, "ms");
  result->Set("latency_p99_ms", p99.value, "ms");
  result->Set("goodput_rps", static_cast<double>(good) / obs.schedule_s, "1/s");
  result->Set("workload.gen_lag_ms_p99", lag.value, "ms");
  result->AddSupport("latency_p50_ms", p50);
  result->AddSupport("latency_p99_ms", p99);
  result->AddSupport("workload.gen_lag_ms_p99", lag);
  if (!p99.supported) {
    result->notes.push_back(
        "latency_p99_ms has fewer than 10 requests beyond it; lengthen --seconds");
  }
  if (lag.value > kMaxGenLagP99Ms) {
    result->notes.push_back("INVALID open loop: generator lag p99 " +
                            std::to_string(lag.value) + " ms exceeds " +
                            std::to_string(kMaxGenLagP99Ms) + " ms");
  }
  if (p99.value > spec.latency_limit_ms) {
    result->notes.push_back("latency_p99_ms is above the workload's limit of " +
                            std::to_string(spec.latency_limit_ms) + " ms");
  }
  char line[160];
  std::snprintf(line, sizeof(line),
                "requests=%lld rate=%.0f/s schedule_s=%.2f rotations=%lld",
                static_cast<long long>(count), spec.rate_per_s, obs.schedule_s,
                static_cast<long long>(obs.rotations));
  result->notes.push_back(line);
}

/// Page metrics of the served orders: each distinct served order, parsed
/// from the reply as the client received it, laid out into pages and
/// indexes and queried with the scaled query stream (untimed). Range
/// answers are checked against brute force.
void ServedOrderPages(const Traffic& traffic, const Observed& obs,
                      RunResult* result) {
  std::vector<int> entries;
  for (const auto& [entry, line] : obs.first_reply) entries.push_back(entry);
  std::sort(entries.begin(), entries.end());
  Tracer off(false);
  QueryTally tally;
  for (int entry : entries) {
    const Entry& e = traffic.universe[static_cast<size_t>(entry)];
    std::vector<int64_t> ranks;
    const std::string& line = obs.first_reply.at(entry);
    // "ORDERED <id> <n> <ranks...>": skip three tokens.
    std::string_view payload = line;
    for (int skip = 0; skip < 3; ++skip) {
      payload.remove_prefix(std::min(payload.size(), payload.find(' ') + 1));
    }
    const char* p = payload.data();
    const char* end = payload.data() + payload.size();
    while (p < end) {
      int64_t r = 0;
      auto [next, ec] = std::from_chars(p, end, r);
      if (ec != std::errc()) break;
      ranks.push_back(r);
      p = next;
      while (p < end && *p == ' ') ++p;
    }
    auto order = spectral::LinearOrder::FromRanks(std::move(ranks));
    if (!order.ok() || order->size() != e.request.points->size()) {
      result->outcomes.Record(false);
      continue;
    }
    spectral::OrderingResult ordering;
    ordering.order = std::move(*order);
    const spectral::QueryPath path =
        AssembleQueryPath(e.request.points, std::move(ordering), off, 0, -1);
    const QueryStream stream = MakeScaledQueryStream(*e.request.points);
    std::vector<int64_t> matches;
    RunQueryStream(path, stream, /*count_pages=*/true, &tally, &matches);
    for (size_t b = 0; b < stream.boxes.size(); ++b) {
      result->outcomes.Record(
          matches[b] == BruteForceMatches(*e.request.points, stream.boxes[b]));
    }
  }
  result->Set("range_pages_mean",
              static_cast<double>(tally.range_pages) /
                  static_cast<double>(std::max<int64_t>(1, tally.range_queries)),
              "pages");
  result->Set("range_pages_max", Mean(tally.range_pages_max), "pages");
  result->Set("knn_pages_mean",
              static_cast<double>(tally.knn_pages) /
                  static_cast<double>(std::max<int64_t>(1, tally.knn_queries)),
              "pages");
  result->notes.push_back("page metrics over " + std::to_string(entries.size()) +
                          " distinct served orders");
}

void SetPerLayer(const Traffic& traffic, int64_t count,
                 const InProcess& untraced, const InProcess& traced,
                 const std::vector<Span>& spans, double tcp_p50_ms,
                 double snapshot_load_ms, double snapshot_save_ms,
                 RunResult* result) {
  auto us_p50 = [&](std::string_view name) {
    return PercentileOf(DurationsMs(spans, name), 0.5).value * 1e3;
  };
  const std::vector<double> server_ms = DurationsMs(spans, "serve.server");
  const Percentile server_p50 = PercentileOf(server_ms, 0.5);
  const Percentile server_p99 = PercentileOf(server_ms, 0.99);
  const double parse_us = us_p50("serve.parse");
  const double format_us = us_p50("serve.format");
  result->Set("serve.parse_us_p50", parse_us, "us");
  result->Set("serve.format_us_p50", format_us, "us");
  result->Set("serve.server_ms_p50", server_p50.value, "ms");
  result->Set("serve.server_ms_p99", server_p99.value, "ms");
  result->Set("serve.stream_ms_p50",
              tcp_p50_ms - (parse_us + format_us) / 1e3 - server_p50.value, "ms");
  result->AddSupport("serve.server_ms_p99", server_p99);

  const spectral::OrderingServerStats& s = traced.stats;
  const spectral::MappingServiceStats& m = s.service;
  const double batches = static_cast<double>(std::max<int64_t>(1, m.batches));
  result->Set("serve.batch_size_mean", static_cast<double>(m.requests) / batches,
              "count");
  result->Set("serve.max_queue_depth", static_cast<double>(s.max_queue_depth),
              "count");
  result->Set("serve.shed", static_cast<double>(s.shed_overload), "count");
  result->Set("serve.expired", static_cast<double>(s.expired_deadline), "count");
  result->Set("core.fingerprint_us_p50", us_p50("core.fingerprint"), "us");
  result->Set("core.hit_rate",
              static_cast<double>(m.cache_hits) /
                  static_cast<double>(std::max<int64_t>(1, m.requests)),
              "frac");
  result->Set("core.solves", static_cast<double>(m.solves), "count");
  result->Set("core.evictions", static_cast<double>(m.cache_evictions), "count");
  result->Set("core.coalesced", static_cast<double>(m.coalesced_requests), "count");
  result->Set("core.batch_ms_mean", m.batch_latency_total_ms / batches, "ms");
  result->Set("core.batch_ms_max", m.batch_latency_max_ms, "ms");
  result->Set("core.retried_solves", static_cast<double>(m.retried_solves), "count");
  result->Set("core.degraded_orders", static_cast<double>(m.degraded_orders), "count");
  result->Set("core.snapshot_load_ms", snapshot_load_ms, "ms");
  result->Set("core.snapshot_save_ms", snapshot_save_ms, "ms");

  // Solver work of the misses (serve_churn); zero on an all-hit workload.
  spectral::KernelProfile profile;
  int64_t matvecs = 0, restarts = 0, unconverged = 0, solved = 0;
  for (const spectral::OrderingResult& r : traced.misses) {
    if (r.method == "hilbert") continue;
    profile.Add(r.profile);
    matvecs += r.matvecs;
    restarts += r.restarts;
    if (!r.converged) ++unconverged;
    ++solved;
  }
  if (solved > 0) {
    const double per = 1.0 / static_cast<double>(solved);
    result->Set("eigen.spmm_ms", profile.spmm_ms * per, "ms");
    result->Set("eigen.reorth_ms", profile.reorth_ms * per, "ms");
    result->Set("eigen.hfill_ms", profile.hfill_ms * per, "ms");
    result->Set("eigen.rr_ms", profile.rr_ms * per, "ms");
    result->Set("eigen.cheb_ms", profile.cheb_ms * per, "ms");
    result->Set("eigen.flops", static_cast<double>(profile.total_flops()) * per,
                "count");
    result->Set("eigen.matvecs", static_cast<double>(matvecs) * per, "count");
    result->Set("eigen.restarts", static_cast<double>(restarts) * per, "count");
    result->Set("eigen.gflops",
                profile.total_ms() > 0.0
                    ? static_cast<double>(profile.total_flops()) /
                          (profile.total_ms() * 1e6)
                    : 0.0,
                "GFLOP/s");
    result->Set("eigen.unconverged", static_cast<double>(unconverged), "count");
  }

  // Cold curve orders of the hilbert requests in the schedule.
  std::vector<double> sfc_us;
  auto hilbert = spectral::MakeOrderingEngine("hilbert");
  for (int e : DistinctEntries(std::vector<int>(traffic.trace.begin(),
                                                traffic.trace.begin() + count))) {
    const Entry& entry = traffic.universe[static_cast<size_t>(e)];
    if (entry.request.engine != "hilbert" || !hilbert.ok()) continue;
    const auto t0 = Clock::now();
    (void)(*hilbert)->Order(entry.request);
    sfc_us.push_back(MsBetween(t0, Clock::now()) * 1e3);
  }
  if (!sfc_us.empty()) {
    result->Set("sfc.order_us_p50", PercentileOf(sfc_us, 0.5).value, "us");
  }

  std::vector<double> off_lat, on_lat;
  for (double v : untraced.latency_ms) if (!std::isnan(v)) off_lat.push_back(v);
  for (double v : traced.latency_ms) if (!std::isnan(v)) on_lat.push_back(v);
  const double off_p50 = Median(off_lat);
  result->Set("trace.overhead_frac",
              off_p50 > 0.0 ? (Median(on_lat) - off_p50) / off_p50 : 0.0, "frac");
}

}  // namespace

RunResult RunServeWorkload(ServeKind kind, const RunOptions& options) {
  const ServeSpec spec = SpecOf(kind);
  RunResult result;
  // Traced runs split the time three ways on the same schedule prefix: the
  // TCP run, an untraced in-process pass, and the traced in-process pass.
  const double phase_s = options.trace ? options.seconds / 3 : options.seconds;
  const int64_t count =
      std::max<int64_t>(1, static_cast<int64_t>(std::llround(phase_s * spec.rate_per_s)));
  Traffic traffic = kind == ServeKind::kHot ? MakeHotTraffic(options.seed, count)
                                            : MakeChurnTraffic(options.seed, count);
  ParseUniverse(&traffic);

  const std::string snapshot = options.workdir + "/" + spec.name + ".snapshot";
  const std::string rotate_path = options.workdir + "/" + spec.name + ".rotated";
  // The warm set the server restores from at start (harness work, excluded
  // from set-up): serve_hot caches every universe entry, solved by its
  // direct registry engine; serve_churn caches what its warm-up requests
  // leave in an LRU of the server's capacity.
  std::vector<spectral::OrderCacheEntry> warm_set;
  if (kind == ServeKind::kHot) {
    std::vector<int> all(traffic.universe.size());
    std::iota(all.begin(), all.end(), 0);
    SolveReferences(&traffic, all);
    for (const Entry& e : traffic.universe) {
      if (e.have_reference) {
        warm_set.push_back(
            spectral::OrderCacheEntry{e.request.Fingerprint(), e.reference});
      }
    }
  } else {
    // Replayed in trace order, in batches of the server's size, so the LRU
    // ends up holding what live traffic would have left in it.
    spectral::MappingService warm(ServerOptions(spec).service);
    std::vector<spectral::OrderingRequest> batch;
    for (size_t k = 0; k < traffic.warm_trace.size(); ++k) {
      batch.push_back(
          traffic.universe[static_cast<size_t>(traffic.warm_trace[k])].request);
      if (batch.size() == 64 || k + 1 == traffic.warm_trace.size()) {
        (void)warm.OrderBatch(batch);
        batch.clear();
      }
    }
    warm_set = warm.ExportCache();
  }
  if (!spectral::SaveOrderCacheSnapshotToFile(warm_set, snapshot).ok()) {
    result.correct = false;
    result.notes.push_back("could not write the snapshot " + snapshot);
    return result;
  }

  std::vector<double> setup_reps, snapshot_load_reps;
  Session session;
  for (int r = 0; r < kSetupReps; ++r) {
    session.Close();
    const auto t0 = Clock::now();
    session = StartSession(spec, snapshot, /*connect=*/true);
    setup_reps.push_back(MsBetween(t0, Clock::now()) / 1e3);
    snapshot_load_reps.push_back(session.snapshot_load_ms);
  }
  if (!session.ok) {
    result.correct = false;
    result.notes.push_back("server set-up failed");
    return result;
  }
  const auto t_start = Clock::now();
  const Observed obs = RunTcpPhase(spec, traffic, count, session, rotate_path);
  result.Set("peak_rss_mb", PeakRssMb(), "MiB");
  const auto t_timed = Clock::now();
  session.Close();
  const auto t_closed = Clock::now();
  CheckAndReport(spec, traffic, count, obs, Median(setup_reps), &result);
  const auto t_checked = Clock::now();
  ServedOrderPages(traffic, obs, &result);
  char times[160];
  std::snprintf(times, sizeof(times),
                "phase seconds: timed=%.2f shutdown=%.2f check=%.2f pages=%.2f",
                MsBetween(t_start, t_timed) / 1e3,
                MsBetween(t_timed, t_closed) / 1e3,
                MsBetween(t_closed, t_checked) / 1e3,
                MsBetween(t_checked, Clock::now()) / 1e3);
  result.notes.push_back(times);
  result.Set("success_frac", result.outcomes.success_frac(), "frac");
  result.correct = result.outcomes.failed == 0;

  if (options.trace) {
    Tracer off(false);
    Session plain = StartSession(spec, snapshot, /*connect=*/false);
    const InProcess untraced =
        RunInProcessPhase(spec, traffic, count, *plain.server, off, rotate_path);
    plain.Close();
    Tracer tracer(true);
    Session s = StartSession(spec, snapshot, /*connect=*/false);
    const InProcess traced =
        RunInProcessPhase(spec, traffic, count, *s.server, tracer, rotate_path);
    std::vector<double> saves;
    for (int r = 0; r < 3; ++r) {
      const auto t0 = Clock::now();
      (void)s.server->SaveSnapshot(rotate_path);
      saves.push_back(MsBetween(t0, Clock::now()));
    }
    s.Close();
    const std::vector<Span> spans = tracer.spans();
    SetPerLayer(traffic, count, untraced, traced, spans,
                result.metrics["latency_p50_ms"].value, Median(snapshot_load_reps),
                Median(saves), &result);
    const std::string path = options.workdir + "/trace_" + spec.name + ".csv";
    if (tracer.WriteCsv(path)) result.notes.push_back("spans written to " + path);
    for (std::string& line : SelfTimeReport(spans)) {
      result.notes.push_back(std::move(line));
    }
  }
  std::remove(snapshot.c_str());
  std::remove(rotate_path.c_str());
  return result;
}

// ---------------------------------------------------------------------------
// Loopback client, shared with the map workloads' traced runs.
// ---------------------------------------------------------------------------

std::string PointsBody(const std::string& engine, const PointSet& points) {
  std::string body = engine + " POINTS 2 " + std::to_string(points.size());
  for (int64_t i = 0; i < points.size(); ++i) {
    body += ' ';
    body += std::to_string(points.At(i, 0));
    body += ' ';
    body += std::to_string(points.At(i, 1));
  }
  return body;
}

int ConnectLoopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::setsockopt(fd, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
  return fd;
}

/// Acknowledges received data at once. The server's accepted sockets keep
/// Nagle on, so a reply longer than its 4 KiB stream buffer leaves in several
/// writes and the last one waits for the client's ACK; with delayed ACKs
/// that wait is the client's ACK timer (~40 ms) or its next send, which
/// makes latency bimodal and hides the server's own work. Linux clears
/// QUICKACK after use, so it is re-armed after every read.
void QuickAck(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
}

bool SendAll(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<size_t>(n));
  }
  return true;
}

bool ReadLine(int fd, std::string* inbox, std::string* line) {
  size_t end;
  while ((end = inbox->find('\n')) == std::string::npos) {
    char chunk[1 << 16];
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    QuickAck(fd);
    inbox->append(chunk, static_cast<size_t>(n));
  }
  line->assign(*inbox, 0, end);
  inbox->erase(0, end + 1);
  return true;
}

}  // namespace perfbench
