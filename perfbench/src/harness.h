// Measurement harness of the end-to-end benchmark: percentiles with their
// sample support, the in-memory span tracer and its self-time rule, due-time
// latency accounting for open-loop runs, outcome bookkeeping, wire-reply
// checks, and the result record every workload fills in.
//
// Everything here is benchmark-side code. It times calls into the library's
// public functions from outside; nothing inside the library is instrumented.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Milliseconds between two steady-clock points.
double MsBetween(Clock::time_point from, Clock::time_point to);

/// A percentile together with the samples behind it. A percentile q is
/// supported when at least ten samples lie beyond it, i.e. n * (1 - q) >= 10
/// (the ten-samples-beyond rule); an unsupported value is still reported but
/// flagged.
struct Percentile {
  double value = 0.0;
  int64_t samples = 0;
  bool supported = false;
};

/// Nearest-rank percentile of `values` (q in [0, 1]); 0 for no samples.
Percentile PercentileOf(std::vector<double> values, double q);

/// Percentile robust to the machine's slow spells: `values` in time order are
/// cut into up to kMaxWindows consecutive windows of at least `min_window`
/// samples each, and the value is the median of the per-window percentiles.
/// Supported when every window supports q. With fewer than 2 * min_window
/// samples this is the plain percentile.
inline constexpr int64_t kMaxWindows = 5;
Percentile WindowedPercentile(const std::vector<double>& values, double q,
                              int64_t min_window);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// One recorded span. Times are microseconds since the tracer's epoch;
/// `parent` indexes the tracer's span list (-1 for a root).
struct Span {
  std::string name;
  int64_t request = 0;
  int64_t parent = -1;
  double start_us = 0.0;
  double end_us = 0.0;
};

/// In-memory span recorder. Disabled tracers record nothing and cost one
/// branch per call, so the same code path serves traced and untraced runs.
/// Thread-safe: spans may be opened and closed from several threads.
class Tracer {
 public:
  explicit Tracer(bool enabled);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  /// Opens a span starting now; returns its id (-1 when disabled).
  int64_t Begin(std::string_view name, int64_t request, int64_t parent = -1);
  /// Opens a span with an explicit start (e.g. a request's due time).
  int64_t BeginAt(std::string_view name, int64_t request, int64_t parent,
                  Clock::time_point start);
  /// Closes span `id` now (no-op for -1).
  void End(int64_t id);
  /// Adds a finished span covering [start, end].
  int64_t Add(std::string_view name, int64_t request, int64_t parent,
              Clock::time_point start, Clock::time_point end);

  /// Snapshot of every span recorded so far.
  std::vector<Span> spans() const;
  /// Writes the spans as CSV (name,request,parent,start_us,end_us).
  bool WriteCsv(const std::string& path) const;

 private:
  double MicrosSinceEpoch(Clock::time_point t) const;

  const bool enabled_;
  const Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string_view name, int64_t request,
             int64_t parent = -1)
      : tracer_(tracer), id_(tracer.Begin(name, request, parent)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  int64_t id_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children (children clipped to the parent).
/// Aligned with `spans`.
std::vector<double> SelfTimesUs(const std::vector<Span>& spans);

/// One report line per span name: count, p50 duration and p50 self time.
std::vector<std::string> SelfTimeReport(const std::vector<Span>& spans);

/// Durations (ms) of every span called `name`.
std::vector<double> DurationsMs(const std::vector<Span>& spans,
                                std::string_view name);

/// Open-loop schedule: request i is due at start + i / rate. Latency is
/// measured from the due time, so a stall also charges the requests queued
/// behind it; lag is how late the generator actually sent.
struct OpenLoopClock {
  Clock::time_point start;
  double rate_per_s = 1.0;

  Clock::time_point Due(int64_t i) const;
  double LatencyMs(int64_t i, Clock::time_point reply) const {
    return MsBetween(Due(i), reply);
  }
  double LagMs(int64_t i, Clock::time_point sent) const {
    return MsBetween(Due(i), sent);
  }
};

/// Generator lag beyond which an open-loop run is flagged as invalid: the
/// schedule was not kept, so latencies understate what clients would see.
inline constexpr double kMaxGenLagP99Ms = 5.0;

/// Attempted/failed bookkeeping. A failure is anything the user would not
/// accept: an error reply, a shed or expired request, a missing reply, or an
/// output that fails its correctness check.
struct Outcomes {
  int64_t attempted = 0;
  int64_t failed = 0;

  void Record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  double failed_frac() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
  double success_frac() const { return 1.0 - failed_frac(); }
};

/// A received "ORDERED <id> <n> <ranks...>" line reduced to what the checks
/// need: the id and a hash of the payload after the id.
struct ReplyDigest {
  bool ordered = false;  // false for ERROR or unparsable lines
  std::string id;
  uint64_t payload_hash = 0;
};
ReplyDigest DigestReply(std::string_view line);

/// Hash of a reply line's payload after "<KEYWORD> <id> ", the part that
/// must equal the reference order's reply whatever the request id.
uint64_t ReplyPayloadHash(std::string_view line);

/// Verdict on one serve reply: it arrived, is ORDERED, its payload equals
/// the reference order's (`expected_hash`), and the payload is a
/// permutation (checked once per distinct payload).
bool ReplyCorrect(bool replied, const ReplyDigest& reply,
                  uint64_t expected_hash, bool is_permutation);

/// True when `line` is "ORDERED <id> <n> r0 ... r(n-1)" with exactly n ranks
/// forming a permutation of [0, n).
bool IsPermutationReply(std::string_view line, int64_t expected_n);

/// One named metric value with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// A percentile row for the human-readable report: name, value, support.
struct SupportRow {
  std::string name;
  Percentile p;
};

/// Everything one benchmark invocation reports.
struct RunResult {
  bool correct = true;
  Outcomes outcomes;
  std::map<std::string, Metric> metrics;
  std::vector<SupportRow> support;  // sample counts behind percentiles
  std::vector<std::string> notes;   // validity flags and context lines

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void AddSupport(const std::string& name, const Percentile& p) {
    support.push_back(SupportRow{name, p});
  }
};

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

/// The JSON result line: {"correct":..,"attempted":..,"failed":..,
/// "metrics":{name:{"value":..,"unit":..}}} restricted to `names`.
std::string ResultJson(const RunResult& result,
                       const std::vector<std::string>& names);

/// Names and units of the end-to-end metrics (reported by every workload)
/// and of the per-layer metrics (reported by every traced run; 0 where the
/// workload does not exercise the layer).
const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics();
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

/// Fills every per-layer metric the workload left unset with 0.
void ZeroFillPerLayer(RunResult* result);

/// Options every workload receives from the command line.
struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory (inside the checkout) for snapshots and trace files.
  std::string workdir = ".";
};

/// Derives a sub-seed from the workload seed and a stream index.
uint64_t MixSeed(uint64_t seed, uint64_t stream);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
