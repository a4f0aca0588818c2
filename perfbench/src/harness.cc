#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

Percentile PercentileOf(std::vector<double> values, double q) {
  Percentile p;
  p.samples = static_cast<int64_t>(values.size());
  if (values.empty()) return p;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  const int64_t rank = static_cast<int64_t>(std::ceil(q * n - 1e-9));
  const int64_t index =
      std::clamp<int64_t>(rank - 1, 0, static_cast<int64_t>(values.size()) - 1);
  p.value = values[static_cast<size_t>(index)];
  // Samples strictly beyond the nearest-rank index.
  p.supported = p.samples - 1 - index >= 10;
  return p;
}

Percentile WindowedPercentile(const std::vector<double>& values, double q,
                              int64_t min_window) {
  const int64_t n = static_cast<int64_t>(values.size());
  const int64_t windows =
      std::clamp<int64_t>(n / std::max<int64_t>(1, min_window), 1, kMaxWindows);
  Percentile p;
  p.samples = n;
  p.supported = true;
  std::vector<double> per_window;
  for (int64_t w = 0; w < windows; ++w) {
    const auto begin = values.begin() + n * w / windows;
    const auto end = values.begin() + n * (w + 1) / windows;
    const Percentile wp = PercentileOf(std::vector<double>(begin, end), q);
    per_window.push_back(wp.value);
    p.supported = p.supported && wp.supported;
  }
  p.value = Median(per_window);
  return p;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double total = 0.0;
  for (double v : values) total += v;
  return total / static_cast<double>(values.size());
}

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

double Tracer::MicrosSinceEpoch(Clock::time_point t) const {
  return std::chrono::duration<double, std::micro>(t - epoch_).count();
}

int64_t Tracer::Begin(std::string_view name, int64_t request,
                      int64_t parent) {
  if (!enabled_) return -1;
  return BeginAt(name, request, parent, Clock::now());
}

int64_t Tracer::BeginAt(std::string_view name, int64_t request,
                        int64_t parent, Clock::time_point start) {
  if (!enabled_) return -1;
  const double start_us = MicrosSinceEpoch(start);
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{std::string(name), request, parent, start_us, start_us});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::End(int64_t id) {
  if (!enabled_ || id < 0) return;
  const double end_us = MicrosSinceEpoch(Clock::now());
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_us = end_us;
}

int64_t Tracer::Add(std::string_view name, int64_t request, int64_t parent,
                    Clock::time_point start, Clock::time_point end) {
  if (!enabled_) return -1;
  const double start_us = MicrosSinceEpoch(start);
  const double end_us = MicrosSinceEpoch(end);
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{std::string(name), request, parent, start_us, end_us});
  return static_cast<int64_t>(spans_.size()) - 1;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::WriteCsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "name,request,parent,start_us,end_us\n";
  char buf[64];
  for (const Span& s : spans()) {
    std::snprintf(buf, sizeof(buf), "%.3f,%.3f", s.start_us, s.end_us);
    out << s.name << ',' << s.request << ',' << s.parent << ',' << buf << '\n';
  }
  return static_cast<bool>(out);
}

std::vector<double> SelfTimesUs(const std::vector<Span>& spans) {
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t parent = spans[i].parent;
    if (parent >= 0 && static_cast<size_t>(parent) < spans.size()) {
      children[static_cast<size_t>(parent)].push_back(i);
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  std::vector<std::pair<double, double>> covered;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    covered.clear();
    for (size_t c : children[i]) {
      const double lo = std::max(s.start_us, spans[c].start_us);
      const double hi = std::min(s.end_us, spans[c].end_us);
      if (hi > lo) covered.emplace_back(lo, hi);
    }
    std::sort(covered.begin(), covered.end());
    double union_us = 0.0;
    double run_lo = 0.0, run_hi = -1.0;
    for (const auto& [lo, hi] : covered) {
      if (lo > run_hi) {
        if (run_hi > run_lo) union_us += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) union_us += run_hi - run_lo;
    self[i] = std::max(0.0, (s.end_us - s.start_us) - union_us);
  }
  return self;
}

std::vector<std::string> SelfTimeReport(const std::vector<Span>& spans) {
  const std::vector<double> self = SelfTimesUs(spans);
  std::map<std::string, std::pair<std::vector<double>, std::vector<double>>>
      by_name;  // name -> (durations, self times), ms
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& [total, own] = by_name[spans[i].name];
    total.push_back((spans[i].end_us - spans[i].start_us) / 1e3);
    own.push_back(self[i] / 1e3);
  }
  std::vector<std::string> lines;
  for (const auto& [name, times] : by_name) {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "span %-20s n=%-7zu p50 %10.4f ms  self p50 %10.4f ms",
                  name.c_str(), times.first.size(), Median(times.first),
                  Median(times.second));
    lines.push_back(line);
  }
  return lines;
}

std::vector<double> DurationsMs(const std::vector<Span>& spans,
                                std::string_view name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name == name) out.push_back((s.end_us - s.start_us) / 1e3);
  }
  return out;
}

Clock::time_point OpenLoopClock::Due(int64_t i) const {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(
                         static_cast<double>(i) / rate_per_s));
}

namespace {

/// FNV-1a over bytes; compares reply payloads without keeping them.
uint64_t HashBytes(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace

ReplyDigest DigestReply(std::string_view line) {
  ReplyDigest d;
  constexpr std::string_view kOrdered = "ORDERED ";
  if (line.substr(0, kOrdered.size()) != kOrdered) {
    // "ERROR <id> ..." still carries the id so the reply can be matched.
    constexpr std::string_view kError = "ERROR ";
    if (line.substr(0, kError.size()) == kError) {
      const std::string_view rest = line.substr(kError.size());
      d.id = std::string(rest.substr(0, rest.find(' ')));
    }
    return d;
  }
  const std::string_view rest = line.substr(kOrdered.size());
  const size_t space = rest.find(' ');
  if (space == std::string_view::npos) return d;
  d.ordered = true;
  d.id = std::string(rest.substr(0, space));
  d.payload_hash = ReplyPayloadHash(line);
  return d;
}

uint64_t ReplyPayloadHash(std::string_view line) {
  const size_t first = line.find(' ');
  const size_t second =
      first == std::string_view::npos ? first : line.find(' ', first + 1);
  return HashBytes(second == std::string_view::npos ? std::string_view()
                                                    : line.substr(second + 1));
}

bool ReplyCorrect(bool replied, const ReplyDigest& reply,
                  uint64_t expected_hash, bool is_permutation) {
  return replied && reply.ordered && is_permutation &&
         reply.payload_hash == expected_hash;
}

bool IsPermutationReply(std::string_view line, int64_t expected_n) {
  constexpr std::string_view kOrdered = "ORDERED ";
  if (line.substr(0, kOrdered.size()) != kOrdered) return false;
  std::string_view rest = line.substr(kOrdered.size());
  const size_t space = rest.find(' ');
  if (space == std::string_view::npos) return false;
  rest.remove_prefix(space + 1);
  auto next = [&rest](int64_t* value) {
    while (!rest.empty() && rest.front() == ' ') rest.remove_prefix(1);
    if (rest.empty()) return false;
    const auto [ptr, ec] =
        std::from_chars(rest.data(), rest.data() + rest.size(), *value);
    if (ec != std::errc()) return false;
    rest.remove_prefix(static_cast<size_t>(ptr - rest.data()));
    return true;
  };
  int64_t n = 0;
  if (!next(&n) || n != expected_n) return false;
  std::vector<bool> seen(static_cast<size_t>(n), false);
  for (int64_t i = 0; i < n; ++i) {
    int64_t r = 0;
    if (!next(&r) || r < 0 || r >= n || seen[static_cast<size_t>(r)]) {
      return false;
    }
    seen[static_cast<size_t>(r)] = true;
  }
  while (!rest.empty() && rest.front() == ' ') rest.remove_prefix(1);
  return rest.empty();
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string ResultJson(const RunResult& result,
                       const std::vector<std::string>& names) {
  std::ostringstream out;
  out << "{\"correct\": " << (result.correct ? "true" : "false")
      << ", \"attempted\": " << result.outcomes.attempted
      << ", \"failed\": " << result.outcomes.failed << ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const std::string& name : names) {
    const auto it = result.metrics.find(name);
    if (it == result.metrics.end()) continue;
    double value = it->second.value;
    if (!std::isfinite(value)) value = 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out << (first ? "" : ", ") << '"' << name << "\": {\"value\": " << buf
        << ", \"unit\": \"" << it->second.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"setup_s", "s"},           {"latency_p50_ms", "ms"},
      {"latency_p99_ms", "ms"},   {"goodput_rps", "1/s"},
      {"load_p50_ms", "ms"},      {"load_p90_ms", "ms"},
      {"points_per_s", "1/s"},    {"queries_per_s", "1/s"},
      {"range_pages_mean", "pages"}, {"range_pages_max", "pages"},
      {"knn_pages_mean", "pages"}, {"success_frac", "frac"},
      {"peak_rss_mb", "MiB"},
  };
  return kMetrics;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"serve.parse_us_p50", "us"},
      {"serve.format_us_p50", "us"},
      {"serve.server_ms_p50", "ms"},
      {"serve.server_ms_p99", "ms"},
      {"serve.stream_ms_p50", "ms"},
      {"serve.batch_size_mean", "count"},
      {"serve.max_queue_depth", "count"},
      {"serve.shed", "count"},
      {"serve.expired", "count"},
      {"core.fingerprint_us_p50", "us"},
      {"core.hit_rate", "frac"},
      {"core.solves", "count"},
      {"core.evictions", "count"},
      {"core.coalesced", "count"},
      {"core.batch_ms_mean", "ms"},
      {"core.batch_ms_max", "ms"},
      {"core.snapshot_load_ms", "ms"},
      {"core.snapshot_save_ms", "ms"},
      {"core.order_ms_p50", "ms"},
      {"core.unattributed_ms_p50", "ms"},
      {"core.retried_solves", "count"},
      {"core.degraded_orders", "count"},
      {"graph.build_ms_p50", "ms"},
      {"graph.components_ms_p50", "ms"},
      {"graph.num_components_mean", "count"},
      {"graph.hierarchy_ms_p50", "ms"},
      {"eigen.spmm_ms", "ms"},
      {"eigen.reorth_ms", "ms"},
      {"eigen.hfill_ms", "ms"},
      {"eigen.rr_ms", "ms"},
      {"eigen.cheb_ms", "ms"},
      {"eigen.flops", "count"},
      {"eigen.matvecs", "count"},
      {"eigen.restarts", "count"},
      {"eigen.gflops", "GFLOP/s"},
      {"eigen.speedup_p4", "x"},
      {"eigen.unconverged", "count"},
      {"storage.layout_ms", "ms"},
      {"index.btree_ms", "ms"},
      {"index.rtree_ms", "ms"},
      {"query.range_us_p50", "us"},
      {"query.knn_us_p50", "us"},
      {"query.scan_per_match", "frac"},
      {"index.nodes_read_mean", "count"},
      {"storage.pool_hit_rate", "frac"},
      {"sfc.order_us_p50", "us"},
      {"workload.gen_lag_ms_p99", "ms"},
      {"trace.overhead_frac", "frac"},
  };
  return kMetrics;
}

void ZeroFillPerLayer(RunResult* result) {
  for (const auto& [name, unit] : PerLayerMetrics()) {
    if (result->metrics.find(name) == result->metrics.end()) {
      result->Set(name, 0.0, unit);
    }
  }
}

uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  // splitmix64 finalizer over (seed, stream).
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace perfbench
