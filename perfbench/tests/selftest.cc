// Self-test of the benchmark harness: the percentile-with-support rule, self
// time from nested spans, due-time latency accounting, and the failure
// bookkeeping on a synthetic wrong reply and a wrong range count.
//
//   python3 perfbench/run.py --selftest

#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/ordering_engine.h"
#include "core/ordering_request.h"
#include "harness.h"
#include "serve/wire.h"
#include "space/grid.h"
#include "space/point_set.h"
#include "workloads.h"

namespace {

int failures = 0;

void Expect(bool condition, const char* what) {
  if (!condition) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> Iota(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

void TestPercentileSupport() {
  using perfbench::PercentileOf;
  // p99 needs ten samples beyond it: 1000 samples is the least that does.
  Expect(PercentileOf(Iota(1000), 0.99).supported, "p99 of 1000 is supported");
  Expect(Near(PercentileOf(Iota(1000), 0.99).value, 990), "p99 of 1..1000");
  Expect(!PercentileOf(Iota(999), 0.99).supported, "p99 of 999 is not");
  Expect(PercentileOf(Iota(100), 0.90).supported, "p90 of 100 is supported");
  Expect(!PercentileOf(Iota(99), 0.90).supported, "p90 of 99 is not");
  Expect(Near(PercentileOf(Iota(100), 0.50).value, 50), "p50 of 1..100");
  Expect(PercentileOf(Iota(100), 0.50).samples == 100, "sample count kept");
  Expect(PercentileOf({}, 0.5).samples == 0 &&
             !PercentileOf({}, 0.5).supported,
         "empty percentile is unsupported");
  // Order of the input does not matter.
  std::vector<double> shuffled = {5, 1, 4, 2, 3};
  Expect(Near(PercentileOf(shuffled, 0.5).value, 3), "p50 of shuffled");

  // Windowed: five windows of 1000; one slow window does not set the value.
  std::vector<double> timeline;
  for (int w = 0; w < 5; ++w) {
    for (int i = 1; i <= 1000; ++i) timeline.push_back(w == 2 ? 100.0 * i : i);
  }
  const perfbench::Percentile windowed =
      perfbench::WindowedPercentile(timeline, 0.99, 1000);
  Expect(Near(windowed.value, 990), "windowed p99 ignores one slow window");
  Expect(windowed.supported && windowed.samples == 5000,
         "windowed p99 is supported in every window");
  Expect(!perfbench::WindowedPercentile(Iota(999), 0.99, 1000).supported,
         "a short series is one window, with the plain support rule");
  Expect(Near(perfbench::WindowedPercentile(Iota(1999), 0.5, 1000).value,
              PercentileOf(Iota(1999), 0.5).value),
         "one window is the plain percentile");
}

void TestSelfTime() {
  using perfbench::Span;
  // root [0, 100] with children [10, 30], [20, 50] (overlapping) and
  // [90, 120] (clipped to the root): covered = [10, 50] + [90, 100] = 50.
  // A grandchild under the first child must not count against the root.
  const std::vector<Span> spans = {
      {"root", 1, -1, 0, 100},   {"a", 1, 0, 10, 30}, {"b", 1, 0, 20, 50},
      {"c", 1, 0, 90, 120},      {"a.x", 1, 1, 12, 18},
  };
  const std::vector<double> self = perfbench::SelfTimesUs(spans);
  Expect(Near(self[0], 50), "root self time excludes the union of children");
  Expect(Near(self[1], 14), "child self time excludes its own child");
  Expect(Near(self[2], 30), "leaf self time is its duration");
  Expect(Near(self[4], 6), "grandchild self time");
  Expect(perfbench::DurationsMs(spans, "a").size() == 1, "durations by name");

  // The tracer records real nesting the same way.
  perfbench::Tracer tracer(true);
  {
    perfbench::ScopedSpan outer(tracer, "outer", 7);
    perfbench::ScopedSpan inner(tracer, "inner", 7, outer.id());
  }
  const auto recorded = tracer.spans();
  Expect(recorded.size() == 2 && recorded[1].parent == 0 &&
             recorded[1].request == 7,
         "tracer records parent and request id");
  perfbench::Tracer off(false);
  Expect(off.Begin("x", 1) == -1 && off.spans().empty(),
         "a disabled tracer records nothing");
}

void TestDueTimeLatency() {
  using namespace std::chrono;
  const perfbench::Clock::time_point t0{};
  const perfbench::OpenLoopClock clock{t0, 100.0};  // one request per 10 ms
  Expect(clock.Due(5) == t0 + milliseconds(50), "due time of request 5");
  // A reply at 70 ms to a request due at 50 ms waited 20 ms, even if the
  // generator only sent it at 65 ms (15 ms late).
  Expect(Near(clock.LatencyMs(5, t0 + milliseconds(70)), 20),
         "latency counts from the due time");
  Expect(Near(clock.LagMs(5, t0 + milliseconds(65)), 15), "generator lag");
}

void TestFailureBookkeeping() {
  // The reference: a direct registry-engine order of a small grid.
  const auto wire = spectral::ParseWireRequest("ORDER 0 hilbert GRID 4x4");
  Expect(wire.ok(), "parse a wire request");
  if (!wire.ok()) return;
  auto engine = spectral::MakeOrderingEngine("hilbert");
  auto reference = (*engine)->Order(wire->request);
  Expect(reference.ok(), "reference order");
  if (!reference.ok()) return;
  const uint64_t expected = perfbench::ReplyPayloadHash(
      spectral::FormatOrderedResponse("x", *reference));

  // A correct reply under another id, a reply with two ranks swapped (still
  // a permutation, but the wrong order), a reply with a repeated rank, and an
  // error reply.
  const std::string good = spectral::FormatOrderedResponse("17", *reference);
  std::vector<int64_t> swapped_ranks, repeated_ranks;
  for (int64_t i = 0; i < 16; ++i) {
    swapped_ranks.push_back(reference->order.RankOf(i));
    repeated_ranks.push_back(reference->order.RankOf(i));
  }
  std::swap(swapped_ranks[0], swapped_ranks[1]);
  repeated_ranks[1] = repeated_ranks[0];
  auto reply = [](const char* id, const std::vector<int64_t>& ranks) {
    std::string line = std::string("ORDERED ") + id + " 16";
    for (const int64_t r : ranks) line.append(" ").append(std::to_string(r));
    return line;
  };
  const std::string swapped = reply("18", swapped_ranks);
  const std::string repeated = reply("19", repeated_ranks);
  const std::string error = "ERROR 20 RESOURCE_EXHAUSTED queue full";

  perfbench::Outcomes outcomes;
  for (const std::string& line : {good, swapped, repeated, error}) {
    const perfbench::ReplyDigest digest = perfbench::DigestReply(line);
    outcomes.Record(perfbench::ReplyCorrect(
        /*replied=*/true, digest, expected,
        perfbench::IsPermutationReply(line, 16)));
  }
  // A request that never got a reply.
  outcomes.Record(perfbench::ReplyCorrect(false, {}, expected, true));
  Expect(perfbench::IsPermutationReply(good, 16), "good reply is a permutation");
  Expect(perfbench::IsPermutationReply(swapped, 16), "swapped is a permutation");
  Expect(!perfbench::IsPermutationReply(repeated, 16), "repeated rank is not");
  Expect(!perfbench::IsPermutationReply(good, 15), "wrong length is not");
  Expect(perfbench::DigestReply(error).id == "20", "error replies keep the id");
  Expect(outcomes.attempted == 5 && outcomes.failed == 4,
         "only the correct reply counts as a success");
  Expect(Near(outcomes.failed_frac(), 0.8), "failed_frac = failed / attempted");
  Expect(Near(outcomes.success_frac(), 0.2), "success_frac = 1 - failed_frac");

  // Range answers are checked against a brute-force count.
  const spectral::PointSet grid =
      spectral::PointSet::FullGrid(spectral::GridSpec({8, 8}));
  const perfbench::Box box{{2, 2}, {4, 5}};
  Expect(perfbench::BruteForceMatches(grid, box) == 12, "brute-force count");
  perfbench::Outcomes ranges;
  ranges.Record(perfbench::BruteForceMatches(grid, box) == 12);
  ranges.Record(perfbench::BruteForceMatches(grid, box) == 11);  // wrong
  Expect(ranges.failed == 1 && Near(ranges.failed_frac(), 0.5),
         "a wrong range count is a failure");
}

}  // namespace

int main() {
  TestPercentileSupport();
  TestSelfTime();
  TestDueTimeLatency();
  TestFailureBookkeeping();
  if (failures == 0) {
    std::printf("perfbench selftest: all checks passed\n");
    return 0;
  }
  std::printf("perfbench selftest: %d check(s) failed\n", failures);
  return 1;
}
