// perfbench: the end-to-end benchmark of the ordering library.
//
//   perfbench --workload <map_connected|map_scattered|serve_hot|serve_churn>
//             --seed <n> --seconds <s> --trace <0|1> [--workdir <dir>]
//
// Prints a human-readable report (lines starting with '#') and, as the last
// line, one JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end metrics of an untraced run; with
// --trace 1 they are the per-layer metrics of a traced run on the same seed
// and schedule. run.py builds this binary and forwards the arguments.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <map_connected|map_scattered|"
               "serve_hot|serve_churn> --seed <n> --seconds <s> --trace <0|1> "
               "[--workdir <dir>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  std::string workload;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage();
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || options.seconds <= 0.0) return Usage();
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage();
      options.trace = value == "1";
    } else if (flag == "--workdir") {
      options.workdir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1) return Usage();

  perfbench::RunResult result;
  if (workload == "map_connected") {
    result = perfbench::RunMapWorkload(perfbench::MapKind::kConnected, options);
  } else if (workload == "map_scattered") {
    result = perfbench::RunMapWorkload(perfbench::MapKind::kScattered, options);
  } else if (workload == "serve_hot") {
    result = perfbench::RunServeWorkload(perfbench::ServeKind::kHot, options);
  } else if (workload == "serve_churn") {
    result = perfbench::RunServeWorkload(perfbench::ServeKind::kChurn, options);
  } else {
    return Usage();
  }

  std::printf("# workload=%s seed=%llu seconds=%g trace=%d\n", workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  for (const std::string& note : result.notes) {
    std::printf("# %s\n", note.c_str());
  }
  std::printf("# attempted=%lld failed=%lld failed_frac=%.6g\n",
              static_cast<long long>(result.outcomes.attempted),
              static_cast<long long>(result.outcomes.failed),
              result.outcomes.failed_frac());
  for (const perfbench::SupportRow& row : result.support) {
    std::printf("# %-32s n=%-8lld %s\n", row.name.c_str(),
                static_cast<long long>(row.p.samples),
                row.p.supported ? "supported" : "UNSUPPORTED (<10 beyond)");
  }

  std::vector<std::string> names;
  const auto& metrics = options.trace ? perfbench::PerLayerMetrics()
                                      : perfbench::EndToEndMetrics();
  if (options.trace) perfbench::ZeroFillPerLayer(&result);
  for (const auto& [name, unit] : metrics) {
    names.push_back(name);
    const auto it = result.metrics.find(name);
    if (it == result.metrics.end()) {
      std::printf("# %-28s %14s\n", name.c_str(), "n/a");
    } else {
      std::printf("# %-28s %14.6g %s\n", name.c_str(), it->second.value,
                  unit.c_str());
    }
  }
  std::printf("%s\n", perfbench::ResultJson(result, names).c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
