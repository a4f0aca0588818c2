// Command-line mapper: read a point file, compute a linear order through
// the MappingService facade, write it back out. Lets the (expensive)
// eigensolve run offline and the resulting order ship to whatever system
// lays the data out.
//
// Usage:
//   spectral_map_cli <points.txt> <order.txt> [options]
// Options:
//   --mapping=NAME    any OrderingEngine registry name (the engine list in
//                     --help is generated from the registry itself)
//   --connectivity=orthogonal|moore      (spectral family only)
//   --radius=N                           (default 1)
//   --parallelism=N   worker threads shared by batch fan-out and the
//                     spectral solves (0 = hardware concurrency, 1 = serial)
//   --cache=N         LRU order-cache capacity in entries (default 0 = off)
//   --batch=K         submit K copies of the request as one OrderBatch —
//                     a cache/batching smoke knob; the order file is
//                     written once and the service stats are printed
//   --profile         print the block solver's per-kernel breakdown (wall
//                     ms and deterministic flop estimates for SpMM /
//                     reorth / H-fill / Rayleigh-Ritz / Chebyshev)
//   --quiet           suppress the summary lines
//
// The points file uses the core/serialization.h text format; see
// examples/offline_pipeline.cpp for a producer.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "core/mapping_service.h"
#include "core/ordering_request.h"
#include "core/serialization.h"
#include "eigen/kernel_profile.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace spectral {
namespace {

struct CliArgs {
  std::string points_path;
  std::string order_path;
  std::string mapping = "spectral";
  GridConnectivity connectivity = GridConnectivity::kOrthogonal;
  int radius = 1;
  int parallelism = 0;
  int64_t cache = 0;
  int64_t batch = 1;
  bool profile = false;
  bool quiet = false;
};

bool ParseFlag(const std::string& arg, const std::string& name,
               std::string* value) {
  const std::string prefix = "--" + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

int Usage() {
  std::cerr << "usage: spectral_map_cli <points.txt> <order.txt> "
               "[--mapping=NAME] [--connectivity=orthogonal|moore] "
               "[--radius=N] [--parallelism=N] [--cache=N] [--batch=K] "
               "[--profile] [--quiet]\n"
               "known mappings: "
            << StrJoin(AllOrderingEngineNames(), ", ") << "\n";
  return 2;
}

int RunCli(const CliArgs& args) {
  auto points = LoadPointSetFromFile(args.points_path);
  if (!points.ok()) {
    std::cerr << "error reading points: " << points.status() << "\n";
    return 1;
  }

  OrderingRequest request = OrderingRequest::ForPoints(*points, args.mapping);
  request.options.spectral.graph.connectivity = args.connectivity;
  request.options.spectral.graph.radius = args.radius;
  request.options.spectral.parallelism = args.parallelism;

  MappingServiceOptions service_options;
  service_options.parallelism = args.parallelism;
  service_options.cache_capacity = static_cast<size_t>(args.cache);
  MappingService service(service_options);

  const std::vector<OrderingRequest> batch(
      static_cast<size_t>(args.batch), request);
  WallTimer timer;
  auto results = service.OrderBatch(batch);
  const double seconds = timer.ElapsedSeconds();
  for (const auto& result : results) {
    if (!result.ok()) {
      std::cerr << "mapping failed: " << result.status() << "\n";
      return result.status().code() == StatusCode::kNotFound ? 2 : 1;
    }
  }
  const OrderingResult& result = *results.front();

  if (const Status s = SaveLinearOrderToFile(result.order, args.order_path);
      !s.ok()) {
    std::cerr << "error writing order: " << s << "\n";
    return 1;
  }
  if (!args.quiet) {
    std::cout << "mapped " << points->size() << " points (" << points->dims()
              << "-d) with " << args.mapping << " in "
              << static_cast<int64_t>(seconds * 1e3) << " ms; "
              << result.detail << "; wrote " << args.order_path << "\n";
    const MappingServiceStats stats = service.stats();
    std::cout << "service: requests=" << stats.requests
              << " solves=" << stats.solves
              << " cache_hits=" << stats.cache_hits
              << " cache_misses=" << stats.cache_misses
              << " cache_evictions=" << stats.cache_evictions
              << " fingerprint=" << request.Fingerprint().ToHex() << "\n";
  }
  if (args.profile) {
    // Wall times are machine state; the flop estimates are deterministic
    // (they also ride in result.detail as the flops=... token).
    const KernelProfile& p = result.profile;
    const struct {
      const char* name;
      double ms;
      int64_t flops;
    } phases[] = {{"spmm", p.spmm_ms, p.spmm_flops},
                  {"reorth", p.reorth_ms, p.reorth_flops},
                  {"hfill", p.hfill_ms, p.hfill_flops},
                  {"rr", p.rr_ms, p.rr_flops},
                  {"cheb", p.cheb_ms, p.cheb_flops}};
    const double total_ms = p.total_ms();
    std::cout << "profile (block solver kernels):\n";
    for (const auto& phase : phases) {
      const double share = total_ms > 0.0 ? phase.ms / total_ms : 0.0;
      std::printf("  %-7s %9.2f ms  %5.1f%%  %15lld flops\n", phase.name,
                  phase.ms, share * 100.0,
                  static_cast<long long>(phase.flops));
    }
    std::printf("  %-7s %9.2f ms         %15lld flops\n", "total", total_ms,
                static_cast<long long>(p.total_flops()));
  }
  return 0;
}

}  // namespace
}  // namespace spectral

int main(int argc, char** argv) {
  spectral::CliArgs args;
  std::string value;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (spectral::ParseFlag(arg, "mapping", &value)) {
      args.mapping = value;
    } else if (spectral::ParseFlag(arg, "connectivity", &value)) {
      if (value == "moore") {
        args.connectivity = spectral::GridConnectivity::kMoore;
      } else if (value == "orthogonal") {
        args.connectivity = spectral::GridConnectivity::kOrthogonal;
      } else {
        return spectral::Usage();
      }
    } else if (spectral::ParseFlag(arg, "radius", &value)) {
      args.radius = std::atoi(value.c_str());
      if (args.radius < 1) return spectral::Usage();
    } else if (spectral::ParseFlag(arg, "parallelism", &value)) {
      args.parallelism = std::atoi(value.c_str());
      if (args.parallelism < 0) return spectral::Usage();
    } else if (spectral::ParseFlag(arg, "cache", &value)) {
      args.cache = std::atoll(value.c_str());
      if (args.cache < 0) return spectral::Usage();
    } else if (spectral::ParseFlag(arg, "batch", &value)) {
      args.batch = std::atoll(value.c_str());
      if (args.batch < 1) return spectral::Usage();
    } else if (arg == "--profile") {
      args.profile = true;
    } else if (arg == "--quiet") {
      args.quiet = true;
    } else if (arg.rfind("--", 0) == 0) {
      return spectral::Usage();
    } else if (positional == 0) {
      args.points_path = arg;
      ++positional;
    } else if (positional == 1) {
      args.order_path = arg;
      ++positional;
    } else {
      return spectral::Usage();
    }
  }
  if (positional != 2) return spectral::Usage();
  return spectral::RunCli(args);
}
