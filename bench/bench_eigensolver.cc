// Experiment X6 — eigensolver substrate bench: every Fiedler engine (dense
// reference, scalar Lanczos with sequential deflation, block Lanczos cold,
// block Lanczos with the multilevel warm start) on the repo's standard
// workloads, reporting cold wall time, matvec/restart counts, and the true
// worst residual per extracted pair. This is the ablation behind the
// solver overhaul: it shows what the block path and the warm start each
// buy, and where the dense engine stops being viable.
//
// Emits bench_results/BENCH_eigensolver.json (one object per
// method/workload row) which tools/check_bench_regression.py diffs against
// the committed baseline next to the ordering-engines gate: cold time is
// share-normalized, matvecs are deterministic and gated on relative
// growth, residuals are gated against the tolerance contract.

#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/multilevel.h"
#include "eigen/fiedler.h"
#include "eigen/kernel_profile.h"
#include "graph/graph.h"
#include "graph/grid_graph.h"
#include "graph/laplacian.h"
#include "graph/point_graph.h"
#include "linalg/packed_basis.h"
#include "linalg/sparse_matrix.h"
#include "reference/lanczos.h"
#include "space/point_set.h"
#include "util/check.h"
#include "util/random.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "util/timer.h"
#include "workload/generators.h"

namespace spectral {
namespace bench {
namespace {

struct SolverSample {
  std::string method;
  std::string workload;
  double cold_ms = 0.0;
  int64_t matvecs = 0;
  int64_t restarts = 0;
  double max_residual = 0.0;
  double lambda2 = 0.0;
};

std::vector<SolverSample>& AllSamples() {
  static std::vector<SolverSample> samples;
  return samples;
}

void EmitJson() {
  std::vector<std::string> rows;
  for (const SolverSample& s : AllSamples()) {
    // max_residual in scientific notation: machine-precision residuals
    // (~1e-13) must survive the round trip, or the gate's growth check
    // would compare against a truncated 0.
    rows.push_back("{\"method\": \"" + s.method + "\", \"workload\": \"" +
                   s.workload + "\", \"cold_ms\": " +
                   FormatDouble(s.cold_ms, 3) + ", \"matvecs\": " +
                   FormatInt(s.matvecs) + ", \"restarts\": " +
                   FormatInt(s.restarts) + ", \"max_residual\": " +
                   FormatScientific(s.max_residual) + ", \"lambda2\": " +
                   FormatDouble(s.lambda2, 9) + "}");
  }
  EmitJsonRows("BENCH_eigensolver.json", rows);
}

// Worst ||L v - lambda v|| over the returned pairs.
double MaxResidual(const SparseMatrix& lap, const FiedlerResult& result) {
  double worst = 0.0;
  Vector lv(static_cast<size_t>(lap.rows()));
  for (const LaplacianEigenPair& pair : result.pairs) {
    lap.MatVec(pair.eigenvector, lv);
    Axpy(-pair.eigenvalue, pair.eigenvector, lv);
    worst = std::max(worst, Norm2(lv));
  }
  return worst;
}

struct Workload {
  std::string name;
  Graph graph;
  SparseMatrix laplacian;
  std::vector<Vector> axes;
};

Workload MakeGridWorkload(std::vector<Coord> sides) {
  Workload w;
  GridSpec grid(sides);
  w.name = "grid";
  for (size_t d = 0; d < sides.size(); ++d) {
    if (d > 0) w.name += "x";
    w.name += FormatInt(sides[d]);
  }
  w.graph = BuildGridGraph(grid);
  w.laplacian = BuildLaplacian(w.graph);
  w.axes = PointSet::FullGrid(grid).CenteredAxisFunctions();
  return w;
}

Workload MakeKernelBlobWorkload() {
  Rng rng(12345);
  PointSet points = SampleConnectedBlob(GridSpec({300, 30}), 5000, rng);
  PointGraphOptions graph_options;
  graph_options.radius = 2;
  graph_options.kernel = WeightKernel::kGaussian;
  graph_options.gaussian_sigma = 1.5;
  auto graph = BuildPointGraph(points, graph_options);
  SPECTRAL_CHECK(graph.ok()) << graph.status();
  Workload w;
  w.name = "kernelblob300x30";
  w.graph = std::move(*graph);
  w.laplacian = BuildLaplacian(w.graph);
  w.axes = points.CenteredAxisFunctions();
  return w;
}

// Per-kernel share rows for the block solver: one row per profiled phase
// (SpMM growth, BCGS2 reorth, multi-dot H-fill, Rayleigh-Ritz, Chebyshev
// filter). `cold_ms` is the phase's wall time (share-gated like any other
// row) and `matvecs` carries the phase's deterministic flop estimate, so
// the gate pins the work volume even when the timing share is noise. The
// regression gate additionally checks that the phase times of a workload
// sum to at most the block row's total (tools/check_bench_regression.py).
void EmitPhaseRows(const Workload& w, const KernelProfile& p,
                   TablePrinter& table) {
  const struct {
    const char* name;
    double ms;
    int64_t flops;
  } phases[] = {{"phase-spmm", p.spmm_ms, p.spmm_flops},
                {"phase-reorth", p.reorth_ms, p.reorth_flops},
                {"phase-hfill", p.hfill_ms, p.hfill_flops},
                {"phase-rr", p.rr_ms, p.rr_flops},
                {"phase-cheb", p.cheb_ms, p.cheb_flops}};
  for (const auto& phase : phases) {
    SolverSample sample;
    sample.method = phase.name;
    sample.workload = w.name;
    sample.cold_ms = phase.ms;
    sample.matvecs = phase.flops;  // deterministic flop estimate
    AllSamples().push_back(sample);
    table.AddRow({w.name, sample.method, FormatDouble(sample.cold_ms, 1),
                  FormatInt(sample.matvecs), "0", "0", "0",
                  "block solver kernel share"});
  }
}

void RunMethod(const std::string& method, const Workload& w,
               TablePrinter& table, bool emit_phases = false) {
  FiedlerOptions options;
  options.num_pairs = 3;
  WallTimer timer;
  StatusOr<FiedlerResult> result = [&]() -> StatusOr<FiedlerResult> {
    if (method == "multilevel-warm") {
      return ComputeFiedlerMultilevel(w.graph, {}, options, w.axes);
    }
    if (method == "lanczos") {
      // The out-of-library oracle: raw pairs and counters only, which is
      // all this bench reports.
      auto oracle = LanczosPath(w.laplacian, options);
      if (!oracle.ok()) return oracle.status();
      FiedlerResult out;
      out.pairs = std::move(oracle->pairs);
      out.lambda2 = out.pairs[0].eigenvalue;
      out.matvecs = oracle->matvecs;
      out.restarts = oracle->restarts;
      out.method_used = "lanczos";
      return out;
    }
    if (method == "dense") {
      options.dense_threshold = w.laplacian.rows();
    } else {
      SPECTRAL_CHECK_EQ(method, "block");
      options.dense_threshold = 0;
    }
    return ComputeFiedler(w.laplacian, options, w.axes);
  }();
  const double cold_ms = timer.ElapsedSeconds() * 1e3;
  SPECTRAL_CHECK(result.ok()) << method << " on " << w.name << ": "
                              << result.status();

  SolverSample sample;
  sample.method = method;
  sample.workload = w.name;
  sample.cold_ms = cold_ms;
  sample.matvecs = result->matvecs;
  sample.restarts = result->restarts;
  sample.max_residual = MaxResidual(w.laplacian, *result);
  sample.lambda2 = result->lambda2;
  AllSamples().push_back(sample);
  table.AddRow({w.name, method, FormatDouble(cold_ms, 1),
                FormatInt(sample.matvecs), FormatInt(sample.restarts),
                FormatDouble(sample.max_residual, 10),
                FormatDouble(sample.lambda2, 8), result->method_used});
  if (emit_phases) EmitPhaseRows(w, result->profile, table);
}

// --- Kernel microbenches --------------------------------------------------
// Direct timings of the two fused kernels behind the block solver, emitted
// as rows in the same JSON so the regression gate covers them: `matvecs`
// carries each kernel's deterministic work counter (column applications /
// panel applications) and `max_residual` its correctness check, so a
// rewrite that silently changes the arithmetic or the work volume fails
// the gate even when the timing share sits below the noise floor.

// "spmm-w8": fused 8-wide SpMM passes chained output-to-input, then
// verified element-for-element against per-column MatVec (the kernel's
// bit-identity contract, so the residual is exactly 0).
void RunSpmmMicrobench(const Workload& w, TablePrinter& table) {
  constexpr int64_t kWidth = 8;
  constexpr int kReps = 40;
  const int64_t n = w.laplacian.rows();
  Rng rng(0xb10cf00d);
  std::vector<double> x(static_cast<size_t>(n * kWidth));
  std::vector<double> y(x.size());
  for (double& v : x) v = rng.UniformDouble(-1.0, 1.0);
  const std::vector<double> x0 = x;

  WallTimer timer;
  for (int r = 0; r < kReps; ++r) {
    w.laplacian.MatVecRowsPanel(0, n, kWidth, x.data(), kWidth, y.data(),
                                kWidth);
    x.swap(y);
  }
  const double cold_ms = timer.ElapsedSeconds() * 1e3;

  // Bit-identity check against the scalar kernel, off the clock.
  w.laplacian.MatVecRowsPanel(0, n, kWidth, x0.data(), kWidth, y.data(),
                              kWidth);
  double worst = 0.0;
  Vector xc(static_cast<size_t>(n));
  Vector yc(static_cast<size_t>(n));
  for (int64_t c = 0; c < kWidth; ++c) {
    for (int64_t j = 0; j < n; ++j) {
      xc[static_cast<size_t>(j)] = x0[static_cast<size_t>(j * kWidth + c)];
    }
    w.laplacian.MatVec(xc, yc);
    for (int64_t j = 0; j < n; ++j) {
      worst = std::max(worst,
                       std::fabs(yc[static_cast<size_t>(j)] -
                                 y[static_cast<size_t>(j * kWidth + c)]));
    }
  }

  SolverSample sample;
  sample.method = "spmm-w8";
  sample.workload = w.name;
  sample.cold_ms = cold_ms;
  sample.matvecs = kReps * kWidth;  // column applications, deterministic
  sample.max_residual = worst;      // == 0: bit-identical to MatVec
  AllSamples().push_back(sample);
  table.AddRow({w.name, sample.method, FormatDouble(cold_ms, 1),
                FormatInt(sample.matvecs), "0",
                FormatDouble(sample.max_residual, 10), "0",
                "fused SpMM vs per-column MatVec"});
}

// "reorth-blocked": panel-blocked orthonormalization of a seeded 24-column
// block; `matvecs` carries the panel counter and `max_residual` the worst
// |Q^T Q - I| entry of the factor.
void RunReorthMicrobench(const Workload& w, TablePrinter& table) {
  constexpr int kCols = 24;
  constexpr int kReps = 10;
  const int64_t n = w.laplacian.rows();
  Rng rng(0x0c7a90);
  PackedBasis master;
  master.Reset(n, kCols);
  for (int64_t c = 0; c < kCols; ++c) {
    for (int64_t r = 0; r < n; ++r) {
      master.at(r, c) = rng.UniformDouble(-1.0, 1.0);
    }
  }

  int64_t panels = 0;
  int64_t rank = 0;
  PackedBasis q;
  WallTimer timer;
  for (int r = 0; r < kReps; ++r) {
    q = master;
    rank = OrthonormalizeColumns(q, 0, kCols, /*drop_tol=*/1e-10, &panels);
  }
  const double cold_ms = timer.ElapsedSeconds() * 1e3;
  SPECTRAL_CHECK_EQ(rank, kCols);

  double worst = 0.0;
  for (int64_t i = 0; i < kCols; ++i) {
    for (int64_t j = i; j < kCols; ++j) {
      const double expect = i == j ? 1.0 : 0.0;
      worst = std::max(worst, std::fabs(DotColumns(q, i, q, j) - expect));
    }
  }

  SolverSample sample;
  sample.method = "reorth-blocked";
  sample.workload = w.name;
  sample.cold_ms = cold_ms;
  sample.matvecs = panels;     // panel applications, deterministic
  sample.max_residual = worst; // worst |Q^T Q - I|
  AllSamples().push_back(sample);
  table.AddRow({w.name, sample.method, FormatDouble(cold_ms, 1),
                FormatInt(sample.matvecs), "0",
                FormatDouble(sample.max_residual, 10), "0",
                "panel-blocked orthonormalize, 24 cols"});
}

// "hfill-multidot": the fused symmetric multi-dot behind the Rayleigh-Ritz
// H-fill — one pass per 8-column panel instead of 2m scalar Dot passes per
// projected row. `matvecs` carries the number of H entries computed and
// `max_residual` the worst deviation from the scalar (Dot + Dot) / 2
// reference (the kernel's bit-identity contract, so it is exactly 0).
void RunHfillMicrobench(const Workload& w, TablePrinter& table) {
  constexpr int64_t kCols = 24;
  constexpr int kReps = 20;
  const int64_t n = w.laplacian.rows();
  Rng rng(0x4f111);
  PackedBasis v, av;
  v.Reset(n, kCols);
  av.Reset(n, kCols);
  for (int64_t r = 0; r < n; ++r) {
    for (int64_t c = 0; c < kCols; ++c) {
      v.at(r, c) = rng.UniformDouble(-1.0, 1.0);
      av.at(r, c) = rng.UniformDouble(-1.0, 1.0);
    }
  }

  std::vector<double> h(static_cast<size_t>(kCols * kCols), 0.0);
  int64_t entries = 0;
  WallTimer timer;
  for (int rep = 0; rep < kReps; ++rep) {
    entries = 0;
    for (int64_t i = 0; i < kCols; ++i) {
      ProjectedRowMultiDot(v, av, i, i, kCols - i,
                           h.data() + i * kCols + i);
      entries += kCols - i;
    }
  }
  const double cold_ms = timer.ElapsedSeconds() * 1e3;

  // Bit-identity check against the scalar Dot pair, off the clock.
  double worst = 0.0;
  Vector vi, vj, avi, avj;
  for (int64_t i = 0; i < kCols; ++i) {
    v.CopyColumnOut(i, vi);
    av.CopyColumnOut(i, avi);
    for (int64_t j = i; j < kCols; ++j) {
      v.CopyColumnOut(j, vj);
      av.CopyColumnOut(j, avj);
      const double expect = (Dot(vi, avj) + Dot(vj, avi)) / 2.0;
      worst = std::max(
          worst, std::fabs(h[static_cast<size_t>(i * kCols + j)] - expect));
    }
  }

  SolverSample sample;
  sample.method = "hfill-multidot";
  sample.workload = w.name;
  sample.cold_ms = cold_ms;
  sample.matvecs = kReps * entries;  // H entries computed, deterministic
  sample.max_residual = worst;       // == 0: bit-identical to Dot pairs
  AllSamples().push_back(sample);
  table.AddRow({w.name, sample.method, FormatDouble(cold_ms, 1),
                FormatInt(sample.matvecs), "0",
                FormatDouble(sample.max_residual, 10), "0",
                "fused multi-dot vs scalar Dot pairs, 24 cols"});
}

void Run() {
  std::cout << "Fiedler engines (num_pairs=3, tol=1e-9): cold wall time, "
               "matvec/restart counts, worst true residual per method and "
               "workload\n\n";
  TablePrinter table;
  table.SetHeader({"workload", "method", "cold_ms", "matvecs", "restarts",
                   "max_residual", "lambda2", "detail"});

  // The dense reference only on a size where O(n^3) is still sane.
  {
    const Workload small = MakeGridWorkload({16, 16});
    RunMethod("dense", small, table);
    RunMethod("lanczos", small, table);
    RunMethod("block", small, table);
  }

  std::vector<Workload> workloads;
  workloads.push_back(MakeGridWorkload({64, 64}));
  workloads.push_back(MakeGridWorkload({128, 32}));
  workloads.push_back(MakeKernelBlobWorkload());
  for (const Workload& w : workloads) {
    RunMethod("lanczos", w, table);
    RunMethod("block", w, table, /*emit_phases=*/true);
    RunMethod("multilevel-warm", w, table);
  }

  // Kernel microbenches on the two structurally different Laplacians (5-pt
  // grid stencil vs irregular Gaussian-kernel graph).
  RunSpmmMicrobench(workloads[0], table);
  RunReorthMicrobench(workloads[0], table);
  RunHfillMicrobench(workloads[0], table);
  RunSpmmMicrobench(workloads[2], table);
  RunReorthMicrobench(workloads[2], table);
  RunHfillMicrobench(workloads[2], table);
  EmitTable("eigensolver", table);
}

}  // namespace
}  // namespace bench
}  // namespace spectral

int main() {
  spectral::bench::Run();
  spectral::bench::EmitJson();
  return 0;
}
