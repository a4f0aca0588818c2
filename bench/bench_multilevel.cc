// Experiment X9 — solver ablation: flat scalar Lanczos (the oracle in
// reference/lanczos.h) vs the multilevel V-cycle on growing grids. Reports
// wall time, matvec counts, and the eigenvalue error against the
// closed-form grid spectrum.

#include <cmath>
#include <iostream>
#include <numbers>

#include "bench/bench_common.h"
#include "core/multilevel.h"
#include "eigen/fiedler.h"
#include "graph/grid_graph.h"
#include "graph/laplacian.h"
#include "reference/lanczos.h"
#include "util/check.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace spectral {
namespace bench {
namespace {

constexpr double kPi = std::numbers::pi;

void RunSide(Coord side, TablePrinter& table) {
  const GridSpec grid = GridSpec::Uniform(2, side);
  const Graph g = BuildGridGraph(grid);
  const double exact = 2.0 - 2.0 * std::cos(kPi / side);

  FiedlerOptions flat_options;
  flat_options.num_pairs = 1;
  WallTimer flat_timer;
  auto flat = LanczosPath(BuildLaplacian(g), flat_options);
  const double flat_seconds = flat_timer.ElapsedSeconds();
  SPECTRAL_CHECK(flat.ok());
  const double flat_lambda2 = flat->pairs[0].eigenvalue;

  WallTimer ml_timer;
  auto multi = ComputeFiedlerMultilevel(g);
  const double ml_seconds = ml_timer.ElapsedSeconds();
  SPECTRAL_CHECK(multi.ok());

  const int64_t n = grid.NumCells();
  table.AddRow({FormatInt(side) + "x" + FormatInt(side), FormatInt(n),
                FormatDouble(flat_seconds * 1e3, 1),
                FormatInt(flat->matvecs),
                FormatDouble(std::fabs(flat_lambda2 - exact), 9),
                FormatDouble(ml_seconds * 1e3, 1), FormatInt(multi->matvecs),
                FormatDouble(std::fabs(multi->lambda2 - exact), 9)});
}

void Run() {
  std::cout << "Solver ablation: flat Lanczos vs multilevel V-cycle "
               "(2-d grids; |err| is the gap to the closed-form lambda2)\n\n";
  TablePrinter table;
  table.SetHeader({"grid", "n", "flat_ms", "flat_matvecs", "flat_err",
                   "ml_ms", "ml_matvecs", "ml_err"});
  RunSide(32, table);
  RunSide(48, table);
  RunSide(64, table);
  RunSide(96, table);
  EmitTable("multilevel", table);
}

}  // namespace
}  // namespace bench
}  // namespace spectral

int main() {
  spectral::bench::Run();
  return 0;
}
