#!/usr/bin/env python3
"""CI bench-regression gate over the committed bench baselines.

Diffs one or more bench suites against their committed baseline JSONs and
fails on regressions. Four suites are known:

  ordering     bench_ordering_engines -> bench_results/BENCH_ordering_engines.json
               rows keyed (engine, workload); gates cold-time share
               and spearman_vs_spectral drops.
  eigensolver  bench_eigensolver -> bench_results/BENCH_eigensolver.json
               rows keyed (method, workload); gates cold-time share, matvec
               growth (deterministic counts), and residual growth beyond
               the tolerance contract. Shares are taken over the
               production rows only: the reference solvers ("dense",
               "lanczos") keep their matvec and residual gates but are
               left out of the share totals and share check. The block
               solver additionally emits
               per-kernel "phase-*" share rows (cold_ms = phase wall time,
               matvecs = deterministic flop estimate) plus an
               "hfill-multidot" microbench row; a consistency check
               requires each workload's phase times to sum to at most the
               "block" row's total (+5% timer slack).
  service      bench_service_traffic -> bench_results/BENCH_service_traffic.json
               rows keyed (scenario,); gates only the machine-portable
               metrics — cache hit rate drops, deduplicated-solve-count
               growth, Spearman-vs-direct drops, and (rows that carry
               them) exact ladder counters retried_solves /
               degraded_orders (all deterministic: the bench pins the
               request mix seed, the fault schedule, and uses a cache
               larger than the request universe). The "degraded" row is
               only emitted by SPECTRAL_FAULTS=ON builds — gate this
               suite from one (CI's bench job is). Absolute qps and
               latency are reported but never gated; wall_ms feeds the
               share check.
  query        bench_query_io -> bench_results/BENCH_query_io.json
               rows keyed (workload, engine, pool_pages); gates the
               deterministic page-I/O counters (pages-touched growth,
               buffer hit-rate drops) and a paper-fidelity consistency
               check: on the grid64x64 workload the spectral engine's
               worst-case range-query pages must stay strictly below
               every fractal curve's (zorder, gray, hilbert, peano) —
               Figure 6's claim, end-to-end. wall_ms feeds the share
               check only.

For every suite the gate fails on:

  * a missing row (a combination the baseline has but the current run lost),
  * a quality regression (spearman drop / matvec growth / residual growth
    beyond tolerance — all machine-independent, since solves are
    deterministic),
  * a cold-time regression beyond --cold-tolerance (default 25%).

Cold times are compared as *shares of the suite's total cold time*, not as
absolute milliseconds: CI machines and dev laptops differ by integer
factors in raw speed, and a share cancels a uniform speed factor. A share
is NOT machine-independent, though: rows with different bottlenecks (one
eigensolve vs. a thread fan-out, memory-bound vs. compute-bound kernels)
speed up by different factors on a different host, so a baseline recorded
elsewhere can move a row's share past the tolerance with no code change.
Only the deterministic counters (Spearman, matvecs, residuals, pages, hit
rates, ladder counters) are machine-independent. Rows whose share is below
--min-share in both runs are skipped as timing noise.

Usage:

    # gate both suites against the committed baselines
    python3 tools/check_bench_regression.py \
        --suite ordering --bench build/bench_ordering_engines \
        --suite eigensolver --bench build/bench_eigensolver

    # gate one suite from a pre-generated JSON
    python3 tools/check_bench_regression.py --suite ordering --current out.json

    # legacy single-suite spelling (implies --suite ordering)
    python3 tools/check_bench_regression.py --bench build/bench_ordering_engines

Updating the baselines (after an intentional perf/quality change): re-run
with --update, which runs each bench and copies its fresh JSON over the
committed baseline; or run the bench binaries from the repo root (they
rewrite bench_results/*.json in place) and commit the result. --out-dir
additionally copies each fresh JSON into the given directory (CI uploads
these as workflow artifacts for trend history).
"""

import argparse
import json
import os
import shutil
import sys
import subprocess
import tempfile


class Suite:
    """One bench binary + baseline JSON + gating rules."""

    def __init__(self, name, json_relpath, key_fields, time_field="cold_ms"):
        self.name = name
        self.json_relpath = json_relpath
        self.key_fields = key_fields
        # Field the share-of-total-time check reads (machine-portable by
        # construction: shares, never absolute milliseconds).
        self.time_field = time_field

    def key_of(self, row):
        return tuple(row.get(field, "") for field in self.key_fields)

    def report_only_share(self, key):
        """True for rows left out of the share totals and share check."""
        return False

    def quality_failures(self, name, base, cur, args):
        raise NotImplementedError

    def consistency_failures(self, current, args):
        """Cross-row invariants of the current run (no baseline needed)."""
        return []


class OrderingSuite(Suite):
    def __init__(self):
        super().__init__(
            "ordering",
            os.path.join("bench_results", "BENCH_ordering_engines.json"),
            ("engine", "workload"),
        )

    def quality_failures(self, name, base, cur, args):
        failures = []
        base_rho = base["spearman_vs_spectral"]
        cur_rho = cur["spearman_vs_spectral"]
        if cur_rho < base_rho - args.spearman_tolerance:
            failures.append(
                f"{name}: spearman {base_rho:.6f} -> {cur_rho:.6f}")
        return failures


class EigensolverSuite(Suite):
    def __init__(self):
        super().__init__(
            "eigensolver",
            os.path.join("bench_results", "BENCH_eigensolver.json"),
            ("method", "workload"),
        )

    def report_only_share(self, key):
        # The reference solvers (dense Jacobi, the scalar Lanczos oracle)
        # took ~87% of suite time and pushed every production row under
        # the --min-share floor. They keep their matvec/residual gates;
        # shares are computed over the production rows only.
        return key[0] in ("dense", "lanczos")

    def quality_failures(self, name, base, cur, args):
        failures = []
        # Matvec counts are deterministic; growth is an algorithmic
        # regression, not noise.
        if cur["matvecs"] > base["matvecs"] * (1.0 + args.matvec_tolerance):
            failures.append(
                f"{name}: matvecs {base['matvecs']} -> {cur['matvecs']} "
                f"(> {args.matvec_tolerance:.0%} growth)")
        # Residuals must honor the tolerance contract: gate growth beyond
        # an order of magnitude over the baseline. The absolute floor
        # keeps rows already at machine precision from flaking across
        # compilers/FMA behavior while staying two decades below the
        # solver's 1e-9 * scale contract.
        floor = 1e-10
        if cur["max_residual"] > max(base["max_residual"] * 10.0, floor):
            failures.append(
                f"{name}: max_residual {base['max_residual']:.3e} -> "
                f"{cur['max_residual']:.3e}")
        return failures

    def consistency_failures(self, current, args):
        # The per-phase rows ("phase-spmm"/"phase-reorth"/"phase-hfill"/
        # "phase-rr"/"phase-cheb") are timed *inside* the block solve, so
        # per workload they must sum to at most the "block" row's total
        # wall time (5% slack for timer overhead). A sum that exceeds the
        # total means a phase timer started double-counting; a phase row
        # without its block row means the bench emit drifted.
        failures = []
        phase_ms = {}
        for (method, workload), row in current.items():
            if method.startswith("phase-"):
                phase_ms[workload] = phase_ms.get(workload, 0.0) + \
                    row[self.time_field]
        for workload, total in sorted(phase_ms.items()):
            block = current.get(("block", workload))
            if block is None:
                failures.append(
                    f"{workload}: phase rows present without a block row")
                continue
            budget = block[self.time_field] * 1.05
            if total > budget:
                failures.append(
                    f"{workload}: phase times sum to {total:.1f} ms > "
                    f"block total {block[self.time_field]:.1f} ms + 5%")
        return failures


class ServiceSuite(Suite):
    def __init__(self):
        super().__init__(
            "service",
            os.path.join("bench_results", "BENCH_service_traffic.json"),
            ("scenario",),
            time_field="wall_ms",
        )

    def quality_failures(self, name, base, cur, args):
        failures = []
        # Hit rate and solve counts are deterministic (pinned mix seed, no
        # evictions): any hit-rate drop or solve growth is a caching or
        # coalescing regression, not noise.
        if cur["hit_rate"] < base["hit_rate"] - 1e-6:
            failures.append(
                f"{name}: hit_rate {base['hit_rate']:.6f} -> "
                f"{cur['hit_rate']:.6f}")
        if cur["solves"] > base["solves"]:
            failures.append(
                f"{name}: solves {base['solves']} -> {cur['solves']}")
        base_rho = base["spearman_min_vs_direct"]
        cur_rho = cur["spearman_min_vs_direct"]
        if cur_rho < base_rho - args.spearman_tolerance:
            failures.append(
                f"{name}: spearman_min_vs_direct {base_rho:.6f} -> "
                f"{cur_rho:.6f}")
        # Degradation-ladder counters are exact integers (fixed fault
        # schedule, serial deterministic solve order), so any drift in
        # either direction is a ladder regression — fewer retries means
        # the schedule stopped landing, more degraded orders means the
        # escalated retry stopped rescuing solves. Gated only when the
        # baseline row carries the fields (pre-ladder baselines do not).
        for field in ("retried_solves", "degraded_orders"):
            if field in base and cur.get(field) != base[field]:
                failures.append(
                    f"{name}: {field} {base[field]} -> {cur.get(field)}")
        return failures


class QuerySuite(Suite):
    def __init__(self):
        super().__init__(
            "query",
            os.path.join("bench_results", "BENCH_query_io.json"),
            ("workload", "engine", "pool_pages"),
            time_field="wall_ms",
        )

    def quality_failures(self, name, base, cur, args):
        failures = []
        # All page counters are deterministic (fixed workload seeds, strict
        # LRU, no wall-clock anywhere): any pages-touched growth or
        # hit-rate drop is a planner/layout regression, not noise.
        for field in ("range_pages_mean", "range_pages_max",
                      "knn_pages_mean"):
            if cur[field] > base[field] + 1e-6:
                failures.append(
                    f"{name}: {field} {base[field]} -> {cur[field]}")
        if cur["hit_rate"] < base["hit_rate"] - 1e-6:
            failures.append(
                f"{name}: hit_rate {base['hit_rate']:.6f} -> "
                f"{cur['hit_rate']:.6f}")
        return failures

    def consistency_failures(self, current, args):
        # Paper fidelity (Figure 6, end-to-end): on the full-grid workload
        # the spectral order's worst-case range query must touch strictly
        # fewer data pages than every fractal curve's. The claim is about
        # the worst case — fractal curves straddle top-level splits —
        # which is exactly what range_pages_max captures.
        failures = []
        gated_workload = "grid64x64"
        fractal = ("zorder", "gray", "hilbert", "peano")
        spectral_rows = {
            key: row for key, row in current.items()
            if key[0] == gated_workload and key[1] == "spectral"}
        if not spectral_rows:
            return [f"{gated_workload}: no spectral rows to gate"]
        for (workload, _, pool), srow in sorted(spectral_rows.items()):
            for curve in fractal:
                crow = current.get((workload, curve, pool))
                if crow is None:
                    failures.append(
                        f"{workload} {curve} pool={pool}: row missing, "
                        "cannot verify spectral-beats-fractal gate")
                    continue
                if srow["range_pages_max"] >= crow["range_pages_max"]:
                    failures.append(
                        f"{workload} pool={pool}: spectral worst-case "
                        f"range pages {srow['range_pages_max']} not below "
                        f"{curve}'s {crow['range_pages_max']}")
        return failures


SUITES = {s.name: s
          for s in (OrderingSuite(), EigensolverSuite(), ServiceSuite(),
                    QuerySuite())}


def load_rows(suite, path):
    with open(path, "r", encoding="utf-8") as f:
        rows = json.load(f)
    table = {}
    for row in rows:
        table[suite.key_of(row)] = row
    return table


def run_bench(suite, bench_path):
    """Runs the bench in a scratch cwd, returns (rows, raw_json)."""
    bench_abs = os.path.abspath(bench_path)
    with tempfile.TemporaryDirectory(prefix="bench_regression_") as scratch:
        proc = subprocess.run(
            [bench_abs], cwd=scratch, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.exit(f"{suite.name}: bench exited with {proc.returncode}")
        produced = os.path.join(scratch, suite.json_relpath)
        if not os.path.exists(produced):
            sys.exit(f"{suite.name}: bench did not produce "
                     f"{suite.json_relpath}")
        rows = load_rows(suite, produced)
        with open(produced, "r", encoding="utf-8") as f:
            raw = f.read()
    return rows, raw


def key_name(key):
    parts = [str(part) for part in key if part != ""]
    return " ".join(parts) if parts else str(key)


def gate_suite(suite, current, args):
    """Diffs one suite; returns the list of failure strings."""
    print(f"\n=== suite: {suite.name} ===")
    baseline_path = os.path.join(args.baseline_dir, suite.json_relpath)
    if not os.path.exists(baseline_path):
        print(f"MISSING BASELINE: {baseline_path}")
        return [f"{suite.name}: baseline {baseline_path} is missing; "
                f"commit one (see --help: Updating the baselines)"]
    baseline = load_rows(suite, baseline_path)

    def share_total(rows):
        return sum(row[suite.time_field] for key, row in rows.items()
                   if not suite.report_only_share(key)) or 1.0

    base_total = share_total(baseline)
    cur_total = share_total(current)

    failures = []
    print(f"{'row':44s} {'base_share':>10s} {'cur_share':>10s}  verdict")
    for key, base in sorted(baseline.items()):
        name = key_name(key)
        cur = current.get(key)
        if cur is None:
            failures.append(f"{name}: row missing from current run")
            print(f"{name:44s} {'-':>10s} {'-':>10s}  MISSING")
            continue

        report_only = suite.report_only_share(key)
        base_share = base[suite.time_field] / base_total
        cur_share = cur[suite.time_field] / cur_total
        verdicts = []
        if (not report_only and
                max(base_share, cur_share) >= args.min_share and
                cur_share > base_share * (1.0 + args.cold_tolerance) + 0.005):
            verdicts.append("COLD-REGRESSION")
            failures.append(
                f"{name}: cold share {base_share:.3f} -> {cur_share:.3f} "
                f"(> {args.cold_tolerance:.0%} growth)")
        quality = suite.quality_failures(name, base, cur, args)
        if quality:
            verdicts.append("QUALITY")
            failures.extend(quality)
        verdict = '+'.join(verdicts) if verdicts else 'ok'
        if report_only:
            print(f"{name:44s} {'-':>10s} {'-':>10s}  {verdict} "
                  f"(share not gated)")
        else:
            print(f"{name:44s} {base_share:10.3f} {cur_share:10.3f}  "
                  f"{verdict}")

    for key in sorted(set(current) - set(baseline)):
        print(f"{key_name(key):44s} (new row, not gated)")
    consistency = suite.consistency_failures(current, args)
    for failure in consistency:
        print(f"CONSISTENCY: {failure}")
    failures.extend(consistency)
    return failures


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--suite", action="append", dest="suites",
                        choices=sorted(SUITES),
                        help="suite the following --bench/--current applies "
                             "to; repeatable (default: ordering)")
    parser.add_argument("--bench", action="append", dest="benches",
                        help="path to the suite's bench binary; repeatable, "
                             "pairs up with --suite in order")
    parser.add_argument("--current", action="append", dest="currents",
                        help="pre-generated current JSON for the suite "
                             "(skips running the bench)")
    parser.add_argument("--baseline-dir", default=".",
                        help="repo root holding the committed baselines "
                             "(default: .)")
    parser.add_argument("--cold-tolerance", type=float, default=0.25,
                        help="max allowed relative growth of a row's share "
                             "of total cold time (default 0.25 = 25%%)")
    parser.add_argument("--min-share", type=float, default=0.02,
                        help="ignore rows below this share of total cold "
                             "time in both runs (default 0.02)")
    parser.add_argument("--spearman-tolerance", type=float, default=1e-3,
                        help="max allowed Spearman drop (default 1e-3)")
    parser.add_argument("--matvec-tolerance", type=float, default=0.25,
                        help="max allowed matvec-count growth (default 0.25)")
    parser.add_argument("--update", action="store_true",
                        help="run the benches and overwrite the baselines "
                             "instead of gating")
    parser.add_argument("--out-dir",
                        help="also copy each fresh JSON here (CI artifacts)")
    args = parser.parse_args()

    suites = args.suites or ["ordering"]
    if args.benches and args.currents:
        parser.error("--bench and --current cannot be mixed: sources pair "
                     "up with --suite flags in order, so use one kind")
    sources = args.benches if args.benches else (args.currents or [])
    use_current = args.benches is None
    if len(sources) != len(suites):
        parser.error("need exactly one --bench or --current per --suite")

    all_failures = []
    for suite_name, source in zip(suites, sources):
        suite = SUITES[suite_name]
        if use_current:
            current = load_rows(suite, source)
            raw = None
        else:
            current, raw = run_bench(suite, source)

        if args.out_dir and raw is not None:
            out_path = os.path.join(args.out_dir,
                                    os.path.basename(suite.json_relpath))
            os.makedirs(args.out_dir, exist_ok=True)
            with open(out_path, "w", encoding="utf-8") as f:
                f.write(raw)

        baseline_path = os.path.join(args.baseline_dir, suite.json_relpath)
        if args.update:
            if raw is None:
                shutil.copyfile(source, baseline_path)
            else:
                os.makedirs(os.path.dirname(baseline_path) or ".",
                            exist_ok=True)
                with open(baseline_path, "w", encoding="utf-8") as f:
                    f.write(raw)
            print(f"baseline updated: {baseline_path}")
            continue

        all_failures.extend(gate_suite(suite, current, args))

    if args.update:
        return 0
    if all_failures:
        print("\nbench regression check FAILED:")
        for failure in all_failures:
            print(f"  - {failure}")
        print("\nIf the change is intentional, refresh the baselines "
              "(see --help).")
        return 1
    print("\nbench regression check passed.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
