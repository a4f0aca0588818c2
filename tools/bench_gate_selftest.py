#!/usr/bin/env python3
"""Negative self-test of the eigensolver bench gate.

Runs tools/check_bench_regression.py twice against the committed
bench_results/BENCH_eigensolver.json:

  1. the baseline as the current run: the gate must pass;
  2. a temp copy with the production "block grid64x64" row's cold_ms scaled
     by 1.5x: the gate must fail, naming that row's cold share.

A gate that computed shares over the reference rows too (dense Jacobi and
the scalar Lanczos oracle, ~87% of suite time) would leave that row under
the noise floor and pass the slowdown unnoticed.

    python3 tools/bench_gate_selftest.py   (from any directory; exit 0 = ok)
"""

import json
import os
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GATE = os.path.join(REPO, "tools", "check_bench_regression.py")
BASELINE = os.path.join(REPO, "bench_results", "BENCH_eigensolver.json")
ROW = ("block", "grid64x64")
SLOWDOWN = 1.5


def run_gate(current):
    proc = subprocess.run(
        [sys.executable, GATE, "--suite", "eigensolver", "--current", current,
         "--baseline-dir", REPO],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    return proc.returncode, proc.stdout


def main():
    status, output = run_gate(BASELINE)
    if status != 0:
        print(output)
        print("FAIL: the gate rejects the unmodified baseline")
        return 1

    with open(BASELINE, "r", encoding="utf-8") as f:
        rows = json.load(f)
    scaled = 0
    for row in rows:
        if (row["method"], row["workload"]) == ROW:
            row["cold_ms"] *= SLOWDOWN
            scaled += 1
    if scaled != 1:
        print(f"FAIL: baseline has {scaled} '{' '.join(ROW)}' rows, want 1")
        return 1

    with tempfile.TemporaryDirectory(prefix="bench_gate_selftest_") as tmp:
        slowed = os.path.join(tmp, "BENCH_eigensolver.json")
        with open(slowed, "w", encoding="utf-8") as f:
            json.dump(rows, f)
        status, output = run_gate(slowed)
    expected = f"{' '.join(ROW)}: cold share"
    if status == 0 or expected not in output:
        print(output)
        print(f"FAIL: the gate missed a {SLOWDOWN}x slowdown of "
              f"'{' '.join(ROW)}'")
        return 1
    print(f"ok: the gate fails a {SLOWDOWN}x slowdown of '{' '.join(ROW)}'")
    return 0


if __name__ == "__main__":
    sys.exit(main())
