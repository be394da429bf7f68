"""Steadiness check: is every end-to-end metric steady within its bound?

Usage (from the root of a checkout)::

    python3 loopbench/steady.py [--workloads serve-burst ...]

Runs ``run.py`` :data:`RUNS` times per workload in each of :data:`SETS`
sets, every run with another seed (1, 2, ... in order), and prints for
every end-to-end metric of each set its median, quartiles and spread
(interquartile range over median, from
``statistics.quantiles(values, n=4)``) beside the metric's bound, then
how far the second set's median moved from the first's.  A metric
passes when each set's spread is within its bound and the second median
is not worse than the first by more than the bound.  Every
seed-independent exact count (the modelled device time and DRAM bytes,
the compiled plan bytes, the gather-call count) must have one reading
over all seeds and sets.  The host-drift column is the largest
before/after ratio of the calibration loop over a run's processes; far
from 1 means the host was disturbed during that run.  The ungated
closed-loop throughput is printed with its spread too.

Exits 1 when a metric fails or a run fails.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
_DRIFT = re.compile(r"host drift ([0-9.]+)")
_EVALS = re.compile(r"ungated evals_per_s ([0-9.e+-]+)")
_EXACT = re.compile(r"exact counts (\{.*\})")
RUNS = 10
SETS = 2


def spread(values: List[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def worse_by(first: float, later: float, better: str) -> float:
    """Share by which ``later`` is worse than ``first`` (<0: better)."""
    change = (later - first) / first
    return change if better == "lower" else -change


def run_once(workload: str, seed: int, seconds: int) -> Dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    drifts = [float(d) for d in _DRIFT.findall(proc.stderr)]
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["drift"] = max(drifts, key=lambda d: abs(d - 1.0))
    result["evals_per_s"] = float(_EVALS.search(proc.stderr).group(1))
    result["exact"] = json.loads(_EXACT.search(proc.stderr).group(1))
    return result


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", default=names,
                        choices=names)
    args = parser.parse_args(argv)

    ok = True
    for workload in args.workloads:
        sets = []
        for s in range(SETS):
            runs = []
            for r in range(RUNS):
                seed = 1 + s * RUNS + r
                run = run_once(workload, seed, spec["run_seconds"])
                ok &= run["correct"] and run["failed"] == 0
                runs.append(run)
                values = "  ".join(
                    f"{k}={v['value']:.6g}" for k, v in run["metrics"].items()
                )
                print(f"{workload} set {s + 1} seed {seed}: {values}  "
                      f"evals_per_s={run['evals_per_s']:.6g}  "
                      f"drift={run['drift']:.3f}  failed={run['failed']}",
                      flush=True)
            sets.append(runs)
        print(f"\n{workload}: {SETS} sets x {RUNS} runs")
        print(f"{'metric':<28}{'set':>4}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'spread':>9}{'bound':>8}{'worse_by':>10}  verdict")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first = None
            for s, runs in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in runs]
                q1, q2, q3 = statistics.quantiles(values, n=4)
                sp = spread(values)
                first = q2 if first is None else first
                moved = worse_by(first, q2, metric["better"])
                fails = []
                if sp > bound:
                    fails.append("spread>bound")
                if moved > bound:
                    fails.append("median moved>bound")
                ok &= not fails
                print(f"{name:<28}{s + 1:>4}{q2:>14.6g}{q1:>14.6g}"
                      f"{q3:>14.6g}{sp:>9.4f}{bound:>8.3f}{moved:>10.4f}  "
                      f"{', '.join(fails) or 'ok'}")
        for s, runs in enumerate(sets):
            values = [r["evals_per_s"] for r in runs]
            print(f"{'evals_per_s (ungated)':<28}{s + 1:>4}"
                  f"{statistics.median(values):>14.6g}"
                  f"{'':>28}{spread(values):>9.4f}")
        for name in sets[0][0]["exact"]:
            readings = {r["exact"][name] for runs in sets for r in runs}
            ok &= len(readings) == 1
            note = "" if len(readings) == 1 else " (NOT EXACT)"
            print(f"{name}: {len(readings)} distinct reading(s) over all "
                  f"seeds and sets{note}")
        drifts = [r["drift"] for runs in sets for r in runs]
        print(f"host drift per run: {min(drifts):.3f} .. {max(drifts):.3f}\n")
    print("STEADY" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
