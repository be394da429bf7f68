"""The repository's benchmark: one closed-loop workload, fresh processes.

Usage (from the root of a checkout)::

    python3 loopbench/run.py --workload serve-burst --seed 1 --seconds 12 --trace 0

The load-generating process (this one) fills the benchmark-owned case
cache untimed, then runs the workload in fresh child processes one after
another (``child.py``), splitting ``--seconds`` of closed-loop window
between them, and prints one JSON object as the last line of standard
output.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json`` (medians over the children); ``--trace 1`` runs half
the children with every layer entry point wrapped and reports the
per-layer metrics, with the tracing overhead measured against the
untraced half.

Every served dose and every optimization trajectory is checked bit for
bit; a mismatch, rejection or timeout is a failed operation, and any
failure (or an exact count that differs between children) makes the
command exit 1.  Per-child figures, the host-drift note and the
seed-independent exact counts (one ``exact counts {...}`` line, which
``steady.py`` compares across seeds) go to standard error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: benchmark-owned state: the case-matrix cache and its fill stamp.
STATE_DIR = ROOT / ".bench_build" / "loopbench"

#: measuring children per run: untraced for --trace 0; untraced/traced
#: pairs for --trace 1.
CHILDREN = {0: (False,) * 5, 1: (False, True) * 3}
#: extra set-up-only children per --trace 0 run: set-up time is the
#: median over these and the measuring children.
SETUP_ONLY = 4
CHILD_TIMEOUT_S = 60.0

#: end-to-end metrics gated by a bound.  Closed-loop evals_per_s did not
#: repeat within a tenth between runs on serve-burst, so it is reported
#: ungated with the per-layer metrics (as bench.evals_per_s).
GATED = ("cpu_ms_per_eval", "setup_s", "peak_rss_mb",
         "modeled_device_us_per_eval")

#: counts the program computes exactly and that do not depend on the
#: seed: every child of a run must agree, and every run of a workload.
EXACT = ("modeled_device_us_per_eval", "modeled_dram_bytes_per_eval",
         "plan_bytes", "gather_calls_per_batch")
#: exact per-layer counts that depend on the seed (the warm starts):
#: the traced children of one run must agree.
EXACT_LAYERS = ("opt.dist.evals_per_iteration",)


def log(message: str) -> None:
    print(f"[loopbench] {message}", file=sys.stderr, flush=True)


def load_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def child_env() -> Dict[str, str]:
    """The children's environment, isolated from the user's settings."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_CACHE_DIR"] = str(STATE_DIR / "cases")
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def source_stamp() -> str:
    """Hash of the program and benchmark sources the case cache was
    filled for; a changed program refills the cache before timing."""
    h = hashlib.sha256(sys.version.encode())
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def prepare(env: Dict[str, str]) -> None:
    stamp_file = STATE_DIR / "prepared.stamp"
    stamp = source_stamp()
    if stamp_file.is_file() and stamp_file.read_text() == stamp:
        return
    log("filling the case cache (untimed)")
    STATE_DIR.mkdir(parents=True, exist_ok=True)
    subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--prepare"],
        env=env, cwd=ROOT, check=True, timeout=800,
        stdout=subprocess.DEVNULL,
    )
    stamp_file.write_text(stamp)


def run_child(env: Dict[str, str], workload: str, seed: int, window: float,
              traced: bool) -> Dict[str, Any]:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--window", repr(window),
           "--trace", str(int(traced))]
    launch = time.monotonic()
    proc = subprocess.Popen(cmd + ["--launch", repr(launch)], env=env,
                            cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"child timed out after {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise RuntimeError(f"child exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def per_eval(child: Dict[str, Any]) -> Dict[str, float]:
    return {
        "cpu_ms_per_eval": 1e3 * child["cpu_s"] / child["evals"],
        "evals_per_s": child["evals"] / child["wall_s"],
        "setup_s": child["setup_s"],
        "peak_rss_mb": child["peak_rss_mb"],
        "modeled_device_us_per_eval": child["modeled_device_us_per_eval"],
    }


def exact_mismatches(values: List[Dict[str, Any]], names) -> List[str]:
    return [n for n in names if len({v[n] for v in values}) > 1]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        log(f"no program source at {ROOT / 'src' / 'repro'}; "
            "run from the root of a checkout")
        return 2
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        log(f"unknown workload {args.workload!r}; expected one of {workloads}")
        return 2
    env = child_env()
    try:
        prepare(env)
        plan = CHILDREN[args.trace]
        window = args.seconds / len(plan)
        children = []
        for k, traced in enumerate(plan):
            child = run_child(env, args.workload, args.seed, window, traced)
            child["traced"] = traced
            children.append(child)
            figures = per_eval(child)
            drift = child["drift_after_ms"] / child["drift_before_ms"]
            log(f"{args.workload} seed={args.seed} child {k + 1}/{len(plan)}"
                f"{' (traced)' if traced else ''}: "
                f"setup {figures['setup_s']:.3f} s, "
                f"{figures['cpu_ms_per_eval']:.2f} CPU ms/eval, "
                f"{figures['evals_per_s']:.1f} evals/s "
                f"(+{1e3 * child['digest_cpu_s'] / child['evals']:.2f} "
                "CPU ms/eval hashing doses, not counted), "
                f"rss {figures['peak_rss_mb']:.1f} MB, failed "
                f"{child['failed']} {child['failures'] or ''}, host drift "
                f"{drift:.3f} ({child['drift_before_ms']:.2f} -> "
                f"{child['drift_after_ms']:.2f} ms)")
        setups = [c["setup_s"] for c in children]
        if not args.trace:
            for _ in range(SETUP_ONLY):
                setups.append(run_child(
                    env, args.workload, args.seed, 0.0, False)["setup_s"])
            log(f"{args.workload} seed={args.seed} set-up times: "
                + ", ".join(f"{s:.3f}" for s in setups) + " s")
    except (RuntimeError, subprocess.SubprocessError, OSError,
            ValueError, KeyError) as exc:
        log(f"benchmark failed: {type(exc).__name__}: {exc}")
        return 1

    untraced = [per_eval(c) for c in children if not c["traced"]]
    traced = [c for c in children if c["traced"]]
    failed = sum(c["failed"] for c in children)
    attempted = sum(c["attempted"] for c in children)
    mismatched = exact_mismatches(children, EXACT)
    mismatched += exact_mismatches(
        [c["layers"] for c in traced], EXACT_LAYERS)
    if mismatched:
        log(f"exact counts differ between children: {mismatched}")
        failed += len(mismatched)
    log(f"{args.workload} seed={args.seed} exact counts "
        + json.dumps({name: children[0][name] for name in EXACT}))

    if args.trace:
        defs = spec["per_layer"]
        values = {
            name: statistics.median(c["layers"][name] for c in traced)
            for name in traced[0]["layers"]
        }
        values["bench.tracing_overhead"] = (
            statistics.median(per_eval(c)["cpu_ms_per_eval"] for c in traced)
            / statistics.median(u["cpu_ms_per_eval"] for u in untraced)
        )
        values["bench.evals_per_s"] = statistics.median(
            u["evals_per_s"] for u in untraced)
    else:
        defs = spec["end_to_end"]
        values = {name: statistics.median(u[name] for u in untraced)
                  for name in GATED}
        values["setup_s"] = statistics.median(setups)
        log(f"{args.workload} seed={args.seed} ungated evals_per_s "
            f"{statistics.median(u['evals_per_s'] for u in untraced)!r}")
    units = {d["name"]: d["unit"] for d in defs}
    if set(values) != set(units):
        log(f"metrics {sorted(set(values) ^ set(units))} do not match "
            "BENCHMARK.json")
        return 1
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
