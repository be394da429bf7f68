"""One measuring process: set up, run one closed-loop window, verify.

Started by ``run.py`` in a fresh interpreter, it prints one JSON object
with the raw figures of its window as the last line of standard output.
Set-up time runs from the parent's launch timestamp (``--launch``, a
``time.monotonic()`` reading, which is system-wide on Linux) to the
first timed request, so imports count.

``--window 0`` stops at the first timed request and reports set-up time
only.  ``--prepare`` instead imports the program and builds every plan
matrix once, filling the benchmark-owned caches before anything is
timed: Table I cases go to the program's case cache (``REPRO_CACHE_DIR``),
generated VMAT and photon FPB matrices to :data:`MASTERS_DIR`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
#: generated (non-case) plan matrices, saved by ``--prepare``; ``run.py``
#: re-runs it whenever a source file changes.
MASTERS_DIR = ROOT / ".bench_build" / "loopbench" / "masters"

import numpy as np  # noqa: E402

from workloads import (  # noqa: E402
    EXPONENT_RANGE,
    OptInputs,
    PlanSpec,
    ServeInputs,
    all_plan_specs,
    base_weights,
    make_inputs,
)

import repro  # noqa: E402
from repro.bench.harness import convert_for_kernel  # noqa: E402
from repro.gpu.device import A100  # noqa: E402
from repro.kernels.dispatch import make_kernel  # noqa: E402

if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
    raise SystemExit(f"repro imported from {repro.__file__}, not {ROOT}/src")


def load_master(spec: PlanSpec):
    """The float32 master matrix of one plan, from a cache filled by
    ``--prepare``: the program's case cache for Table I cases, the saved
    generator output for the other families."""
    if spec.family == "case":
        from repro.plans.cases import build_case_matrix

        return build_case_matrix(spec.source, spec.preset).matrix
    from repro.sparse.io import load_csr

    return load_csr(MASTERS_DIR / f"{spec.plan_id}.npz")


def calibration_ms() -> float:
    """Thread CPU of a fixed pure-Python loop (host-drift probe)."""
    best = float("inf")
    for _ in range(3):
        t0 = time.thread_time()
        acc = 0
        for i in range(200_000):
            acc += i * i
        best = min(best, time.thread_time() - t0)
    return best * 1e3


def digest(dose: np.ndarray) -> bytes:
    return hashlib.sha256(np.ascontiguousarray(dose).data).digest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Failures:
    """Failed operations by reason (thread-safe counter)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.by_reason: Dict[str, int] = {}

    def add(self, reason: str) -> None:
        with self._lock:
            self.by_reason[reason] = self.by_reason.get(reason, 0) + 1

    @property
    def total(self) -> int:
        return sum(self.by_reason.values())


# --------------------------------------------------------------------- #
# serve workloads
# --------------------------------------------------------------------- #


def run_serve(inp: ServeInputs, window_s: float, launch: float,
              tracer) -> Dict[str, Any]:
    from repro.serve.request import EvaluationRequest, Rejected, ServeError
    from repro.serve.scheduler import BatchingPolicy
    from repro.serve.service import DoseEvaluationService, ServiceConfig

    if inp.one_cpu:
        # before any thread starts: new threads inherit the affinity.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    masters = [load_master(p) for p in inp.plans]
    bases = [
        [base_weights(inp.seed, p.plan_id, b, m.n_cols)
         for b in range(inp.n_bases)]
        for p, m in zip(inp.plans, masters)
    ]
    #: the weights of request (plan, base, exponent), built once here so
    #: the clients do no arithmetic of their own in the window.
    weights = {
        (p, b, e): np.ldexp(bases[p][b], e)
        for p in range(len(inp.plans)) for b in range(inp.n_bases)
        for e in range(-EXPONENT_RANGE, EXPONENT_RANGE + 1)
    }
    service = DoseEvaluationService(ServiceConfig(
        n_workers=inp.n_workers,
        batching=BatchingPolicy(max_batch_size=inp.max_batch_size,
                                max_wait_s=inp.max_wait_s),
        plan_cache_capacity=inp.plan_cache_capacity,
    ))
    for p, m in zip(inp.plans, masters):
        service.plans.register(p.plan_id, m, source=p.source)
    service.start()

    failures = Failures()
    #: (plan, base, exponent, dose digest) of every served request.
    served: List[Tuple[int, int, int, bytes]] = []
    queue_waits: List[float] = []
    batches: Dict[int, int] = {}
    #: digest_cpu_s: thread CPU the clients spent hashing served doses
    #: in the window; the benchmark's own work, taken out of cpu_s.
    counts = {"attempted": 0, "window_ok": 0, "digest_cpu_s": 0.0}
    lock = threading.Lock()

    def client(c: int, start: int, n_ops: int, deadline: float,
               in_window: bool) -> None:
        stream = inp.streams[c]
        j = start
        ops = 0
        while ops < n_ops and time.monotonic() < deadline:
            plan_idx = int(stream.plan[j % len(stream.plan)])
            batch = []
            for k in range(inp.burst):
                idx = (j + k) % len(stream.plan)
                p = plan_idx if inp.burst > 1 else int(stream.plan[idx])
                b, e = int(stream.base[idx]), int(stream.exponent[idx])
                request = EvaluationRequest(
                    request_id=f"c{c}-{j + k}",
                    plan_id=inp.plans[p].plan_id,
                    weights=weights[(p, b, e)],
                    precision=inp.plans[p].precision,
                    client_id=f"client-{c}",
                )
                batch.append((p, b, e, service.submit(request)))
            j += inp.burst
            ops += 1
            results = []
            for p, b, e, handle in batch:
                if isinstance(handle, Rejected):
                    failures.add(f"rejected:{handle.reason.value}")
                    continue
                try:
                    outcome = handle.outcome(60.0)
                except ServeError:
                    failures.add("timeout")
                    continue
                if isinstance(outcome, Rejected):
                    failures.add(f"rejected:{outcome.reason.value}")
                    continue
                results.append((p, b, e, outcome))
            cpu0 = time.thread_time()
            digests = [digest(outcome.dose) for _, _, _, outcome in results]
            digest_cpu = time.thread_time() - cpu0
            with lock:
                counts["attempted"] += len(batch)
                for (p, b, e, outcome), got in zip(results, digests):
                    served.append((p, b, e, got))
                    if in_window:
                        counts["window_ok"] += 1
                        queue_waits.append(outcome.queue_wait_s)
                        batches[outcome.batch_id] = outcome.batch_size
                if in_window:
                    counts["digest_cpu_s"] += digest_cpu

    def run_clients(n_ops: int, deadline: float, in_window: bool,
                    start: int) -> None:
        threads = [
            threading.Thread(target=client,
                             args=(c, start, n_ops, deadline, in_window))
            for c in range(inp.clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    # warm-up: every client visits every plan once (converts, compiles).
    warm_ops = len(inp.plans)
    run_clients(warm_ops, float("inf"), False, start=0)
    window_start_index = warm_ops * inp.burst

    drift_before = calibration_ms()
    tracer_phase(tracer, "window")
    t0 = time.monotonic()
    setup_s = t0 - launch
    if window_s <= 0:
        service.stop()
        return {"setup_s": setup_s}
    cpu0 = time.process_time()
    run_clients(1 << 30, t0 + window_s, True, start=window_start_index)
    wall = time.monotonic() - t0
    cpu = time.process_time() - cpu0 - counts["digest_cpu_s"]
    tracer_phase(tracer, "post")
    rss = peak_rss_mb()
    drift_after = calibration_ms()
    service.stop()

    verify_serve(inp, masters, bases, served, failures)

    window = {
        "setup_s": setup_s, "wall_s": wall, "cpu_s": cpu,
        "digest_cpu_s": counts["digest_cpu_s"],
        "evals": counts["window_ok"], "attempted": counts["attempted"],
        "peak_rss_mb": rss,
        "drift_before_ms": drift_before, "drift_after_ms": drift_after,
        "queue_wait_s": queue_waits,
        "batch_sizes": list(batches.values()),
        **serve_model(inp, masters),
    }
    probe = serve_probe(inp, masters, bases, tracer)
    return finish(window, failures, probe, tracer)


def serve_model(inp: ServeInputs, masters) -> Dict[str, float]:
    """Modelled A100 time (us) and DRAM bytes per evaluation at the
    workload's nominal batch size, and the bytes of one compiled plan per
    workload plan.  Plans are equally frequent in every stream, so the
    plain mean over plans is the per-evaluation figure."""
    from repro.kernels.plan import compile_plan

    times, drams, plan_bytes = [], [], 0
    for p, m in zip(inp.plans, masters):
        kernel = make_kernel(p.precision)
        matrix = convert_for_kernel(m, p.precision)
        est = kernel.model_timing(matrix, device=A100, batch=inp.burst)
        times.append(est.time_s * 1e6 / inp.burst)
        drams.append(est.counters.dram_bytes / inp.burst)
        plan_bytes += compile_plan(matrix, kernel.plan_family,
                                   kernel.precision.accumulate.dtype).nbytes
    return {
        "modeled_device_us_per_eval": sum(times) / len(times),
        "modeled_dram_bytes_per_eval": sum(drams) / len(drams),
        "plan_bytes": plan_bytes,
    }


def verify_serve(inp: ServeInputs, masters, bases, served, failures) -> None:
    """Compare every served dose with a stand-alone per-call evaluation.

    The reference for base vector ``b`` is one fresh per-call kernel run
    (fresh conversion, fresh kernel, no plan, no cache, no batching); a
    request served ``2**e * b`` must return ``2**e`` times it, bit for
    bit.  One request per base is also re-evaluated on its exact weights,
    which checks that scaling argument on the data itself.
    """
    refs: Dict[Tuple[int, int], np.ndarray] = {}
    expected: Dict[Tuple[int, int, int], bytes] = {}
    standalone = {}
    for p, b, e, got in served:
        if p not in standalone:
            spec = inp.plans[p]
            standalone[p] = (make_kernel(spec.precision),
                             convert_for_kernel(masters[p], spec.precision))
        kernel, matrix = standalone[p]
        if (p, b) not in refs:
            refs[(p, b)] = kernel.run(matrix, bases[p][b]).y
            direct = kernel.run(matrix, np.ldexp(bases[p][b], e)).y
            if digest(direct) != digest(np.ldexp(refs[(p, b)], e)):
                failures.add("scaling_check")
        key = (p, b, e)
        if key not in expected:
            expected[key] = digest(np.ldexp(refs[(p, b)], e))
        if got != expected[key]:
            failures.add("mismatch")


def serve_probe(inp: ServeInputs, masters, bases, tracer) -> Dict[str, Any]:
    """Untimed probe after the window: one batch per plan at the nominal
    batch size with ``gather_traffic`` calls counted (an exact count;
    an untraced process wraps just those two entry points for it), then,
    in a traced process, the scipy comparison."""
    from repro.kernels import batched
    from tracing import ENTRY_POINTS, Tracer, gather_calls_per_batch

    counter = tracer
    if counter is None:
        counter = Tracer([ep for ep in ENTRY_POINTS if ep.name in (
            "kernels.batched.run_multi_spmv", "gpu.gather_traffic")]).install()
    vectors = [[plan_bases[b % len(plan_bases)] for b in range(inp.burst)]
               for plan_bases in bases]
    tracer_phase(counter, "probe")
    try:
        for p, m, vecs in zip(inp.plans, masters, vectors):
            # looked up on the module: the wrapper, not a binding made
            # before the counter was installed.
            batched.run_multi_spmv(make_kernel(p.precision),
                                   convert_for_kernel(m, p.precision), vecs,
                                   device=A100)
    finally:
        tracer_phase(counter, "post")
        if tracer is None:
            counter.restore()
    probe = {"gather_calls_per_batch": gather_calls_per_batch(
        counter.samples)}
    if tracer is not None:
        probe["host_vs_scipy"] = host_vs_scipy(inp.plans, masters, vectors)
    return probe


def host_vs_scipy(plans, masters, vectors) -> float:
    """Thread CPU of the compiled plan executor over ``scipy.sparse`` CSR
    on the same matrix and vectors (median of 3, then over plans)."""
    import scipy.sparse as sp

    from repro.kernels.plan import compile_plan, execute_plan_multi

    ratios = []
    for spec, master, vecs in zip(plans, masters, vectors):
        kernel = make_kernel(spec.precision)
        matrix = convert_for_kernel(master, spec.precision)
        plan = compile_plan(matrix, kernel.plan_family,
                            kernel.precision.accumulate.dtype)
        csr = sp.csr_matrix((matrix.data.astype(np.float64), matrix.indices,
                             matrix.indptr), shape=matrix.shape)
        dense = np.stack(vecs, axis=1)
        per_plan = []
        for _ in range(3):
            t0 = time.thread_time()
            execute_plan_multi(plan, vecs)
            t1 = time.thread_time()
            csr @ dense
            t2 = time.thread_time()
            per_plan.append((t1 - t0) / max(t2 - t1, 1e-9))
        ratios.append(float(np.median(per_plan)))
    return float(np.median(ratios))


# --------------------------------------------------------------------- #
# opt-sharded
# --------------------------------------------------------------------- #


def run_opt(inp: OptInputs, window_s: float, launch: float,
            tracer) -> Dict[str, Any]:
    from repro.opt.dist.objective_spec import OBJECTIVE_PRESETS
    from repro.opt.dist.service import (
        OptimizationRequest,
        OptimizationService,
        OptRejected,
        OptServeError,
        OptServiceConfig,
    )

    objective = OBJECTIVE_PRESETS[inp.objective_preset]
    masters = [load_master(p) for p in inp.plans]
    service = OptimizationService(OptServiceConfig(
        n_workers=inp.n_workers, shards=inp.shards,
    ))
    for p, m in zip(inp.plans, masters):
        service.register_plan(p.plan_id, m, source=p.source)
    warm = {
        i: base_weights(inp.seed, f"opt-{i}", 0, masters[plan].n_cols)
        for i, plan, _ in inp.submissions
    }
    service.start()
    failures = Failures()
    trajectories: List[Tuple[int, list]] = []
    totals = {"attempted": 0, "evals": 0, "iterations": 0}

    def run_round(r: int, max_iterations: int) -> Tuple[int, int]:
        tickets = []
        for i, plan, tenant in inp.submissions:
            request = OptimizationRequest(
                opt_id=f"r{r}-opt-{i}", plan_id=inp.plans[plan].plan_id,
                objective=objective, tenant=tenant,
                precision=inp.plans[plan].precision, w0=warm[i],
                max_iterations=max_iterations, tolerance=0.0,
            )
            tickets.append((i, service.submit(request)))
        evals = iterations = 0
        for i, ticket in tickets:
            totals["attempted"] += 1
            if isinstance(ticket, OptRejected):
                failures.add(f"rejected:{ticket.reason.value}")
                continue
            try:
                outcome = ticket.outcome(120.0)
            except OptServeError:
                failures.add("timeout")
                continue
            if isinstance(outcome, OptRejected):
                failures.add(f"rejected:{outcome.reason.value}")
                continue
            if outcome.iterations != max_iterations:
                failures.add(f"terminal:{outcome.terminal.value}")
                continue
            evals += outcome.n_evals
            iterations += outcome.iterations
            trajectories.append((i, list(outcome.points)))
        return evals, iterations

    # warm-up: one iteration per optimization builds every sharded
    # engine and plan and runs every code path of a round once.
    run_round(0, 1)
    drift_before = calibration_ms()
    tracer_phase(tracer, "window")
    t0 = time.monotonic()
    setup_s = t0 - launch
    if window_s <= 0:
        service.stop()
        return {"setup_s": setup_s}
    cpu0 = time.process_time()
    r = 1
    while time.monotonic() < t0 + window_s:
        evals, iterations = run_round(r, inp.max_iterations)
        totals["evals"] += evals
        totals["iterations"] += iterations
        r += 1
    wall = time.monotonic() - t0
    cpu = time.process_time() - cpu0
    tracer_phase(tracer, "post")
    rss = peak_rss_mb()
    drift_after = calibration_ms()
    service.stop()

    verify_opt(inp, masters, warm, objective, trajectories, failures)
    window = {
        "setup_s": setup_s, "wall_s": wall, "cpu_s": cpu,
        "evals": totals["evals"], "attempted": totals["attempted"],
        "peak_rss_mb": rss,
        "drift_before_ms": drift_before, "drift_after_ms": drift_after,
        "evals_total": totals["evals"],
        "iterations_total": totals["iterations"],
        **opt_model(inp, masters, warm, objective),
    }
    # opt-sharded prices its shards at construction: no per-batch
    # gather_traffic calls.
    probe = {"gather_calls_per_batch": 0.0}
    if tracer is not None:
        probe["host_vs_scipy"] = host_vs_scipy(
            inp.plans, masters,
            [[first_warm_start(inp, warm, p)] for p in range(len(masters))],
        )
    return finish(window, failures, probe, tracer)


def verify_opt(inp: OptInputs, masters, warm, objective, trajectories,
               failures) -> None:
    """Compare every trajectory with an unsharded local reference loop
    (the one-iteration warm-up trajectories with its prefix)."""
    from repro.opt.dist.audit import compare_trajectories, run_reference

    refs = {}
    for i, plan, _ in inp.submissions:
        spec = inp.plans[plan]
        refs[i] = list(run_reference(
            convert_for_kernel(masters[plan], spec.precision),
            spec.precision, objective, warm[i], tolerance=0.0,
            max_iterations=inp.max_iterations,
        ).points)
    for i, points in trajectories:
        if compare_trajectories(refs[i][:len(points)], points, f"opt-{i}"):
            failures.add("mismatch")


def opt_model(inp: OptInputs, masters, warm, objective) -> Dict[str, float]:
    """Modelled device time and DRAM bytes of one objective+gradient
    evaluation, averaged over the workload's plans, and the bytes of the
    sharded forward and adjoint plans of every workload plan."""
    from repro.dist.pool import DevicePool
    from repro.opt.dist.evaluator import DistributedObjectiveEvaluator
    from repro.opt.dist.objective_spec import build_objective

    times, drams, plan_bytes = [], [], 0
    for plan, spec in enumerate(inp.plans):
        kernel = make_kernel(spec.precision)
        matrix = convert_for_kernel(masters[plan], spec.precision)
        evaluator = DistributedObjectiveEvaluator(
            matrix, kernel, inp.shards,
            pool=DevicePool.homogeneous(min(inp.shards, 4)),
        )
        ev = evaluator.value_and_gradient(
            first_warm_start(inp, warm, plan),
            build_objective(objective, matrix))
        times.append(ev.modeled_time_s * 1e6)
        drams.append(sum(
            kernel.model_timing(shard.block, device=shard.device.spec)
            .counters.dram_bytes
            for side in (evaluator.forward, evaluator.adjoint)
            for shard in side.shards
        ))
        plan_bytes += evaluator.forward.plan.nbytes
        plan_bytes += evaluator.adjoint.plan.nbytes
    return {
        "modeled_device_us_per_eval": sum(times) / len(times),
        "modeled_dram_bytes_per_eval": sum(drams) / len(drams),
        "plan_bytes": plan_bytes,
    }


def first_warm_start(inp: OptInputs, warm, plan: int) -> np.ndarray:
    return warm[next(i for i, p, _ in inp.submissions if p == plan)]


# --------------------------------------------------------------------- #


def tracer_phase(tracer, phase: str) -> None:
    if tracer is not None:
        tracer.phase = phase


def finish(window: Dict[str, Any], failures: Failures, probe, tracer):
    out = {
        key: window[key] for key in (
            "setup_s", "wall_s", "cpu_s", "evals", "attempted",
            "peak_rss_mb", "drift_before_ms", "drift_after_ms",
            "modeled_device_us_per_eval", "modeled_dram_bytes_per_eval",
            "plan_bytes",
        )
    }
    out["digest_cpu_s"] = window.get("digest_cpu_s", 0.0)
    out["gather_calls_per_batch"] = probe["gather_calls_per_batch"]
    out["failed"] = failures.total
    out["failures"] = failures.by_reason
    if tracer is not None:
        from tracing import layer_metrics

        tracer.restore()
        out["layers"] = layer_metrics(tracer.samples, window, probe)
    return out


def import_program() -> None:
    """Import every module a child uses, so a traced child wraps every
    binding of an entry point before any of them is called."""
    import scipy.sparse  # noqa: F401

    import repro.dist.pool  # noqa: F401
    import repro.kernels.batched  # noqa: F401
    import repro.opt.dist.audit  # noqa: F401
    import repro.opt.dist.evaluator  # noqa: F401
    import repro.opt.dist.service  # noqa: F401
    import repro.plans.cases  # noqa: F401
    import repro.serve.service  # noqa: F401
    import repro.workloads  # noqa: F401


def prepare() -> None:
    """Import the program and build every plan matrix: Table I cases
    fill the program's case cache, generated matrices are saved to
    :data:`MASTERS_DIR`."""
    import shutil

    from repro.sparse.io import save_csr
    from repro.workloads import generate

    import_program()
    shutil.rmtree(MASTERS_DIR, ignore_errors=True)
    MASTERS_DIR.mkdir(parents=True)
    for spec in all_plan_specs().values():
        if spec.family == "case":
            load_master(spec)
            continue
        matrix = generate(spec.family, seed=int(spec.source),
                          preset=spec.preset).matrix
        save_csr(MASTERS_DIR / f"{spec.plan_id}.npz", matrix)
        back = load_master(spec)
        if back.shape != matrix.shape or any(
                getattr(back, a).dtype != getattr(matrix, a).dtype
                or not np.array_equal(getattr(back, a), getattr(matrix, a))
                for a in ("data", "indices", "indptr")):
            raise SystemExit(f"{spec.plan_id}: saved matrix reads back "
                             "differently")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--prepare", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--window", type=float, default=3.0)
    parser.add_argument("--launch", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.prepare:
        prepare()
        return 0
    launch = args.launch if args.launch is not None else time.monotonic()
    tracer = None
    if args.trace:
        from tracing import Tracer

        import_program()
        tracer = Tracer().install()
    inputs = make_inputs(args.workload, args.seed)
    if isinstance(inputs, ServeInputs):
        result = run_serve(inputs, args.window, launch, tracer)
    else:
        result = run_opt(inputs, args.window, launch, tracer)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
