"""Traced runs: time the program's layers from outside the program.

:class:`Tracer` replaces each public entry point listed in
:data:`ENTRY_POINTS` with a wrapper that records one sample per call
(thread CPU time, the names of the wrapped calls enclosing it, and a
per-call quantity such as the batch size) and puts every
original back on :meth:`Tracer.restore`.  A function is replaced in its
defining module *and* in every ``repro`` module that imported it by
name, because those modules call their own binding.

:func:`layer_metrics` turns the samples of one traced process into the
per-layer metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple


def _arg(args: tuple, kwargs: dict, pos: int, name: str) -> Any:
    return args[pos] if len(args) > pos else kwargs[name]


def _batch_of(weights: Any) -> int:
    shape = getattr(weights, "shape", None)
    if shape is not None and len(shape) == 2:
        return int(shape[1])
    return len(weights)


@dataclass(frozen=True)
class EntryPoint:
    """One wrapped callable: ``module.qualname`` recorded as ``name``."""

    name: str
    module: str
    #: ``"function"`` or ``"Class.method"``.
    qualname: str
    #: per-call quantity from ``(args, kwargs, result)``.
    info: Optional[Callable[[tuple, dict, Any], float]] = None


_EXECUTORS = (
    "kernels.plan.execute_plan",
    "kernels.plan.execute_plan_into",
    "kernels.plan.execute_plan_multi",
    "kernels.plan.execute_plan_multi_into",
    "kernels.plan.execute_transpose_plan",
)
_COMPILERS = (
    "kernels.plan.compile_plan",
    "kernels.plan.compile_sharded_plan",
    "kernels.plan.compile_transpose_plan",
)
_DIST_EVALUATE = ("dist.evaluate", "dist.evaluate_multi")

ENTRY_POINTS: Tuple[EntryPoint, ...] = (
    EntryPoint("serve.submit", "repro.serve.service",
               "DoseEvaluationService.submit"),
    EntryPoint("serve.materialize", "repro.serve.cache",
               "PlanMatrixCache.materialize_with_plan",
               info=lambda a, k, r: 1.0 if r[3] else 0.0),
    EntryPoint("serve.materialize_matrix", "repro.serve.cache",
               "PlanMatrixCache.materialize",
               info=lambda a, k, r: 1.0 if r[1] else 0.0),
    EntryPoint("kernels.batched.run_multi_spmv", "repro.kernels.batched",
               "run_multi_spmv",
               info=lambda a, k, r: len(_arg(a, k, 2, "weight_vectors"))),
    EntryPoint("kernels.batched.spmm_batched_time", "repro.kernels.batched",
               "spmm_batched_time"),
    EntryPoint("kernels.kernel_run", "repro.kernels.csr_vector",
               "VectorCSRKernel.run"),
    EntryPoint("gpu.gather_traffic", "repro.gpu.memory", "gather_traffic"),
    EntryPoint("kernels.plan.execute_plan", "repro.kernels.plan",
               "execute_plan", info=lambda a, k, r: 1),
    EntryPoint("kernels.plan.execute_plan_into", "repro.kernels.plan",
               "execute_plan_into", info=lambda a, k, r: 1),
    EntryPoint("kernels.plan.execute_plan_multi", "repro.kernels.plan",
               "execute_plan_multi",
               info=lambda a, k, r: _batch_of(_arg(a, k, 1, "weights"))),
    EntryPoint("kernels.plan.execute_plan_multi_into", "repro.kernels.plan",
               "execute_plan_multi_into",
               info=lambda a, k, r: _arg(a, k, 1, "xt").shape[0]),
    EntryPoint("kernels.plan.execute_transpose_plan", "repro.kernels.plan",
               "execute_transpose_plan", info=lambda a, k, r: 1),
    EntryPoint("kernels.plan.compile_plan", "repro.kernels.plan",
               "compile_plan"),
    EntryPoint("kernels.plan.compile_sharded_plan", "repro.kernels.plan",
               "compile_sharded_plan"),
    EntryPoint("kernels.plan.compile_transpose_plan", "repro.kernels.plan",
               "compile_transpose_plan"),
    EntryPoint("dist.evaluate", "repro.dist.evaluator",
               "ShardedEvaluator.evaluate", info=lambda a, k, r: 1),
    EntryPoint("dist.evaluate_multi", "repro.dist.evaluator",
               "ShardedEvaluator.evaluate_multi",
               info=lambda a, k, r: len(_arg(a, k, 1, "weight_vectors"))),
    EntryPoint("dist.run_batch", "repro.dist.backend",
               "ShardedServeBackend.run_batch",
               info=lambda a, k, r: len(_arg(a, k, 4, "weight_vectors"))),
    EntryPoint("opt.dist.advance", "repro.opt.dist.loop", "advance"),
)


@dataclass
class Sample:
    name: str
    phase: str
    #: names of the wrapped calls enclosing this one, outermost first.
    ancestors: Tuple[str, ...]
    #: thread CPU time inside the call, nested calls included.
    cpu_s: float
    info: Optional[float]


class Tracer:
    """Wraps entry points; one instance per traced process."""

    def __init__(self, entry_points: Sequence[EntryPoint] = ENTRY_POINTS):
        self.entry_points = tuple(entry_points)
        #: the phase new samples are tagged with ("setup", "window", ...).
        self.phase = "setup"
        self.samples: List[Sample] = []
        self._local = threading.local()
        #: (owner, attribute, original) in patching order.
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #

    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, ep: EntryPoint, original: Callable) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            ancestors = tuple(stack)
            phase = tracer.phase
            stack.append(ep.name)
            cpu0 = time.thread_time()
            try:
                result = original(*args, **kwargs)
            finally:
                cpu = time.thread_time() - cpu0
                stack.pop()
            info = ep.info(args, kwargs, result) if ep.info else None
            tracer.samples.append(Sample(ep.name, phase, ancestors, cpu, info))
            return result

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", ep.name)
        return traced

    def install(self) -> "Tracer":
        """Wrap every entry point; raises if one no longer exists."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            for ep in self.entry_points:
                self._install_one(ep)
        except BaseException:
            self.restore()
            raise
        return self

    def _install_one(self, ep: EntryPoint) -> None:
        module = importlib.import_module(ep.module)
        if "." in ep.qualname:
            cls_name, attr = ep.qualname.split(".")
            owner = getattr(module, cls_name)
            if attr not in vars(owner):
                raise AttributeError(f"{ep.module}.{ep.qualname} not found")
            original = vars(owner)[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(ep, original))
            return
        original = getattr(module, ep.qualname)
        wrapper = self._wrap(ep, original)
        for name, mod in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")):
                continue
            if getattr(mod, ep.qualname, None) is original:
                self._patches.append((mod, ep.qualname, original))
                setattr(mod, ep.qualname, wrapper)

    def restore(self) -> None:
        """Put every original back, in reverse order of patching."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def patched(self) -> List[Tuple[object, str, object]]:
        return list(self._patches)


# --------------------------------------------------------------------- #
# per-layer metrics
# --------------------------------------------------------------------- #


def _p50(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _mean(total: float, count: float) -> float:
    return total / count if count else 0.0


def gather_calls_per_batch(samples: Sequence[Sample]) -> float:
    """``gather_traffic`` calls per ``run_multi_spmv`` batch in the
    samples tagged ``"probe"`` (an exact count)."""
    probe = [s for s in samples if s.phase == "probe"]
    batches = [s for s in probe if s.name == "kernels.batched.run_multi_spmv"]
    gathers = [s for s in probe if s.name == "gpu.gather_traffic"
               and "kernels.batched.run_multi_spmv" in s.ancestors]
    return _mean(len(gathers), len(batches))


def layer_metrics(
    samples: Sequence[Sample],
    window: Dict[str, Any],
    probe: Dict[str, Any],
) -> Dict[str, float]:
    """Per-layer metrics of one traced process.

    ``window`` carries the closed-loop figures of the timed window
    (``cpu_s``, ``evals``, ``queue_wait_s``, ``batch_sizes``,
    ``evals_total``/``iterations_total`` for optimizations) and the
    modelled counts (``modeled_dram_bytes_per_eval``, ``plan_bytes``);
    ``probe`` carries what was measured after the window
    (``gather_calls_per_batch``, ``host_vs_scipy``).
    Layers a workload does not exercise report 0.
    """
    win = [s for s in samples if s.phase == "window"]

    def named(pool: Sequence[Sample], *names: str) -> List[Sample]:
        return [s for s in pool if s.name in names]

    out: Dict[str, float] = {}
    submits = named(win, "serve.submit")
    out["serve.submit_us_p50"] = _p50([s.cpu_s * 1e6 for s in submits])
    out["serve.queue_wait_ms_p50"] = _p50(
        [w * 1e3 for w in window.get("queue_wait_s", [])]
    )
    sizes = window.get("batch_sizes", [])
    out["serve.batch_size_mean"] = _mean(sum(sizes), len(sizes))

    # the single-device path looks up matrix + compiled plan; the
    # sharded path looks up the converted matrix alone.
    lookups = named(win, "serve.materialize") + [
        s for s in named(win, "serve.materialize_matrix")
        if "serve.materialize" not in s.ancestors
    ]
    out["serve.cache.plan_hit_ratio"] = _mean(
        sum(s.info for s in lookups), len(lookups)
    )
    out["serve.cache.materialize_ms_sum"] = 1e3 * sum(
        s.cpu_s for s in lookups if not s.info
    )

    batches = named(win, "kernels.batched.run_multi_spmv")
    n_batches = len(batches)
    batch_cpu = sum(s.cpu_s for s in batches)
    out["kernels.batched.run_ms_per_batch"] = 1e3 * _mean(batch_cpu, n_batches)
    in_batch = [s for s in win
                if "kernels.batched.run_multi_spmv" in s.ancestors]
    first_runs = [s for s in named(in_batch, "kernels.kernel_run")
                  if s.ancestors[-1] == "kernels.batched.run_multi_spmv"]
    out["kernels.batched.first_run_ms"] = 1e3 * _mean(
        sum(s.cpu_s for s in first_runs), len(first_runs)
    )
    pricing = named(in_batch, "kernels.batched.spmm_batched_time")
    out["kernels.batched.pricing_ms_per_batch"] = 1e3 * _mean(
        sum(s.cpu_s for s in pricing), n_batches
    )

    def outermost_executors(pool: Sequence[Sample]) -> List[Sample]:
        return [s for s in named(pool, *_EXECUTORS)
                if not set(s.ancestors) & set(_EXECUTORS)]

    batch_exec = sum(s.cpu_s for s in outermost_executors(in_batch))
    out["kernels.batched.host_over_executor"] = _mean(batch_cpu, batch_exec)

    out["gpu.gather_traffic_calls_per_batch"] = probe[
        "gather_calls_per_batch"]
    out["gpu.modeled_dram_bytes_per_eval"] = (
        window["modeled_dram_bytes_per_eval"])

    executors = outermost_executors(win)
    dist_calls = named(win, *_DIST_EVALUATE)
    vectors = sum(s.info for s in executors
                  if not set(s.ancestors) & set(_DIST_EVALUATE))
    vectors += sum(s.info for s in dist_calls)
    out["kernels.plan.execute_us_per_vector"] = 1e6 * _mean(
        sum(s.cpu_s for s in executors), vectors
    )
    compiles = [s for s in named(samples, *_COMPILERS)
                if s.phase in ("setup", "window")
                and not set(s.ancestors) & set(_COMPILERS)]
    out["kernels.plan.plan_mb"] = window["plan_bytes"] / 1e6
    out["kernels.plan.compile_ms"] = 1e3 * _mean(
        sum(s.cpu_s for s in compiles), len(compiles)
    )
    out["kernels.plan.host_vs_scipy"] = probe["host_vs_scipy"]

    out["dist.evaluate_ms_per_vector"] = 1e3 * _mean(
        sum(s.cpu_s for s in dist_calls), sum(s.info for s in dist_calls)
    )
    forwards = named(win, "dist.run_batch")
    adjoints = [s for s in dist_calls if "dist.run_batch" not in s.ancestors]
    out["opt.dist.forward_ms_p50"] = _p50([s.cpu_s * 1e3 for s in forwards])
    out["opt.dist.adjoint_ms_p50"] = _p50([s.cpu_s * 1e3 for s in adjoints])
    out["opt.dist.evals_per_iteration"] = _mean(
        window.get("evals_total", 0), window.get("iterations_total", 0)
    )

    attributed = sum(s.cpu_s for s in win if not s.ancestors)
    out["bench.unattributed_ms"] = 1e3 * _mean(
        window["cpu_s"] - attributed, window["evals"]
    )
    return out
