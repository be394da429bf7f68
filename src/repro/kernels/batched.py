"""Batched plan-level SpMV execution and optimization-time projection.

One optimizer iteration evaluates EVERY beam's dose (Section II: "Dose
distributions from multiple beams ... must be computed in each iteration
of an optimization procedure").  A naive port launches one kernel per
beam per iteration; a production integration batches them (CUDA graphs /
back-to-back launches on one stream), paying the fixed launch latency once
per batch instead of once per kernel.

:func:`run_plan_spmv` executes all beams of a plan through one kernel and
merges counters/timing with that amortization; :func:`project_optimization`
turns per-iteration timings into the quantity the paper's conclusion is
about — "a significant speedup in optimization times and time-to-treatment".
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.gpu.device import A100, DeviceSpec
from repro.gpu.executor import attach_launch_counts
from repro.gpu.timing import KERNEL_LAUNCH_OVERHEAD_S, estimate_gpu_time
from repro.kernels.base import KernelResult, SpMVKernel, book_launch
from repro.kernels.plan import SpMVPlan, execute_plan, execute_plan_multi
from repro.obs import metrics
from repro.obs.lockwitness import guarded_lock
from repro.util.errors import ShapeError

#: entries the process-global pricing cache keeps.  One entry is one
#: (matrix structure, kernel, device, launch, batch size) and holds a
#: few hundred bytes, so a few hundred cover every plan a service holds
#: at every batch size it forms without evicting.
PRICING_CACHE_CAPACITY = 512


@dataclass(frozen=True)
class PlanSpMVResult:
    """Outcome of one batched multi-beam dose calculation."""

    per_beam: List[KernelResult]
    #: total modelled time with launch overhead amortized across the batch.
    batched_time_s: float
    #: sum of stand-alone kernel times (the unbatched comparison).
    unbatched_time_s: float

    @property
    def doses(self) -> List[np.ndarray]:
        return [r.y for r in self.per_beam]

    @property
    def total_dose(self) -> np.ndarray:
        """Summed dose across beams (all beams share the dose grid)."""
        total = np.zeros_like(self.per_beam[0].y)
        for r in self.per_beam:
            total += r.y
        return total

    @property
    def launch_overhead_saved_s(self) -> float:
        return self.unbatched_time_s - self.batched_time_s


def run_plan_spmv(
    kernel: SpMVKernel,
    matrices: Sequence,
    weights: Sequence[np.ndarray],
    device: DeviceSpec = A100,
) -> PlanSpMVResult:
    """Execute one dose calculation for every beam of a plan.

    The batch pays the fixed kernel-launch overhead once; each kernel's
    compute/memory time is unchanged (they run back to back on the same
    stream, not concurrently — SpMV saturates the device on its own).
    """
    if len(matrices) != len(weights):
        raise ShapeError(
            f"{len(matrices)} matrices but {len(weights)} weight vectors"
        )
    if not matrices:
        raise ShapeError("need at least one beam")
    converted: List[np.ndarray] = []
    for i, (matrix, w) in enumerate(zip(matrices, weights)):
        w = np.asarray(w)
        if w.ndim != 1 or matrix.n_cols != w.shape[0]:
            raise ShapeError(
                f"beam {i}: matrix has {matrix.n_cols} columns but weight "
                f"vector has shape {w.shape}"
            )
        converted.append(w)
    results = [
        kernel.run(matrix, w, device=device)
        for matrix, w in zip(matrices, converted)
    ]
    n_rows = {r.y.shape[0] for r in results}
    if len(n_rows) != 1:
        raise ShapeError("all beams must share the dose grid")
    unbatched = sum(r.timing.time_s for r in results)
    batched = unbatched - (len(results) - 1) * KERNEL_LAUNCH_OVERHEAD_S
    return PlanSpMVResult(
        per_beam=results,
        batched_time_s=batched,
        unbatched_time_s=unbatched,
    )


@dataclass(frozen=True)
class MultiVectorSpMVResult:
    """Outcome of one micro-batched multi-vector dose calculation.

    One matrix, many weight vectors — the SpMM view ``D = A @ W`` the
    serving layer's micro-batcher produces when it coalesces same-plan
    evaluation requests.  Each column is evaluated with the kernel's
    exact per-vector reduction order, so every per-request dose is
    bitwise identical to a stand-alone ``A @ w`` evaluation: batching
    changes *when* work runs and what launch overhead costs, never a
    single result bit.
    """

    per_vector: List[KernelResult]
    #: modelled time with launch overhead paid once for the whole batch.
    batched_time_s: float
    #: sum of stand-alone kernel times (the sequential comparison).
    unbatched_time_s: float
    #: True when the batch ran through the precompiled-plan SpMM path
    #: (matrix streamed once for all vectors), False for the
    #: launch-overhead-only back-to-back model.
    spmm: bool = False
    #: number of row shards the evaluation ran across (1 = single device;
    #: >1 means a :class:`repro.dist.ShardedServeBackend` produced it).
    shards: int = 1

    @property
    def doses(self) -> List[np.ndarray]:
        return [r.y for r in self.per_vector]

    @property
    def batch_size(self) -> int:
        return len(self.per_vector)

    @property
    def launch_overhead_saved_s(self) -> float:
        return self.unbatched_time_s - self.batched_time_s

    @property
    def amortization(self) -> float:
        """Sequential time over batched time (>= 1; == 1 for one vector)."""
        return self.unbatched_time_s / self.batched_time_s


def spmm_batched_time(
    kernel: SpMVKernel,
    matrix,
    first: KernelResult,
    batch: int,
    device: DeviceSpec,
) -> float:
    """Modelled time of one SpMM launch evaluating ``batch`` vectors.

    Rebuilds the timing estimate from :meth:`multi_counters` with the
    first result's launch/traits/profile; at ``batch == 1`` the counters
    are exactly the single-vector counters, so the estimate reproduces
    ``first.timing.time_s`` bit for bit.  :func:`run_multi_spmv` takes
    its prices from the :class:`PricingCache`; this from-scratch form
    is the reference those cached prices are tested against.
    """
    counters = attach_launch_counts(
        kernel.multi_counters(matrix, device, batch),
        first.launch,
        device.warp_size,
    )
    timing = estimate_gpu_time(
        device,
        first.launch,
        counters,
        first.traits,
        first.profile,
        accum_bytes=first.accum_bytes,
    )
    return timing.time_s


@dataclass(frozen=True)
class BatchPrice:
    """The modelled price of one SpMM launch of ``batch`` vectors.

    A pure function of the matrix structure, the kernel, the device,
    the launch configuration and the batch size — never of the weights
    — so :class:`PricingCache` computes it once per such key.
    """

    #: one vector's result with an empty ``y``: the counters and timing
    #: a stand-alone ``kernel.run`` attaches.
    per_vector: KernelResult
    batched_time_s: float
    unbatched_time_s: float
    #: modelled flops and DRAM bytes of the whole batch's launch.
    flops: float
    dram_bytes: float

    def result(self, y: np.ndarray) -> KernelResult:
        """:attr:`per_vector` carrying ``y``, with counters (and the
        timing that references them) of its own, so a caller mutating
        one result cannot change another or a later batch's."""
        counters = self.per_vector.counters.copy()
        timing = replace(
            self.per_vector.timing,
            counters=counters,
            components=dict(self.per_vector.timing.components),
        )
        return replace(self.per_vector, y=y, counters=counters, timing=timing)


def price_batch(
    kernel: SpMVKernel, matrix, batch: int, device: DeviceSpec
) -> BatchPrice:
    """Price one SpMM launch of ``batch`` vectors from scratch.

    Kernels with an SpMM traffic model (``multi_counters``) price the
    batch as one launch streaming the matrix once; the others as
    back-to-back launches that save only launch overhead.  At
    ``batch == 1`` both are the single-vector price.
    """
    first = kernel.price(matrix, device)
    single = first.counters
    unbatched = batch * first.timing.time_s
    if batch == 1:
        return BatchPrice(first, first.timing.time_s, unbatched,
                          single.flops, single.dram_bytes)
    if hasattr(kernel, "multi_counters"):
        spmm = kernel.model_timing(matrix, device, batch=batch)
        return BatchPrice(first, spmm.time_s, unbatched,
                          spmm.counters.flops, spmm.counters.dram_bytes)
    return BatchPrice(
        first,
        unbatched - (batch - 1) * KERNEL_LAUNCH_OVERHEAD_S,
        unbatched,
        batch * single.flops,
        batch * single.dram_bytes,
    )


class PricingCache:
    """Thread-safe LRU of :class:`BatchPrice` entries, bounded by
    :data:`PRICING_CACHE_CAPACITY`.

    The key is the plan's structure digest (shape, dtypes, ``indptr``,
    ``indices``), the kernel (class, name, precision, traits), the
    device, the threads per block and the batch size — exactly what the
    price depends on.  Content, not identity: a re-converted matrix, a
    recompiled plan or a fresh kernel instance finds the price an
    earlier one paid for.  Pricing runs outside the lock; two threads
    missing on one key at once both price it and store equal entries.

    Reports ``pricing.cache.{hit,miss,evictions}`` counters and a
    ``pricing.cache.size`` gauge.
    """

    def __init__(self) -> None:
        self._lock = guarded_lock(  # analyze: lock-guards[_prices]
            "kernels.batched.PricingCache"
        )
        self._prices: "OrderedDict[Tuple[Hashable, ...], BatchPrice]" = (
            OrderedDict()
        )

    def get_or_price(
        self,
        kernel: SpMVKernel,
        matrix,
        plan: SpMVPlan,
        batch: int,
        device: DeviceSpec,
    ) -> BatchPrice:
        key = (
            plan.structure,
            type(kernel),
            kernel.name,
            kernel.precision,
            kernel.traits,
            device,
            kernel.default_threads_per_block,
            batch,
        )
        with self._lock:
            price = self._prices.get(key)
            if price is not None:
                self._prices.move_to_end(key)
        if price is not None:
            metrics.counter("pricing.cache.hit").inc()
            return price
        metrics.counter("pricing.cache.miss").inc()
        price = price_batch(kernel, matrix, batch, device)
        evicted = 0
        with self._lock:
            self._prices[key] = price
            self._prices.move_to_end(key)
            while len(self._prices) > PRICING_CACHE_CAPACITY:
                self._prices.popitem(last=False)
                evicted += 1
            size = len(self._prices)
        metrics.counter("pricing.cache.evictions").inc(evicted)
        metrics.gauge("pricing.cache.size").set(size)
        return price

    def clear(self) -> None:
        with self._lock:
            self._prices.clear()
        metrics.gauge("pricing.cache.size").set(0)

    def __len__(self) -> int:
        with self._lock:
            return len(self._prices)


_PRICING_CACHE = PricingCache()


def get_pricing_cache() -> PricingCache:
    """The process-global pricing cache behind :func:`run_multi_spmv`."""
    return _PRICING_CACHE


def clear_pricing_cache() -> None:
    """Drop every cached price (tests and the bench harness use this)."""
    _PRICING_CACHE.clear()


def run_multi_spmv(
    kernel: SpMVKernel,
    matrix,
    weight_vectors: Sequence[np.ndarray],
    device: DeviceSpec = A100,
    plan: Optional[SpMVPlan] = None,
) -> MultiVectorSpMVResult:
    """Evaluate ``A @ w`` for many weight vectors against one matrix.

    Kernels with a precompiled-plan family take the true SpMM path: the
    plan (passed in, or fetched from the process-global cache) evaluates
    the batch in one executor call —
    :func:`repro.kernels.plan.execute_plan` for one vector,
    :func:`repro.kernels.plan.execute_plan_multi` for more, streaming
    the matrix once for the whole batch — and the modelled price comes
    from the process-global :class:`PricingCache`, so a warm batch costs
    its executor and nothing else.  Every per-vector dose stays bitwise
    identical to a stand-alone evaluation — the fast path changes cost,
    never results.  The batch is booked as one launch in the kernel
    metrics.  Kernels without plan support fall back to back-to-back
    launches whose batch saves only launch overhead.

    This is the execution primitive behind the serving layer's request
    coalescing.
    """
    if not weight_vectors:
        raise ShapeError("need at least one weight vector")
    arrays: List[np.ndarray] = []
    for i, w in enumerate(weight_vectors):
        w = np.asarray(w)
        if w.ndim != 1 or matrix.n_cols != w.shape[0]:
            raise ShapeError(
                f"vector {i}: matrix has {matrix.n_cols} columns but weight "
                f"vector has shape {w.shape}"
            )
        arrays.append(w)
    if plan is None and not hasattr(kernel, "prepare_plan"):
        results = [kernel.run(matrix, w, device=device) for w in arrays]
        unbatched = sum(r.timing.time_s for r in results)
        return MultiVectorSpMVResult(
            per_vector=results,
            batched_time_s=unbatched
            - (len(results) - 1) * KERNEL_LAUNCH_OVERHEAD_S,
            unbatched_time_s=unbatched,
        )
    plan = kernel.prepare_plan(matrix, plan)
    price = get_pricing_cache().get_or_price(
        kernel, matrix, plan, len(arrays), device
    )
    if len(arrays) == 1:
        doses = [execute_plan(plan, arrays[0])]
    else:
        doses = list(execute_plan_multi(plan, arrays).T)
    book_launch(price.flops, price.dram_bytes, price.batched_time_s)
    return MultiVectorSpMVResult(
        per_vector=[price.result(d.astype(np.float64)) for d in doses],
        batched_time_s=price.batched_time_s,
        unbatched_time_s=price.unbatched_time_s,
        spmm=True,
    )


@dataclass(frozen=True)
class OptimizationProjection:
    """Projected dose-calculation time of a full plan optimization."""

    kernel: str
    device: str
    n_iterations: int
    n_beams: int
    #: forward dose products only (gradients cost a comparable transpose
    #: product; ``include_gradients`` doubles the count).
    spmv_time_per_iteration_s: float
    total_time_s: float

    def speedup_vs(self, other: "OptimizationProjection") -> float:
        """other.time / this.time (how much faster this configuration is)."""
        return other.total_time_s / self.total_time_s


def project_optimization(
    plan_result: PlanSpMVResult,
    kernel_name: str,
    device_name: str,
    n_iterations: int = 300,
    include_gradients: bool = True,
) -> OptimizationProjection:
    """Project a full optimization's dose-calculation time.

    ``n_iterations`` defaults to a typical clinical IMPT optimization
    length; gradients require ``A^T`` products of the same size, modelled
    as costing one forward product each.
    """
    if n_iterations <= 0:
        raise ValueError(f"n_iterations must be positive, got {n_iterations}")
    per_iter = plan_result.batched_time_s * (2.0 if include_gradients else 1.0)
    return OptimizationProjection(
        kernel=kernel_name,
        device=device_name,
        n_iterations=n_iterations,
        n_beams=len(plan_result.per_beam),
        spmv_time_per_iteration_s=per_iter,
        total_time_s=per_iter * n_iterations,
    )
