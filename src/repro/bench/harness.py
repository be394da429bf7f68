"""Experiment runner: kernel x case x device sweeps with paper-scale
extrapolation.

The flow for one experiment point:

1. build (or load) the case's bench-scale deposition matrix;
2. run the kernel *functionally* at bench scale (real arithmetic, real
   access patterns -> real counters), validating the result against the
   reference SpMV;
3. extrapolate the counters to the paper's full-size matrix (each traffic
   component scales with its structural dimension — see
   :meth:`repro.gpu.counters.PerfCounters.scaled`) and re-run the timing
   model at that scale.

Reported GFLOP/s, bandwidth and operational intensity are therefore
paper-scale quantities, directly comparable to the paper's figures, while
every number still originates from executed code rather than a lookup
table.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Generic, Optional, Tuple, TypeVar

import numpy as np

from repro.gpu.device import A100, CPU_I9_7940X, DeviceKind, DeviceSpec
from repro.gpu.launch import LaunchConfig
from repro.gpu.timing import (
    TimingEstimate,
    WorkloadProfile,
    estimate_cpu_time,
    estimate_gpu_time,
)
from repro.kernels.base import KernelResult
from repro.kernels.batched import clear_pricing_cache
from repro.kernels.dispatch import make_kernel
from repro.kernels.plan import clear_plan_cache
from repro.obs import artifact, metrics
from repro.obs.lockwitness import guarded_lock
from repro.obs.logging import get_logger, kv
from repro.obs.trace import span as trace_span
from repro.plans.cases import build_case_matrix, scale_factors
from repro.sparse.convert import csr_to_ellpack, csr_to_rscf, csr_to_sellcs
from repro.sparse.csr import CSRMatrix
from repro.sparse.rscf import RSCFMatrix
from repro.sparse.spmv_ref import relative_error
from repro.util.rng import make_rng, stable_seed


@dataclass(frozen=True)
class ExperimentRow:
    """One measured point of a paper figure."""

    case: str
    kernel: str
    device: str
    threads_per_block: Optional[int]
    time_s: float
    gflops: float
    bandwidth_gbs: float
    bandwidth_fraction: float
    operational_intensity: float
    limiter: str
    relative_error: float
    reproducible: bool

    def as_list(self):
        """Row cells for table rendering."""
        return [
            self.case,
            self.kernel,
            self.device,
            self.threads_per_block,
            self.time_s,
            self.gflops,
            self.bandwidth_gbs,
            f"{100 * self.bandwidth_fraction:.0f}%",
            self.operational_intensity,
            self.limiter,
            f"{self.relative_error:.1e}",
            "yes" if self.reproducible else "NO",
        ]


_K = TypeVar("_K")
_V = TypeVar("_V")

_log = get_logger(__name__)


class LRUCache(Generic[_K, _V]):
    """Thread-safe, size-capped LRU cache reporting hit/miss/eviction
    metrics.

    The previous module-level dicts grew without bound: a sweep over
    every (case, preset, kernel) combination holds every derived matrix
    alive for the life of the process.  The cap keeps the working set of
    a figure regeneration resident while letting cross-figure leftovers
    age out.

    Every operation (``get``/``put``/``clear``/``len``) holds one lock,
    and :meth:`get_or_create` additionally *single-flights* builders:
    when N threads miss the same key at once, exactly one runs the
    factory and the rest wait for its value.  The serving layer hits
    this from a pool of worker threads, where the naive
    get-miss-build-put pattern would convert the same plan matrix N
    times over.
    """

    def __init__(self, name: str, capacity: int, metric_prefix: str = "harness"):
        if capacity <= 0:
            raise ValueError(f"cache capacity must be positive, got {capacity}")
        self.name = name
        self.capacity = capacity
        self._metric_root = f"{metric_prefix}.{name}"
        self._lock = guarded_lock(  # analyze: lock-guards[_data, _building]
            "bench.harness.LRUCache"
        )
        self._data: "OrderedDict[_K, _V]" = OrderedDict()
        #: key -> Event set when the in-flight builder for key finishes.
        self._building: Dict[_K, threading.Event] = {}

    def get(self, key: _K) -> Optional[_V]:
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                metrics.counter(f"{self._metric_root}.miss").inc()
                return None
            self._data.move_to_end(key)
            metrics.counter(f"{self._metric_root}.hit").inc()
            return value

    def put(self, key: _K, value: _V) -> None:
        with self._lock:
            self._put_locked(key, value)

    def _put_locked(self, key: _K, value: _V) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.capacity:
            evicted_key, _ = self._data.popitem(last=False)
            metrics.counter(f"{self._metric_root}.evictions").inc()
            _log.debug(kv("cache eviction", cache=self.name,
                          key=str(evicted_key)))
        metrics.gauge(f"{self._metric_root}.size").set(len(self._data))

    def get_or_create(self, key: _K, factory: Callable[[], _V]) -> _V:
        """Return the cached value, building it via ``factory`` on a miss.

        Concurrent misses on one key run ``factory`` exactly once; the
        other callers block until the builder finishes and then read the
        cached value (counted as hits — they were served from cache).
        A failing factory releases the key so the next caller retries.
        """
        while True:
            with self._lock:
                if key in self._data:
                    self._data.move_to_end(key)
                    metrics.counter(f"{self._metric_root}.hit").inc()
                    return self._data[key]
                done = self._building.get(key)
                if done is None:
                    done = self._building[key] = threading.Event()
                    break
            done.wait()
        try:
            value = factory()
        except BaseException:
            with self._lock:
                self._building.pop(key, None)
            done.set()
            raise
        with self._lock:
            metrics.counter(f"{self._metric_root}.miss").inc()
            self._put_locked(key, value)
            self._building.pop(key, None)
        done.set()
        return value

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            metrics.gauge(f"{self._metric_root}.size").set(0)

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)


#: back-compat alias (pre-serving name).
_LRUCache = LRUCache

#: 6 cases x 3 presets fit; RSCF conversions are the largest objects.
_RSCF_CACHE: LRUCache[Tuple[str, str], RSCFMatrix] = LRUCache("rscf_cache", 18)
#: One figure sweep touches <= 6 cases x ~4 kernels at one preset.
_HALF_CACHE: LRUCache[Tuple[str, str, str], CSRMatrix] = LRUCache(
    "half_cache", 48
)


def clear_caches() -> None:
    """Drop the harness's per-process matrix, plan and pricing caches
    (tests use this)."""
    _RSCF_CACHE.clear()
    _HALF_CACHE.clear()
    clear_plan_cache()
    clear_pricing_cache()


def convert_for_kernel(master: CSRMatrix, kernel_name: str):
    """Convert a float32 CSR master copy to the format a kernel consumes.

    This is the single mapping from registry name to storage
    format/precision, shared by the bench harness and the serving
    layer's plan-matrix cache.
    """
    if kernel_name in ("gpu_baseline", "cpu_raystation"):
        return csr_to_rscf(master)
    if kernel_name == "ellpack_half_double":
        return csr_to_ellpack(master.astype(np.float16))
    if kernel_name == "sellcs_half_double":
        return csr_to_sellcs(
            master.astype(np.float16), chunk_size=32, sigma=4096
        )
    if kernel_name == "half_double":
        return master.astype(np.float16)
    if kernel_name == "half_double_u16":
        return master.astype(np.float16).with_index_dtype(np.uint16)
    if kernel_name == "double":
        return master.astype(np.float64)
    # single, scalar_csr, cusparse, ginkgo consume the float32 master.
    return master


def prepare_input_matrix(
    kernel_name: str, case_name: str, preset: str = "bench"
):
    """Materialize the storage format/precision a kernel consumes."""
    with trace_span("harness.matrix_build", case=case_name, preset=preset):
        dep = build_case_matrix(case_name, preset)
    master = dep.matrix  # float32 CSR
    if artifact.enabled():
        artifact.record_once(
            "matrix_build", (case_name, preset),
            case=case_name, preset=preset,
            n_rows=master.n_rows, n_cols=master.n_cols, nnz=master.nnz,
            fingerprint=artifact.matrix_fingerprint(master),
        )

    def build():
        with trace_span("harness.format_convert", kernel=kernel_name,
                        case=case_name):
            converted = convert_for_kernel(master, kernel_name)
        if artifact.enabled():
            artifact.record_once(
                "format_convert", (case_name, preset, kernel_name),
                case=case_name, preset=preset, kernel=kernel_name,
                format=type(converted).__name__,
                fingerprint=artifact.matrix_fingerprint(converted),
            )
        return converted

    if kernel_name in ("gpu_baseline", "cpu_raystation"):
        return _RSCF_CACHE.get_or_create((case_name, preset), build)
    return _HALF_CACHE.get_or_create((case_name, preset, kernel_name), build)


def case_weights(case_name: str, n_spots: int) -> np.ndarray:
    """Deterministic spot-weight vector for a case (the SpMV input)."""
    rng = make_rng(stable_seed("weights", case_name))
    return 0.5 + rng.random(n_spots)


def paper_scale_timing(
    result: KernelResult,
    case_name: str,
    bench_matrix,
    device: DeviceSpec,
) -> TimingEstimate:
    """Re-run the timing model with counters extrapolated to paper scale."""
    fn, fr, fc = scale_factors(case_name, bench_matrix)
    traits = result.traits
    grid_factor = {"rows": fr, "nnz": fn, "cols": fc}[
        traits.grid_scales_with if traits else "rows"
    ]
    counters = result.counters.scaled(fn, fr, fc, grid_factor=grid_factor)
    if device.kind is DeviceKind.CPU:
        return estimate_cpu_time(device, counters, traits)
    launch = LaunchConfig(
        max(int(round(result.launch.grid_blocks * grid_factor)), 1),
        result.launch.threads_per_block,
    )
    profile = result.profile or WorkloadProfile()
    profile_scaled = WorkloadProfile(
        avg_row_len=profile.avg_row_len * fn / fr,
        rowlen_cv=profile.rowlen_cv,
    )
    return estimate_gpu_time(
        device,
        launch,
        counters,
        traits,
        profile_scaled,
        accum_bytes=result.accum_bytes,
    )


def run_spmv_experiment(
    kernel_name: str,
    case_name: str,
    device: DeviceSpec = A100,
    preset: str = "bench",
    threads_per_block: Optional[int] = None,
    at_paper_scale: bool = True,
    rng=None,
) -> ExperimentRow:
    """Measure one (kernel, case, device, block-size) point."""
    with trace_span(
        "harness.experiment",
        kernel=kernel_name,
        case=case_name,
        device=device.name,
        preset=preset,
    ) as sp:
        return _run_spmv_experiment(
            kernel_name, case_name, device, preset, threads_per_block,
            at_paper_scale, rng, sp,
        )


def _run_spmv_experiment(
    kernel_name, case_name, device, preset, threads_per_block,
    at_paper_scale, rng, sp,
) -> ExperimentRow:
    kernel = make_kernel(kernel_name)
    if kernel_name == "cpu_raystation":
        device = CPU_I9_7940X
    matrix = prepare_input_matrix(kernel_name, case_name, preset)
    dep = build_case_matrix(case_name, preset)
    x = case_weights(case_name, matrix.n_cols)
    # Plan-capable kernels run off the precompiled execution plan: the
    # cached input matrix makes repeated experiment points over one case
    # hit the plan cache, so bucketing/gather precompute is paid once
    # per (matrix, precision) instead of once per repetition.
    extra = {}
    if hasattr(kernel, "prepare_plan"):
        extra["plan"] = kernel.prepare_plan(matrix)
    result = kernel.run(matrix, x, device=device, threads_per_block=threads_per_block, rng=rng, **extra)
    with trace_span("harness.validate", kernel=kernel_name, case=case_name):
        y_ref = dep.matrix.matvec(x)
        err = relative_error(result.y, y_ref)
    metrics.counter("harness.validations").inc()
    if err > 1e-2:
        metrics.counter("harness.validation_errors").inc()
        _log.warning(kv("large validation error", kernel=kernel_name,
                        case=case_name, relative_error=err))

    # Re-estimate at paper scale; traits must use the paper-scale profile
    # for profile-dependent kernels (cuSPARSE's long-row bonus).
    if at_paper_scale:
        with trace_span("harness.extrapolate", kernel=kernel_name,
                        case=case_name):
            if result.profile is not None:
                fn, fr, _ = scale_factors(case_name, dep.matrix)
                profile_scaled = WorkloadProfile(
                    avg_row_len=result.profile.avg_row_len * fn / fr,
                    rowlen_cv=result.profile.rowlen_cv,
                )
                result = _with_traits(result, kernel.traits_for(profile_scaled))
            timing = paper_scale_timing(result, case_name, dep.matrix, device)
    else:
        timing = result.timing

    sp.set_attrs(
        gflops=round(timing.gflops, 3),
        time_s=timing.time_s,
        relative_error=err,
    )
    return ExperimentRow(
        case=case_name,
        kernel=kernel_name,
        device=device.name,
        threads_per_block=(
            result.launch.threads_per_block if result.launch else None
        ),
        time_s=timing.time_s,
        gflops=timing.gflops,
        bandwidth_gbs=timing.achieved_dram_bw / 1e9,
        bandwidth_fraction=timing.bandwidth_fraction(device),
        operational_intensity=timing.counters.operational_intensity,
        limiter=timing.limiter,
        relative_error=err,
        reproducible=kernel.reproducible,
    )


def _with_traits(result: KernelResult, traits) -> KernelResult:
    """Copy a result with different modelling traits."""
    from dataclasses import replace

    return replace(result, traits=traits)
