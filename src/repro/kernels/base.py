"""Kernel interface shared by every SpMV implementation.

A kernel bundles a *functional* execution (exact arithmetic with the exact
reduction order of its hardware counterpart, vectorized with NumPy) with a
*performance* execution (counter collection + analytical timing on a target
device).  ``run`` performs both and returns a :class:`KernelResult`.
"""

from __future__ import annotations

import abc
import functools
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.gpu.counters import PerfCounters
from repro.gpu.device import A100, DeviceSpec
from repro.gpu.launch import LaunchConfig
from repro.gpu.timing import KernelTraits, TimingEstimate, WorkloadProfile
from repro.obs import metrics
from repro.obs.trace import span as _trace_span
from repro.precision.types import MixedPrecision
from repro.sparse.csr import CSRMatrix
from repro.sparse.rscf import RSCFMatrix
from repro.util.rng import RngLike

MatrixLike = Union[CSRMatrix, RSCFMatrix]


@dataclass(frozen=True)
class KernelContract:
    """The machine-checkable contract one kernel declares.

    This is what :mod:`repro.analyze` verifies: the reproducibility claim
    (bit-identical repeated runs), the precision triple the functional
    path must honour, whether the implementation is allowed to touch
    atomics, and whether its byte accounting must agree with the paper's
    analytic traffic model (``6*nnz + 12*nr + 8*nc`` for Half/Double).
    """

    #: registry/display name of the kernel.
    name: str
    #: repeated runs on the same input must be bit-identical.
    reproducible: bool
    #: declared storage/vector/accumulation precisions (None for kernels
    #: without a first-class precision configuration, e.g. RSCF ports).
    precision: Optional[MixedPrecision]
    #: the implementation reduces through atomics (must imply
    #: ``reproducible=False``).
    uses_atomics: bool
    #: DRAM byte counters are expected to match the analytic traffic
    #: model (padding formats intentionally diverge and opt out).
    matches_traffic_model: bool


@dataclass(frozen=True)
class KernelResult:
    """Outcome of one simulated kernel execution."""

    #: kernel registry name (e.g. ``"half_double"``).
    kernel: str
    #: device the execution was modelled on.
    device: DeviceSpec
    #: launch configuration used.
    launch: Optional[LaunchConfig]
    #: the computed output vector (always float64 for reporting).
    y: np.ndarray
    #: collected performance counters.
    counters: PerfCounters
    #: analytical timing estimate.
    timing: TimingEstimate
    #: modelling traits the estimate used (for paper-scale re-estimation).
    traits: Optional[KernelTraits] = None
    #: workload profile the estimate used.
    profile: Optional[WorkloadProfile] = None
    #: accumulation width in bytes (8 for double, 4 for single paths).
    accum_bytes: int = 8

    @property
    def gflops(self) -> float:
        """Modelled GFLOP/s."""
        return self.timing.gflops

    @property
    def dram_bandwidth(self) -> float:
        """Modelled achieved DRAM bandwidth in bytes/s."""
        return self.timing.achieved_dram_bw

    @property
    def operational_intensity(self) -> float:
        """Flops per DRAM byte (roofline x-coordinate)."""
        return self.counters.operational_intensity


def book_launch(flops: float, dram_bytes: float, modeled_time_s: float) -> None:
    """Count one modelled launch with its work in the process metrics.

    These counters are always on (they feed the CLI metrics summary and
    the run manifest): every :meth:`SpMVKernel.run` books its launch
    here, and so does every SpMM batch of
    :func:`repro.kernels.batched.run_multi_spmv`, which prices a whole
    batch as one launch.
    """
    metrics.counter("kernel.launches").inc()
    metrics.counter("kernel.flops_modeled").inc(flops)
    metrics.counter("kernel.bytes_modeled").inc(dram_bytes)
    metrics.histogram("kernel.modeled_time_s").observe(modeled_time_s)


def _instrumented_run(run):
    """Wrap a kernel ``run`` with one span + launch/work metrics.

    The span is a no-op unless tracing is enabled; the launch is booked
    through :func:`book_launch`.
    """

    @functools.wraps(run)
    def wrapper(self, matrix, x, *args, **kwargs):
        device = kwargs.get("device", args[0] if args else None)
        with _trace_span(
            "kernel.run",
            kernel=self.name,
            device=getattr(device, "name", None),
            rows=getattr(matrix, "n_rows", None),
            nnz=getattr(matrix, "nnz", None),
        ) as sp:
            result = run(self, matrix, x, *args, **kwargs)
            book_launch(
                result.counters.flops,
                result.counters.dram_bytes,
                result.timing.time_s,
            )
            sp.set_attrs(
                device=result.device.name,
                gflops=round(result.timing.gflops, 3),
                modeled_time_s=result.timing.time_s,
                limiter=result.timing.limiter,
            )
            return result

    wrapper._obs_instrumented = True
    return wrapper


class SpMVKernel(abc.ABC):
    """Abstract SpMV kernel.

    Subclasses set :attr:`name`, declare whether their result is bitwise
    reproducible across runs, and implement :meth:`run`.  Every concrete
    ``run`` is transparently instrumented (one ``kernel.run`` span plus
    launch/flops/bytes counters) via :meth:`__init_subclass__`.
    """

    #: registry name; subclasses override.
    name: str = "abstract"
    #: True if repeated runs on the same input are bit-identical.
    reproducible: bool = True
    #: True when the kernel's DRAM counters must agree with the analytic
    #: traffic model of :mod:`repro.roofline.analytic` (CSR-family
    #: kernels set this; padding formats like ELLPACK opt out).
    traffic_model_exact: bool = False

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        run = cls.__dict__.get("run")
        if run is not None and not getattr(run, "_obs_instrumented", False):
            cls.run = _instrumented_run(run)

    @abc.abstractmethod
    def run(
        self,
        matrix: MatrixLike,
        x: np.ndarray,
        device: DeviceSpec = A100,
        threads_per_block: Optional[int] = None,
        rng: RngLike = None,
    ) -> KernelResult:
        """Execute ``y = A @ x`` functionally and model its performance.

        ``rng`` only affects kernels with nondeterministic reduction order
        (the atomics baseline); deterministic kernels ignore it.
        """

    def evaluate(self, matrix: MatrixLike, x: np.ndarray) -> np.ndarray:
        """The functional half of :meth:`run` alone: ``A @ x`` as float64.

        Bitwise equal to ``run(matrix, x).y``.  Kernels whose arithmetic
        stands apart from their accounting override this to skip the
        counters, so a bitwise audit pays for the arithmetic only; the
        default runs the whole kernel.
        """
        return self.run(matrix, x).y

    def model_timing(
        self,
        matrix: MatrixLike,
        device: DeviceSpec = A100,
        threads_per_block: Optional[int] = None,
        batch: int = 1,
    ) -> TimingEstimate:
        """Timing-only estimate for a candidate execution configuration.

        Kernels with an analytic counter model (the plan-family CSR
        kernels) override this so the sharded evaluator and the
        autotuner can price configurations without running arithmetic;
        kernels without one refuse.
        """
        raise NotImplementedError(
            f"kernel {self.name!r} has no structural timing model"
        )

    def contract(self) -> KernelContract:
        """The contract this kernel declares (checked by ``repro.analyze``).

        Assembled from the class-level reproducibility flag, the
        ``precision`` attribute kernels with a first-class
        :class:`~repro.precision.types.MixedPrecision` set in their
        constructor, and the atomics flag of the kernel's traits.
        """
        traits = getattr(self, "traits", None)
        return KernelContract(
            name=self.name,
            reproducible=self.reproducible,
            precision=getattr(self, "precision", None),
            uses_atomics=bool(traits.uses_atomics) if traits else False,
            matches_traffic_model=self.traffic_model_exact,
        )

    def traits_for(self, profile: WorkloadProfile) -> KernelTraits:
        """Modelling traits for a workload profile.

        The default returns the kernel's static ``traits``; library
        comparator models override this because their efficiency depends
        on the matrix's row-length profile — which changes when the
        harness re-estimates timing at paper scale.
        """
        return self.traits

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"
