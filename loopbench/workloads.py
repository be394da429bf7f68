"""Benchmark workloads: every input is a pure function of ``(workload, seed)``.

This module imports nothing from the program under test, so the inputs a
run feeds the program can be built, compared and tested on their own.

Three closed-loop workloads (each caller waits for its reply, as an
optimizer does):

``serve-burst``
    2 clients, each submitting bursts of 8 same-plan dose requests and
    waiting for all 8, round-robin over Liver 1 and Prostate 1 at the
    ``bench`` preset.  Batches fill, so ``kernels.batched`` and
    ``kernels.plan`` carry the work.
``serve-churn``
    2 clients submitting lone requests over 14 small plans from three
    workload families (PBS ``tiny`` cases, VMAT, float32 photon FPB);
    the plan cache holds 8, so some requests convert and compile on the
    serving path.  Per-request layers dominate.  The measuring process
    runs on one CPU (see ``ServeInputs.one_cpu``).
``opt-sharded``
    rounds of 4 concurrent optimizations across 2 tenants, 4 shards, the
    ``clinical`` objective on Prostate 1/2 ``bench``; tolerance 0, so
    every optimization runs its whole iteration budget and every round
    does the same work.  ``dist`` and ``opt.dist`` carry the work.

The plan matrices of a workload never depend on the seed; the seed picks
weight vectors, their power-of-two scales and the request order.  That
keeps the modelled counts of a workload equal across seeds, while no two
served requests carry the same weight vector.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

WORKLOADS: Tuple[str, ...] = ("serve-burst", "serve-churn", "opt-sharded")

#: requests pre-drawn per client; a window that needs more wraps around.
STREAM_LENGTH = 8192

#: weight scales are 2**e for e in [-EXPONENT_RANGE, EXPONENT_RANGE]; a
#: power-of-two scale commutes with every rounding step of the kernels,
#: so ``dose(2**e * w) == 2**e * dose(w)`` bit for bit.
EXPONENT_RANGE = 3


@dataclass(frozen=True)
class PlanSpec:
    """One servable plan: where its float32 master matrix comes from."""

    plan_id: str
    #: ``"case"`` (a Table I case), ``"vmat"`` or ``"photon_fpb"``.
    family: str
    #: case name for ``"case"``; the generator seed otherwise.
    source: str
    preset: str
    #: kernel registry name the plan is served with.
    precision: str


@dataclass(frozen=True)
class ClientStream:
    """Pre-drawn requests of one client, consumed cyclically."""

    plan: np.ndarray
    base: np.ndarray
    exponent: np.ndarray


@dataclass(frozen=True)
class ServeInputs:
    workload: str
    seed: int
    plans: Tuple[PlanSpec, ...]
    clients: int
    #: same-plan requests per burst (1 == lone requests).
    burst: int
    #: distinct base weight vectors per plan.
    n_bases: int
    n_workers: int
    max_batch_size: int
    max_wait_s: float
    plan_cache_capacity: int
    streams: Tuple[ClientStream, ...]
    #: run the measuring process on one CPU.  Where thread hand-offs
    #: dominate (lone requests), their CPU cost depends on whether a
    #: woken thread lands on an idle or a busy second core, so on a
    #: shared host the CPU per evaluation followed the other tenants'
    #: load.  On one CPU it does not; batched work gains nothing from it.
    one_cpu: bool = False


@dataclass(frozen=True)
class OptInputs:
    workload: str
    seed: int
    plans: Tuple[PlanSpec, ...]
    #: (opt index, plan index, tenant) in submission order.
    submissions: Tuple[Tuple[int, int, str], ...]
    objective_preset: str
    max_iterations: int
    shards: int
    n_workers: int


def _rng(seed: int, *tags: object) -> np.random.Generator:
    words = [seed % (1 << 64)] + [zlib.crc32(str(t).encode()) for t in tags]
    return np.random.default_rng(np.random.SeedSequence(words))


def base_weights(seed: int, key: str, index: int, n_cols: int) -> np.ndarray:
    """Base weight vector ``index`` of plan (or optimization) ``key``."""
    return 0.5 + _rng(seed, "weights", key, index).random(n_cols)


def _case(plan_id: str, case: str, preset: str) -> PlanSpec:
    return PlanSpec(plan_id, "case", case, preset, "half_double")


def _serve_burst(seed: int) -> ServeInputs:
    plans = (
        _case("liver1-bench", "Liver 1", "bench"),
        _case("prostate1-bench", "Prostate 1", "bench"),
    )
    n_bases = 4
    streams = []
    for c in range(2):
        rng = _rng(seed, "serve-burst", "client", c)
        # the plan of burst b is plans[(c + b) % 2]; here one entry per
        # request, so plan[j] is the plan of request j's burst.
        bursts = np.arange(STREAM_LENGTH) // 8
        streams.append(ClientStream(
            plan=(c + bursts) % len(plans),
            base=rng.integers(0, n_bases, STREAM_LENGTH),
            exponent=rng.integers(
                -EXPONENT_RANGE, EXPONENT_RANGE + 1, STREAM_LENGTH
            ),
        ))
    return ServeInputs(
        workload="serve-burst", seed=seed, plans=plans, clients=2, burst=8,
        n_bases=n_bases, n_workers=2, max_batch_size=8,
        # a window far above the time 8 back-to-back submits take, so a
        # burst is never split by thread scheduling.
        max_wait_s=0.05, plan_cache_capacity=8, streams=tuple(streams),
    )


def _serve_churn(seed: int) -> ServeInputs:
    cases = ("Liver 1", "Liver 2", "Liver 3", "Liver 4",
             "Prostate 1", "Prostate 2")
    plans: List[PlanSpec] = [
        _case(f"pbs-{name.replace(' ', '').lower()}-tiny", name, "tiny")
        for name in cases
    ]
    plans += [PlanSpec(f"vmat-{s}", "vmat", str(s), "tiny", "half_double")
              for s in range(4)]
    plans += [PlanSpec(f"photon-{s}", "photon_fpb", str(s), "tiny", "single")
              for s in range(4)]
    n_bases = 2
    streams = []
    for c in range(2):
        rng = _rng(seed, "serve-churn", "client", c)
        # concatenated permutations: every plan equally often per cycle.
        cycles = -(-STREAM_LENGTH // len(plans))
        order = np.concatenate(
            [rng.permutation(len(plans)) for _ in range(cycles)]
        )[:STREAM_LENGTH]
        streams.append(ClientStream(
            plan=order,
            base=rng.integers(0, n_bases, STREAM_LENGTH),
            exponent=rng.integers(
                -EXPONENT_RANGE, EXPONENT_RANGE + 1, STREAM_LENGTH
            ),
        ))
    return ServeInputs(
        workload="serve-churn", seed=seed, plans=tuple(plans), clients=2,
        burst=1, n_bases=n_bases, n_workers=2, max_batch_size=8,
        max_wait_s=0.002, plan_cache_capacity=8, streams=tuple(streams),
        one_cpu=True,
    )


def _opt_sharded(seed: int) -> OptInputs:
    plans = (
        _case("prostate1-bench", "Prostate 1", "bench"),
        _case("prostate2-bench", "Prostate 2", "bench"),
    )
    order = _rng(seed, "opt-sharded", "order").permutation(4)
    return OptInputs(
        workload="opt-sharded", seed=seed, plans=plans,
        submissions=tuple(
            (int(i), int(i) % 2, f"tenant-{int(i) // 2}") for i in order
        ),
        objective_preset="clinical", max_iterations=10, shards=4,
        n_workers=2,
    )


_BUILDERS = {
    "serve-burst": _serve_burst,
    "serve-churn": _serve_churn,
    "opt-sharded": _opt_sharded,
}


def make_inputs(workload: str, seed: int):
    """The inputs of one run: a pure function of ``(workload, seed)``."""
    try:
        builder = _BUILDERS[workload]
    except KeyError:
        raise ValueError(
            f"unknown workload {workload!r}; expected one of {WORKLOADS}"
        ) from None
    return builder(int(seed))


def all_plan_specs() -> Dict[str, PlanSpec]:
    """Every plan any workload serves (seed-independent), by plan id."""
    specs: Dict[str, PlanSpec] = {}
    for workload in WORKLOADS:
        for spec in make_inputs(workload, 0).plans:
            specs[spec.plan_id] = spec
    return specs
