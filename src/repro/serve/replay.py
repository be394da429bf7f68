"""Deterministic replay of served requests from a per-run artifact.

The artifact records no dose vectors — only SHA-256 digests of the
served bytes plus the workload parameters (``params.workload``) every
request was derived from.  Because all loadgen randomness flows through
:func:`repro.util.rng.stable_seed`, that is enough to re-execute any
recorded request from scratch: rebuild the plan matrices from their
seeds (or Table I cases), re-derive the request's weight vector, run the
kernel's arithmetic stand-alone — fresh conversion, no plan, no cache, no
scheduler, batch of one, no modelled counters — and compare digests.  A match proves, after the fact, that the
service's batching/caching/sharding did not change a single bit of that
dose; ``repro-rtdose artifact replay`` turns this into a CLI audit.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.bench.harness import convert_for_kernel
from repro.kernels.dispatch import make_kernel
from repro.obs.artifact import dose_sha256
from repro.serve.loadgen import (
    LoadTestConfig,
    build_synthetic_plans,
    request_weights,
)
from repro.util.errors import ReproError


@dataclass(frozen=True)
class ReplayOutcome:
    """One replayed request: recorded digest vs re-executed digest."""

    request_id: str
    plan_id: str
    precision: str
    recorded_sha256: str
    replayed_sha256: str

    @property
    def match(self) -> bool:
        """Bitwise equality of the served dose and the replayed dose."""
        return self.recorded_sha256 == self.replayed_sha256


def workload_config(params: Dict[str, Any]) -> LoadTestConfig:
    """Reconstruct the :class:`LoadTestConfig` a run recorded."""
    names = {f.name for f in dataclasses.fields(LoadTestConfig)}
    kwargs = {k: v for k, v in params.items() if k in names}
    if kwargs.get("case_names") is not None:
        kwargs["case_names"] = tuple(kwargs["case_names"])
    return LoadTestConfig(**kwargs)


def rebuild_masters(config: LoadTestConfig) -> Dict[str, Any]:
    """The run's plan-id -> master-matrix mapping, rebuilt from seeds.

    Mirrors the registration loop of
    :func:`repro.serve.loadgen.run_loadtest` exactly: Table I cases when
    ``case_names`` is set, seeded synthetic dose-like matrices
    otherwise.
    """
    if config.case_names:
        from repro.plans.cases import build_case_matrix

        return {
            f"plan-{i}": build_case_matrix(case, config.preset).matrix
            for i, case in enumerate(config.case_names)
        }
    return dict(build_synthetic_plans(config))


def replay_requests(
    artifact: Dict[str, Any],
    request_ids: Optional[Sequence[str]] = None,
    limit: Optional[int] = None,
) -> List[ReplayOutcome]:
    """Re-execute recorded requests and compare dose digests.

    Replays every completed request that carries a ``dose_sha256``
    (optionally filtered to ``request_ids``, optionally capped at
    ``limit`` entries, in the artifact's deterministic order).  Raises
    :class:`ReproError` when the artifact records requests but not the
    workload parameters needed to reconstruct them.
    """
    params = (artifact.get("params") or {}).get("workload")
    entries = [
        e
        for e in artifact.get("phases", {}).get("request", [])
        if e.get("status") == "ok" and e.get("dose_sha256")
    ]
    if request_ids is not None:
        wanted = set(request_ids)
        entries = [e for e in entries if e.get("request_id") in wanted]
        missing = wanted - {e.get("request_id") for e in entries}
        if missing:
            raise ReproError(
                f"request ids not replayable from this artifact: "
                f"{sorted(missing)}"
            )
    if not entries:
        return []
    if not params:
        raise ReproError(
            "artifact records requests but no params.workload; "
            "deterministic replay is impossible"
        )
    if limit is not None:
        entries = entries[: max(0, limit)]
    config = workload_config(params)
    masters = rebuild_masters(config)
    converted: Dict[tuple, Any] = {}
    outcomes: List[ReplayOutcome] = []
    for entry in entries:
        plan_id = entry["plan_id"]
        precision = entry["precision"]
        if plan_id not in masters:
            raise ReproError(
                f"request {entry.get('request_id')!r} references plan "
                f"{plan_id!r} which the workload does not define"
            )
        key = (plan_id, precision)
        matrix = converted.get(key)
        if matrix is None:
            matrix = convert_for_kernel(masters[plan_id], precision)
            converted[key] = matrix
        weights = request_weights(
            config, int(entry["client"]), int(entry["index"]), matrix.n_cols
        )
        dose = make_kernel(precision).evaluate(matrix, weights)
        outcomes.append(
            ReplayOutcome(
                request_id=entry["request_id"],
                plan_id=plan_id,
                precision=precision,
                recorded_sha256=entry["dose_sha256"],
                replayed_sha256=dose_sha256(dose),
            )
        )
    return outcomes
