"""Synthetic load generator and closed-loop loadtest report.

Models the ROADMAP's target traffic: many optimizer clients hammering
the evaluation service concurrently, each submitting *bursts* of
same-plan weight vectors (one optimizer iteration proposes several
candidate weightings) and waiting for the doses before iterating —
a closed loop, so offered load adapts to service throughput.

Everything is deterministic given the seed: plan matrices come from
:func:`repro.sparse.synth.dose_like` (or registered Table I cases), and
every request's weight vector is derived from a stable per-request seed
— which is what makes the *bitwise audit* possible: after the run, each
served dose is compared bit-for-bit against a stand-alone kernel
evaluation reconstructed from the same seeds.

The report carries the paper-style quantities: latency percentiles,
throughput, rejection counts, and the batched-vs-sequential modelled
amortization (the service-layer analogue of Figure 5's launch-overhead
argument).
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.bench.harness import convert_for_kernel
from repro.kernels.dispatch import make_kernel
from repro.obs import artifact
from repro.obs.clock import Clock, get_clock
from repro.obs.logging import get_logger, kv
from repro.obs.trace import span as trace_span
from repro.serve.ensemble import (
    EnsembleOutcome,
    EnsembleResult,
    ScenarioEnsembleRequest,
)
from repro.serve.request import (
    EvaluationRequest,
    EvaluationResult,
    Outcome,
    Rejected,
)
from repro.serve.scheduler import BatchingPolicy
from repro.serve.service import DoseEvaluationService, ServiceConfig
from repro.sparse.csr import CSRMatrix
from repro.sparse.synth import dose_like
from repro.util.rng import make_rng, stable_seed
from repro.util.tables import Table

_log = get_logger(__name__)


@dataclass(frozen=True)
class LoadTestConfig:
    """Shape of one synthetic load run."""

    n_requests: int = 200
    n_clients: int = 4
    #: same-plan requests each client submits back to back (an optimizer
    #: iteration's candidate weightings) before waiting for the doses.
    burst: int = 4
    n_plans: int = 3
    #: synthetic plan dimensions (voxels x spots, dose-like structure).
    plan_rows: int = 240
    plan_cols: int = 64
    precision: str = "half_double"
    n_workers: int = 2
    max_batch_size: int = 8
    batch_window_s: float = 0.002
    queue_capacity: int = 512
    max_inflight_per_client: int = 64
    deadline_s: Optional[float] = None
    seed: int = 20210419
    #: register Table I cases (at ``preset``) instead of synthetic plans.
    case_names: Optional[Sequence[str]] = None
    preset: str = "tiny"
    #: workload family driving the traffic: ``"synthetic"`` keeps the
    #: historical dose-like plans; any registered :mod:`repro.workloads`
    #: name generates that family's matrices instead, and an *ensemble*
    #: family (``robust_ensemble``) switches every client to
    #: :class:`~repro.serve.ensemble.ScenarioEnsembleRequest` traffic.
    workload: str = "synthetic"
    #: row shards per evaluation (>1 serves through repro.dist).
    shards: int = 1
    #: simulated devices in the sharded pool (None: min(shards, 4)).
    dist_devices: Optional[int] = None
    #: shard placement policy for the sharded backend.
    dist_placement: str = "memory"

    def __post_init__(self) -> None:
        if self.n_requests <= 0 or self.n_clients <= 0 or self.burst <= 0:
            raise ValueError("n_requests, n_clients and burst must be positive")


@dataclass
class RequestRecord:
    """Per-request outcome row of the loadtest report."""

    request_id: str
    client_id: str
    plan_id: str
    precision: str
    status: str  # "ok" or the rejection reason value
    latency_ms: Optional[float] = None
    queue_wait_ms: Optional[float] = None
    batch_id: Optional[int] = None
    batch_size: Optional[int] = None
    modeled_time_s: Optional[float] = None
    cache_hit: Optional[bool] = None
    #: row shards the evaluation ran across (1 == single device).
    shards: int = 1
    #: workload family the request's plan came from.
    workload: str = "synthetic"
    #: scenario index within an ensemble request (None outside ensembles).
    scenario: Optional[int] = None
    bitwise: Optional[bool] = None
    #: SHA-256 of the served dose bytes (the artifact's replay target);
    #: stamped by the bitwise audit before the dose itself is dropped.
    dose_sha256: Optional[str] = None
    dose_dtype: Optional[str] = None
    #: the served dose, held only until the bitwise audit runs.
    dose: Optional[np.ndarray] = None


def _percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile of a sample list (0 for empty input)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    idx = min(len(ordered) - 1, int(round(q / 100.0 * (len(ordered) - 1))))
    return ordered[idx]


@dataclass
class LoadTestReport:
    """Everything one loadtest run measured."""

    config: LoadTestConfig
    records: List[RequestRecord]
    wall_s: float
    modeled_batched_s: float
    modeled_sequential_s: float
    rejections: Dict[str, int] = field(default_factory=dict)
    #: compiled-execution-plan cache outcomes across all executed batches.
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0

    # ------------------------------ aggregates ------------------------- #

    @property
    def submitted(self) -> int:
        return len(self.records)

    @property
    def completed(self) -> int:
        return sum(1 for r in self.records if r.status == "ok")

    @property
    def rejected(self) -> int:
        return self.submitted - self.completed

    def _latencies(self) -> List[float]:
        return [r.latency_ms for r in self.records if r.latency_ms is not None]

    @property
    def p50_ms(self) -> float:
        return _percentile(self._latencies(), 50)

    @property
    def p95_ms(self) -> float:
        return _percentile(self._latencies(), 95)

    @property
    def p99_ms(self) -> float:
        return _percentile(self._latencies(), 99)

    @property
    def throughput_rps(self) -> float:
        return self.completed / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def mean_batch_size(self) -> float:
        sizes = [r.batch_size for r in self.records if r.batch_size]
        return float(np.mean(sizes)) if sizes else 0.0

    @property
    def max_batch_size(self) -> int:
        sizes = [r.batch_size for r in self.records if r.batch_size]
        return max(sizes) if sizes else 0

    @property
    def amortization(self) -> float:
        """Modelled sequential kernel time over batched time (>= 1)."""
        if self.modeled_batched_s <= 0:
            return 1.0
        return self.modeled_sequential_s / self.modeled_batched_s

    @property
    def batched_throughput_rps(self) -> float:
        """Completed evaluations per modelled batched kernel second."""
        if self.modeled_batched_s <= 0:
            return 0.0
        return self.completed / self.modeled_batched_s

    @property
    def sequential_throughput_rps(self) -> float:
        """Completed evaluations per modelled sequential kernel second."""
        if self.modeled_sequential_s <= 0:
            return 0.0
        return self.completed / self.modeled_sequential_s

    @property
    def plan_cache_lookups(self) -> int:
        return self.plan_cache_hits + self.plan_cache_misses

    @property
    def plan_cache_hit_rate(self) -> float:
        """Fraction of executed batches served by a cached compiled plan."""
        lookups = self.plan_cache_lookups
        return self.plan_cache_hits / lookups if lookups else 0.0

    @property
    def bitwise_checked(self) -> int:
        return sum(1 for r in self.records if r.bitwise is not None)

    @property
    def bitwise_ok(self) -> int:
        return sum(1 for r in self.records if r.bitwise)

    @property
    def bitwise_fraction(self) -> float:
        checked = self.bitwise_checked
        return self.bitwise_ok / checked if checked else 0.0

    def claims(self) -> Dict[str, float]:
        """Quantities the recording layer checks against expectations."""
        return {
            "loadtest_amortization": self.amortization,
            "loadtest_bitwise_fraction": self.bitwise_fraction,
            "loadtest_completed_fraction": (
                self.completed / self.submitted if self.submitted else 0.0
            ),
        }

    # ------------------------------ rendering -------------------------- #

    def render(self) -> str:
        summary = Table(["quantity", "value"], title="Loadtest summary")
        rows = [
            ("requests submitted", self.submitted),
            ("requests completed", self.completed),
            ("requests rejected", self.rejected),
            ("wall time (s)", round(self.wall_s, 4)),
            ("closed-loop throughput (req/s)", round(self.throughput_rps, 1)),
            ("latency p50 (ms)", round(self.p50_ms, 3)),
            ("latency p95 (ms)", round(self.p95_ms, 3)),
            ("latency p99 (ms)", round(self.p99_ms, 3)),
            ("mean batch size", round(self.mean_batch_size, 2)),
            ("max batch size", self.max_batch_size),
            ("modeled sequential kernel time (s)",
             f"{self.modeled_sequential_s:.3e}"),
            ("modeled batched kernel time (s)",
             f"{self.modeled_batched_s:.3e}"),
            ("batched throughput (eval/modeled s)",
             round(self.batched_throughput_rps, 1)),
            ("sequential throughput (eval/modeled s)",
             round(self.sequential_throughput_rps, 1)),
            ("launch-overhead amortization", round(self.amortization, 4)),
            ("plan-cache hit rate",
             f"{self.plan_cache_hits}/{self.plan_cache_lookups} "
             f"({100 * self.plan_cache_hit_rate:.1f}%)"),
            ("bitwise identical to stand-alone",
             f"{self.bitwise_ok}/{self.bitwise_checked}"),
        ]
        if self.config.shards > 1:
            rows.append(("shards per evaluation", self.config.shards))
        for reason, count in sorted(self.rejections.items()):
            rows.append((f"rejections[{reason}]", count))
        for name, value in rows:
            summary.add_row([name, value])
        return summary.render()


# --------------------------------------------------------------------- #


def build_synthetic_plans(config: LoadTestConfig) -> Dict[str, CSRMatrix]:
    """Deterministic dose-like plan matrices for the run."""
    plans: Dict[str, CSRMatrix] = {}
    for p in range(config.n_plans):
        rng = make_rng(stable_seed("serve-loadgen-plan", config.seed, p))
        plans[f"plan-{p}"] = dose_like(
            config.plan_rows, config.plan_cols, density=0.05,
            empty_fraction=0.5, rng=rng,
        )
    return plans


def request_weights(config: LoadTestConfig, client: int,
                    index: int, n_cols: int) -> np.ndarray:
    """The (reconstructible) weight vector of one synthetic request."""
    rng = make_rng(
        stable_seed("serve-loadgen-weights", config.seed, client, index)
    )
    return 0.5 + rng.random(n_cols)


def _client_plan(config: LoadTestConfig, client: int, burst_index: int,
                 plan_ids: List[str]) -> str:
    """Deterministic per-burst plan choice (round-robin with offset)."""
    return plan_ids[(client + burst_index) % len(plan_ids)]


def run_loadtest(
    config: Optional[LoadTestConfig] = None,
    clock: Optional[Clock] = None,
) -> LoadTestReport:
    """Run one closed-loop load test against a fresh service."""
    config = config or LoadTestConfig()
    clock = clock or get_clock()

    service = DoseEvaluationService(
        ServiceConfig(
            queue_capacity=config.queue_capacity,
            max_inflight_per_client=config.max_inflight_per_client,
            n_workers=config.n_workers,
            batching=BatchingPolicy(
                max_batch_size=config.max_batch_size,
                max_wait_s=config.batch_window_s,
            ),
            shards=config.shards,
            dist_devices=config.dist_devices,
            dist_placement=config.dist_placement,
        ),
        clock=clock,
    )
    masters = {}
    ensemble_plan: Optional[str] = None
    if config.case_names:
        for i, case in enumerate(config.case_names):
            record = service.plans.register_case(
                f"plan-{i}", case, preset=config.preset
            )
            masters[record.plan_id] = record.matrix
    elif config.workload != "synthetic":
        from repro.workloads import generate, get_workload, scenario_matrices

        spec = get_workload(config.workload)
        if spec.ensemble:
            product = generate(
                config.workload, seed=config.seed, preset=config.preset
            )
            ensemble_plan = "plan-0"
            scenario_ids = service.register_ensemble(ensemble_plan, product)
            for pid, (_, matrix) in zip(
                scenario_ids, scenario_matrices(product)
            ):
                masters[pid] = matrix
        else:
            for p in range(config.n_plans):
                product = generate(
                    config.workload,
                    seed=config.seed + p,
                    preset=config.preset,
                )
                plan_id = f"plan-{p}"
                service.plans.register(
                    plan_id, product.matrix,
                    source=f"workload:{config.workload}",
                )
                masters[plan_id] = product.matrix
    else:
        for plan_id, matrix in build_synthetic_plans(config).items():
            service.plans.register(plan_id, matrix, source="synthetic")
            masters[plan_id] = matrix
    plan_ids = [ensemble_plan] if ensemble_plan else sorted(masters)

    per_client = _split_requests(config.n_requests, config.n_clients)
    records: List[List[RequestRecord]] = [[] for _ in range(config.n_clients)]

    n_cols_any = next(iter(masters.values())).n_cols

    def client_loop(client: int) -> None:
        submitted = 0
        burst_index = 0
        while submitted < per_client[client]:
            plan_id = _client_plan(config, client, burst_index, plan_ids)
            n_cols = (
                n_cols_any if ensemble_plan else masters[plan_id].n_cols
            )
            burst_n = min(config.burst, per_client[client] - submitted)
            if ensemble_plan:
                ensembles = [
                    ScenarioEnsembleRequest(
                        request_id=f"c{client}-r{submitted + j}",
                        plan_id=plan_id,
                        weights=request_weights(
                            config, client, submitted + j, n_cols
                        ),
                        precision=config.precision,
                        deadline_s=config.deadline_s,
                        client_id=f"client-{client}",
                    )
                    for j in range(burst_n)
                ]
                handles = [service.submit_ensemble(r) for r in ensembles]
                for request, handle in zip(ensembles, handles):
                    outcome = (
                        handle if isinstance(handle, Rejected)
                        else handle.outcome(60.0)
                    )
                    records[client].extend(
                        _ensemble_records(request, outcome, config.workload)
                    )
            else:
                requests = [
                    EvaluationRequest(
                        request_id=f"c{client}-r{submitted + j}",
                        plan_id=plan_id,
                        weights=request_weights(
                            config, client, submitted + j, n_cols
                        ),
                        precision=config.precision,
                        deadline_s=config.deadline_s,
                        client_id=f"client-{client}",
                    )
                    for j in range(burst_n)
                ]
                outcomes = service.evaluate(requests)
                for request, outcome in zip(requests, outcomes):
                    records[client].append(
                        _record(request, outcome, config.workload)
                    )
            submitted += burst_n
            burst_index += 1

    with trace_span("serve.loadtest", requests=config.n_requests,
                    clients=config.n_clients):
        service.start()
        started = clock.monotonic()
        threads = [
            threading.Thread(target=client_loop, args=(c,),  # analyze: allow[RL505] -- each client thread appends only to its own records[c] slot; slots are disjoint and read after join()
                             name=f"loadgen-client-{c}")
            for c in range(config.n_clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall_s = clock.monotonic() - started
        service.stop()

    flat = [r for client_records in records for r in client_records]
    _audit_bitwise(config, flat, masters)
    rejections: Dict[str, int] = {}
    for r in flat:
        if r.status != "ok":
            rejections[r.status] = rejections.get(r.status, 0) + 1
    report = LoadTestReport(
        config=config,
        records=flat,
        wall_s=wall_s,
        modeled_batched_s=service.modeled_batched_s,
        modeled_sequential_s=service.modeled_sequential_s,
        rejections=rejections,
        plan_cache_hits=service.plan_cache_hits,
        plan_cache_misses=service.plan_cache_misses,
    )
    _log.info(kv("loadtest finished", completed=report.completed,
                 rejected=report.rejected, p99_ms=round(report.p99_ms, 3),
                 amortization=round(report.amortization, 4),
                 plan_cache_hit_rate=round(report.plan_cache_hit_rate, 4)))
    _enrich_artifact(config, report)
    return report


def _enrich_artifact(config: LoadTestConfig, report: LoadTestReport) -> None:
    """Record the run into the per-run artifact (no-op when disabled).

    Writes the workload parameters (everything
    :mod:`repro.serve.replay` needs to reconstruct any request), one
    ``request`` entry per submitted request — with the dose digest the
    replay asserts against — the run-level summary, and a snapshot of
    every cache metric so amortization claims stay auditable.
    """
    if not artifact.enabled():
        return
    workload = asdict(config)
    workload["mode"] = "loadtest"
    artifact.set_param("workload", workload)
    for record in report.records:
        client, index = _parse_request_id(record.request_id)
        artifact.record(
            "request",
            request_id=record.request_id,
            client=client,
            index=index,
            client_id=record.client_id,
            plan_id=record.plan_id,
            precision=record.precision,
            status=record.status,
            latency_ms=record.latency_ms,
            queue_wait_ms=record.queue_wait_ms,
            batch_id=record.batch_id,
            batch_size=record.batch_size,
            modeled_time_s=record.modeled_time_s,
            cache_hit=record.cache_hit,
            shards=record.shards,
            workload=record.workload,
            scenario=record.scenario,
            bitwise=record.bitwise,
            dose_sha256=record.dose_sha256,
            dose_dtype=record.dose_dtype,
        )
    artifact.record(
        "loadtest",
        submitted=report.submitted,
        completed=report.completed,
        rejected=report.rejected,
        wall_s=report.wall_s,
        p50_ms=report.p50_ms,
        p95_ms=report.p95_ms,
        p99_ms=report.p99_ms,
        mean_batch_size=report.mean_batch_size,
        max_batch_size=report.max_batch_size,
        amortization=report.amortization,
        plan_cache_hits=report.plan_cache_hits,
        plan_cache_misses=report.plan_cache_misses,
        bitwise_checked=report.bitwise_checked,
        bitwise_ok=report.bitwise_ok,
        rejections=report.rejections,
        claims=report.claims(),
    )
    artifact.record(
        "serve_cache", metrics=artifact.cache_metrics_snapshot()
    )


def _split_requests(n_requests: int, n_clients: int) -> List[int]:
    base = n_requests // n_clients
    shares = [base] * n_clients
    for i in range(n_requests - base * n_clients):
        shares[i] += 1
    return shares


def _record(request: EvaluationRequest, outcome: Outcome,
            workload: str = "synthetic") -> RequestRecord:
    if isinstance(outcome, Rejected):
        return RequestRecord(
            request_id=request.request_id,
            client_id=request.client_id,
            plan_id=request.plan_id,
            precision=request.precision,
            status=outcome.reason.value,
            workload=workload,
        )
    assert isinstance(outcome, EvaluationResult)
    return RequestRecord(
        request_id=request.request_id,
        client_id=request.client_id,
        plan_id=request.plan_id,
        precision=request.precision,
        status="ok",
        latency_ms=outcome.latency_s * 1e3,
        queue_wait_ms=outcome.queue_wait_s * 1e3,
        batch_id=outcome.batch_id,
        batch_size=outcome.batch_size,
        modeled_time_s=outcome.modeled_time_s,
        cache_hit=outcome.cache_hit,
        shards=outcome.shards,
        workload=workload,
        dose=outcome.dose,
    )


def _ensemble_records(
    request: ScenarioEnsembleRequest,
    outcome: EnsembleOutcome,
    workload: str,
) -> List[RequestRecord]:
    """One record per scenario (or one rejection row for the ensemble).

    Scenario rows carry the *scenario plan id* (``plan-0@s{i}``) and the
    scenario index, so the bitwise audit reconstructs each stand-alone
    ``A_s @ w`` exactly like any other request, and the CSV/artifact
    views expose the fan-out explicitly.
    """
    if isinstance(outcome, Rejected):
        return [
            RequestRecord(
                request_id=request.request_id,
                client_id=request.client_id,
                plan_id=request.plan_id,
                precision=request.precision,
                status=outcome.reason.value,
                workload=workload,
            )
        ]
    assert isinstance(outcome, EnsembleResult)
    rows = []
    for index, result in enumerate(outcome.scenario_results):
        rows.append(
            RequestRecord(
                request_id=request.request_id,
                client_id=request.client_id,
                plan_id=result.plan_id,
                precision=result.precision,
                status="ok",
                latency_ms=result.latency_s * 1e3,
                queue_wait_ms=result.queue_wait_s * 1e3,
                batch_id=result.batch_id,
                batch_size=result.batch_size,
                modeled_time_s=result.modeled_time_s,
                cache_hit=result.cache_hit,
                shards=result.shards,
                workload=workload,
                scenario=index,
                dose=result.dose,
            )
        )
    return rows


def _audit_bitwise(
    config: LoadTestConfig,
    records: List[RequestRecord],
    masters: Dict[str, "object"],
) -> None:
    """Bitwise-compare every served dose with a stand-alone evaluation.

    Each completed request is reconstructed from its seeds and evaluated
    *outside* the service — fresh format conversion, fresh kernel
    instance, batch of one, no plan, no cache, no scheduler, and only
    the kernel's functional arithmetic (:meth:`SpMVKernel.evaluate`, no
    modelled counters) — and compared bit-for-bit with what the service
    returned.  This is the paper's
    reproducibility requirement lifted to the service layer: batching,
    caching, arrival order and worker scheduling must not change a
    single bit of any dose.

    Doses are dropped from the records afterwards so a big run's report
    does not pin every result vector in memory.
    """
    reference_matrices: Dict[tuple, object] = {}
    with trace_span("serve.loadtest_audit"):
        for record in records:
            if record.status != "ok" or record.dose is None:
                continue
            key = (record.plan_id, record.precision)
            ref = reference_matrices.get(key)
            if ref is None:
                ref = convert_for_kernel(
                    masters[record.plan_id], record.precision
                )
                reference_matrices[key] = ref
            client, index = _parse_request_id(record.request_id)
            weights = request_weights(config, client, index, ref.n_cols)
            standalone = make_kernel(record.precision).evaluate(ref, weights)
            record.bitwise = bool(np.array_equal(record.dose, standalone))
            record.dose_sha256 = artifact.dose_sha256(record.dose)
            record.dose_dtype = str(record.dose.dtype)
            record.dose = None


def _parse_request_id(request_id: str) -> tuple:
    """Invert the ``c{client}-r{index}`` naming of synthetic requests."""
    client_part, index_part = request_id.split("-r")
    return int(client_part[1:]), int(index_part)
