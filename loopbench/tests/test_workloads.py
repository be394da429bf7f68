"""Workload inputs are a pure function of (workload, seed)."""

import dataclasses

import numpy as np
import pytest

from workloads import WORKLOADS, base_weights, make_inputs


def _flatten(obj):
    """Comparable form of an inputs object (arrays become lists)."""
    if dataclasses.is_dataclass(obj):
        return {f.name: _flatten(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, (tuple, list)):
        return [_flatten(x) for x in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert _flatten(make_inputs(workload, 7)) == _flatten(
        make_inputs(workload, 7))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_requests_not_plans(workload):
    a, b = make_inputs(workload, 1), make_inputs(workload, 2)
    assert a.plans == b.plans
    fa, fb = _flatten(a), _flatten(b)
    fa.pop("seed"), fb.pop("seed")
    if workload == "opt-sharded":
        assert base_weights(1, "opt-0", 0, 50).tolist() != base_weights(
            2, "opt-0", 0, 50).tolist()
    else:
        assert fa != fb


def test_base_weights_pure_and_positive():
    w = base_weights(3, "liver1-bench", 2, 100)
    assert np.array_equal(w, base_weights(3, "liver1-bench", 2, 100))
    assert not np.array_equal(w, base_weights(3, "liver1-bench", 1, 100))
    assert w.min() >= 0.5 and w.max() < 1.5


def test_serve_streams_cover_plans_evenly():
    inp = make_inputs("serve-churn", 5)
    for stream in inp.streams:
        counts = np.bincount(stream.plan[: 14 * 10], minlength=14)
        assert counts.tolist() == [10] * 14
    burst = make_inputs("serve-burst", 5)
    for c, stream in enumerate(burst.streams):
        assert stream.plan[:8].tolist() == [c % 2] * 8


def test_unknown_workload_rejected():
    with pytest.raises(ValueError):
        make_inputs("serve-lone", 1)
