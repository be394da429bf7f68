"""Every metric the benchmark prints is declared in BENCHMARK.json."""

import json
import re
from pathlib import Path

import pytest

import run
from tracing import layer_metrics
from workloads import WORKLOADS

SPEC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _names(section):
    return [m["name"] for m in SPEC[section]]


def test_end_to_end_names_match():
    child = dict.fromkeys(
        ("cpu_s", "evals", "wall_s", "setup_s", "peak_rss_mb",
         "modeled_device_us_per_eval"), 1.0)
    assert set(run.GATED) <= set(run.per_eval(child))
    assert sorted(run.GATED) == sorted(_names("end_to_end"))


def test_per_layer_names_match():
    window = {"cpu_s": 1.0, "evals": 1, "modeled_dram_bytes_per_eval": 1.0,
              "plan_bytes": 1}
    printed = set(layer_metrics(
        [], window, {"gather_calls_per_batch": 1.0, "host_vs_scipy": 1.0}))
    # computed by run.py from the untraced and traced children
    printed |= {"bench.tracing_overhead", "bench.evals_per_s"}
    assert printed == set(_names("per_layer"))
    assert set(run.EXACT_LAYERS) <= printed


def test_workloads_match():
    assert _names("workloads") == list(WORKLOADS)


@pytest.mark.parametrize("section", ["end_to_end", "per_layer"])
def test_metric_definitions_follow_the_contract(section):
    names = _names(section)
    assert len(names) == len(set(names))
    for metric in SPEC[section]:
        assert _NAME.match(metric["name"]) and _UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
        if section == "end_to_end":
            assert set(metric) == {"name", "unit", "better", "bound"}
            assert 0 < metric["bound"] <= 0.25
        else:
            assert set(metric) == {"name", "unit", "better"}
    if section == "end_to_end":
        setup = next(m for m in SPEC[section] if m["name"] == "setup_s")
        assert setup["unit"] == "s" and setup["better"] == "lower"
        assert setup["bound"] == max(m["bound"] for m in SPEC[section])
