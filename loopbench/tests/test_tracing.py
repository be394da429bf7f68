"""The traced-run wrappers record samples and restore every entry point."""

import importlib
import sys

import numpy as np
import pytest

import repro.opt.dist.service  # noqa: F401  (binds every entry point)
import repro.serve.service  # noqa: F401
from tracing import ENTRY_POINTS, EntryPoint, Tracer, gather_calls_per_batch


def _bindings():
    """Every (owner, attribute) -> object an entry point is reachable by."""
    found = {}
    for ep in ENTRY_POINTS:
        module = importlib.import_module(ep.module)
        if "." in ep.qualname:
            cls_name, attr = ep.qualname.split(".")
            owner = getattr(module, cls_name)
            found[(owner, attr)] = vars(owner)[attr]
            continue
        original = getattr(module, ep.qualname)
        for name, mod in list(sys.modules.items()):
            if name.startswith("repro") and getattr(
                    mod, ep.qualname, None) is original:
                found[(mod, ep.qualname)] = original
    return found


def test_install_replaces_and_restore_puts_back_every_binding():
    before = _bindings()
    tracer = Tracer().install()
    try:
        patched = {(owner, attr) for owner, attr, _ in tracer.patched}
        assert patched == set(before)
        for (owner, attr), original in before.items():
            assert getattr(owner, attr) is not original
    finally:
        tracer.restore()
    for (owner, attr), original in before.items():
        current = (vars(owner)[attr] if isinstance(owner, type)
                   else getattr(owner, attr))
        assert current is original
    assert tracer.patched == []


def test_missing_entry_point_restores_partial_install():
    from repro.kernels import plan

    original = plan.compile_plan
    tracer = Tracer((
        EntryPoint("kernels.plan.compile_plan", "repro.kernels.plan",
                   "compile_plan"),
        EntryPoint("gone", "repro.kernels.plan", "no_such_function"),
    ))
    with pytest.raises(AttributeError):
        tracer.install()
    assert plan.compile_plan is original


def test_samples_record_nesting_phase_and_batch():
    from repro.kernels.dispatch import make_kernel
    from repro.sparse.synth import dose_like

    matrix = dose_like(64, 16, density=0.2,
                       rng=np.random.default_rng(0)).astype(np.float16)
    kernel = make_kernel("half_double")
    tracer = Tracer().install()
    try:
        tracer.phase = "window"
        from repro.kernels import plan as plan_mod

        compiled = plan_mod.compile_plan(matrix, "vector", np.float64)
        plan_mod.execute_plan_multi(compiled, [np.ones(16)] * 3)
        kernel.run(matrix, np.ones(16), plan=compiled)
    finally:
        tracer.restore()
    names = [s.name for s in tracer.samples]
    assert "kernels.plan.compile_plan" in names
    multi = [s for s in tracer.samples
             if s.name == "kernels.plan.execute_plan_multi"]
    assert len(multi) == 1 and multi[0].info == 3
    nested = [s for s in tracer.samples
              if s.name == "kernels.plan.execute_plan_multi_into"]
    assert nested[0].ancestors == ("kernels.plan.execute_plan_multi",)
    runs = [s for s in tracer.samples if s.name == "kernels.kernel_run"]
    assert runs and all(s.phase == "window" for s in tracer.samples)
    inner = {s.name for s in tracer.samples
             if s.ancestors[:1] == ("kernels.kernel_run",)}
    assert {"kernels.plan.execute_plan", "gpu.gather_traffic"} <= inner


def test_gather_count_covers_probe_batches_only():
    from repro.kernels import batched
    from repro.kernels.dispatch import make_kernel
    from repro.sparse.synth import dose_like

    matrix = dose_like(64, 16, density=0.2,
                       rng=np.random.default_rng(0)).astype(np.float16)
    kernel = make_kernel("half_double")
    counter = Tracer([ep for ep in ENTRY_POINTS if ep.name in (
        "kernels.batched.run_multi_spmv", "gpu.gather_traffic")]).install()
    try:
        counts = []
        for phase in ("probe", "post"):
            counter.phase = phase
            batched.run_multi_spmv(kernel, matrix, [np.ones(16)] * 8)
            counts.append(gather_calls_per_batch(counter.samples))
    finally:
        counter.restore()
    assert counts[0] >= 1 and counts[0] == counts[1]
    assert not hasattr(batched.run_multi_spmv, "__wrapped__")
