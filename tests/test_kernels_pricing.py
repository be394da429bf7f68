"""The SpMM path's pricing cache: price once per structure, execute once."""

import sys
import threading

import numpy as np
import pytest

import repro.kernels.batched as batched
import repro.kernels.csr_vector as csr_vector
from repro.bench.harness import convert_for_kernel
from repro.gpu.device import A100, V100
from repro.gpu.timing import KERNEL_LAUNCH_OVERHEAD_S
from repro.kernels.batched import (
    PricingCache,
    clear_pricing_cache,
    get_pricing_cache,
    price_batch,
    run_multi_spmv,
    spmm_batched_time,
)
from repro.kernels.csr_scalar import ScalarCSRKernel
from repro.kernels.csr_vector import HalfDoubleKernel, SingleKernel
from repro.kernels.dispatch import make_kernel
from repro.obs.metrics import get_registry
from repro.sparse.csr import CSRMatrix
from tests.conftest import make_random_csr


def _weights(rng, n_cols, batch):
    return [0.5 + rng.random(n_cols) for _ in range(batch)]


def _counter(name: str) -> float:
    state = get_registry().snapshot().get(name)
    return state["value"] if state else 0.0


def _banded(columns: np.ndarray, n_cols: int) -> CSRMatrix:
    """One row per column index, float16 values of 1."""
    n = columns.size
    return CSRMatrix(
        (n, n_cols),
        np.ones(n, dtype=np.float16),
        columns.astype(np.int32),
        np.arange(n + 1, dtype=np.int64),
    )


@pytest.fixture(autouse=True)
def _empty_pricing_cache():
    clear_pricing_cache()
    yield
    clear_pricing_cache()


class TestPricingCacheKey:
    def test_reconverted_matrix_hits(self, rng):
        master = make_random_csr(rng, n_rows=50, n_cols=30)
        w = _weights(rng, 30, 3)
        run_multi_spmv(HalfDoubleKernel(), convert_for_kernel(
            master, "half_double"), w)
        misses = _counter("pricing.cache.miss")
        again = convert_for_kernel(master, "half_double")
        run_multi_spmv(HalfDoubleKernel(), again, w)
        assert _counter("pricing.cache.miss") == misses
        assert len(get_pricing_cache()) == 1

    def test_same_shape_and_nnz_different_columns_misses(self):
        # 64 rows over 256 columns: one sector of columns vs eight.
        near = _banded(np.arange(64) % 4, 256)
        spread = _banded(np.arange(64) * 4 % 256, 256)
        assert near.shape == spread.shape and near.nnz == spread.nnz
        w = [np.ones(256)]
        a = run_multi_spmv(HalfDoubleKernel(), near, w)
        b = run_multi_spmv(HalfDoubleKernel(), spread, w)
        assert len(get_pricing_cache()) == 2
        assert (a.per_vector[0].counters.dram_bytes_cols
                != b.per_vector[0].counters.dram_bytes_cols)

    def test_batch_size_and_device_are_part_of_the_key(self, rng):
        m = make_random_csr(rng, n_rows=40, n_cols=20).astype(np.float16)
        kernel = HalfDoubleKernel()
        run_multi_spmv(kernel, m, _weights(rng, 20, 2))
        run_multi_spmv(kernel, m, _weights(rng, 20, 3))
        run_multi_spmv(kernel, m, _weights(rng, 20, 3), device=V100)
        assert len(get_pricing_cache()) == 3

    def test_eviction_is_bounded(self, rng, monkeypatch):
        monkeypatch.setattr(batched, "PRICING_CACHE_CAPACITY", 2)
        cache = PricingCache()
        kernel = HalfDoubleKernel()
        m = make_random_csr(rng, n_rows=30, n_cols=12).astype(np.float16)
        plan = kernel.prepare_plan(m)
        before = _counter("pricing.cache.evictions")
        for batch in (1, 2, 3):
            cache.get_or_price(kernel, m, plan, batch, A100)
        assert len(cache) == 2
        assert _counter("pricing.cache.evictions") == before + 1

    def test_concurrent_lookups_store_one_equal_price_per_key(self):
        kernel = HalfDoubleKernel()
        mats = [
            make_random_csr(np.random.default_rng(s), n_rows=40,
                            n_cols=16).astype(np.float16)
            for s in range(3)
        ]
        plans = [kernel.prepare_plan(m) for m in mats]
        expected = {
            (i, b): price_batch(kernel, m, b, A100)
            for i, m in enumerate(mats) for b in (1, 2)
        }
        cache = get_pricing_cache()
        seen, errors = [], []
        lookups_before = (_counter("pricing.cache.hit")
                          + _counter("pricing.cache.miss"))

        def worker(k):
            try:
                for n in range(30):
                    i, b = (k + n) % 3, 1 + n % 2
                    seen.append(((i, b), cache.get_or_price(
                        HalfDoubleKernel(), mats[i], plans[i], b, A100)))
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,))
                       for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(seen) == 8 * 30
        assert len(cache) == len(expected)
        assert (_counter("pricing.cache.hit") + _counter("pricing.cache.miss")
                - lookups_before) == 8 * 30
        for key, price in seen:
            want = expected[key]
            assert (price.batched_time_s, price.unbatched_time_s,
                    price.flops, price.dram_bytes) == (
                want.batched_time_s, want.unbatched_time_s,
                want.flops, want.dram_bytes)
            assert price.per_vector.counters == want.per_vector.counters


class TestSamePriceAsFreshPricing:
    """Cached prices equal what kernel.run + spmm_batched_time give."""

    @pytest.mark.parametrize("factory,dtype", [
        (HalfDoubleKernel, np.float16), (SingleKernel, np.float32),
    ])
    @pytest.mark.parametrize("batch", [1, 2, 8])
    def test_vector_kernels(self, rng, factory, dtype, batch):
        m = make_random_csr(rng, n_rows=70, n_cols=33,
                            value_dtype=dtype)
        vectors = _weights(rng, 33, batch)
        fresh = factory().run(m, vectors[0])
        batched_s = spmm_batched_time(factory(), m, fresh, batch, A100)
        for _ in range(2):  # cold, then warm
            result = run_multi_spmv(factory(), m, vectors)
            assert result.batched_time_s == batched_s
            assert result.unbatched_time_s == batch * fresh.timing.time_s
            for r in result.per_vector:
                assert r.timing.time_s == fresh.timing.time_s
                assert r.timing.components == fresh.timing.components
                assert r.counters == fresh.counters
                assert (r.launch, r.traits, r.profile, r.accum_bytes) == (
                    fresh.launch, fresh.traits, fresh.profile,
                    fresh.accum_bytes)

    def test_scalar_kernel_without_spmm_model(self, rng):
        m = make_random_csr(rng, n_rows=40, n_cols=20)
        vectors = _weights(rng, 20, 4)
        fresh = ScalarCSRKernel().run(m, vectors[0])
        for _ in range(2):
            result = run_multi_spmv(ScalarCSRKernel(), m, vectors)
            assert result.unbatched_time_s == 4 * fresh.timing.time_s
            assert result.batched_time_s == (
                4 * fresh.timing.time_s - 3 * KERNEL_LAUNCH_OVERHEAD_S)
            for b, r in enumerate(result.per_vector):
                assert r.timing.time_s == fresh.timing.time_s
                np.testing.assert_array_equal(
                    r.y, ScalarCSRKernel().run(m, vectors[b]).y)


class TestExecuteOnce:
    def _count(self, monkeypatch, module, name):
        calls = []
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.mark.parametrize("batch", [1, 5])
    def test_one_executor_call_and_no_kernel_run(self, rng, monkeypatch,
                                                 batch):
        m = make_random_csr(rng, n_rows=50, n_cols=20).astype(np.float16)
        vectors = _weights(rng, 20, batch)
        single = self._count(monkeypatch, batched, "execute_plan")
        multi = self._count(monkeypatch, batched, "execute_plan_multi")
        runs = []
        monkeypatch.setattr(csr_vector.VectorCSRKernel, "run",
                            lambda *a, **k: runs.append(1))
        for _ in range(2):  # cold, then warm
            result = run_multi_spmv(HalfDoubleKernel(), m, vectors)
        assert runs == []
        assert len(single) + len(multi) == 2
        assert (single if batch == 1 else multi) == (
            ["execute_plan" if batch == 1 else "execute_plan_multi"] * 2)
        for b, w in enumerate(vectors):
            np.testing.assert_array_equal(
                result.doses[b], HalfDoubleKernel().evaluate(m, w))

    def test_warm_batch_makes_no_gather_traffic_call(self, rng,
                                                     monkeypatch):
        master = make_random_csr(rng, n_rows=60, n_cols=25)
        vectors = _weights(rng, 25, 8)
        gathers = self._count(monkeypatch, csr_vector, "gather_traffic")
        run_multi_spmv(make_kernel("half_double"),
                       convert_for_kernel(master, "half_double"), vectors)
        assert gathers  # the cold batch priced
        gathers.clear()
        run_multi_spmv(make_kernel("half_double"),
                       convert_for_kernel(master, "half_double"), vectors)
        assert gathers == []


class TestObservability:
    def test_one_launch_per_batch_with_batch_work(self, rng):
        m = make_random_csr(rng, n_rows=50, n_cols=20).astype(np.float16)
        kernel = HalfDoubleKernel()
        spmm = kernel.model_timing(m, A100, batch=4)
        for _ in range(2):  # cold, then warm
            launches = _counter("kernel.launches")
            flops = _counter("kernel.flops_modeled")
            dram = _counter("kernel.bytes_modeled")
            run_multi_spmv(kernel, m, _weights(rng, 20, 4))
            assert _counter("kernel.launches") == launches + 1
            assert _counter("kernel.flops_modeled") == (
                flops + spmm.counters.flops)
            assert _counter("kernel.bytes_modeled") == (
                dram + spmm.counters.dram_bytes)

    def test_results_do_not_share_mutable_counters(self, rng):
        m = make_random_csr(rng, n_rows=50, n_cols=20).astype(np.float16)
        vectors = _weights(rng, 20, 3)
        first = run_multi_spmv(HalfDoubleKernel(), m, vectors)
        flops = first.per_vector[1].counters.flops
        first.per_vector[0].counters.flops = -1.0
        first.per_vector[0].timing.components.clear()
        assert first.per_vector[0].timing.counters is (
            first.per_vector[0].counters)
        assert first.per_vector[1].counters.flops == flops
        again = run_multi_spmv(HalfDoubleKernel(), m, vectors)
        for r in again.per_vector:
            assert r.counters.flops == flops
            assert r.timing.components


class TestEvaluate:
    @pytest.mark.parametrize("name", [
        "half_double", "single", "scalar_csr", "ellpack_half_double",
    ])
    def test_equals_run_y(self, rng, name):
        master = make_random_csr(rng, n_rows=45, n_cols=18)
        m = convert_for_kernel(master, name)
        w = rng.standard_normal(18)
        kernel = make_kernel(name)
        y = kernel.evaluate(m, w)
        assert y.dtype == np.float64
        np.testing.assert_array_equal(y, kernel.run(m, w).y)

    def test_books_no_launch(self, rng):
        m = make_random_csr(rng, n_rows=45, n_cols=18).astype(np.float16)
        launches = _counter("kernel.launches")
        HalfDoubleKernel().evaluate(m, np.ones(18))
        assert _counter("kernel.launches") == launches
