"""Memory-transaction model: coalescing, gathers, scatters, L2 capacity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.device import A100, V100
from repro.gpu.memory import (
    ceil_div,
    contiguous_stream_bytes,
    gather_traffic,
    output_write_bytes,
    scatter_traffic,
    segmented_stream_bytes,
    touched_sectors,
)


class TestCeilDiv:
    def test_exact(self):
        assert ceil_div(64, 32) == 2

    def test_round_up(self):
        assert ceil_div(65, 32) == 3


class TestContiguousStream:
    def test_sector_rounding(self):
        # 10 half values = 20 bytes -> one 32-byte sector.
        assert contiguous_stream_bytes(10, 2) == 32

    def test_exact_multiple(self):
        assert contiguous_stream_bytes(16, 2) == 32

    def test_zero(self):
        assert contiguous_stream_bytes(0, 8) == 0

    def test_large_array_close_to_payload(self):
        n = 10**6
        bytes_ = contiguous_stream_bytes(n, 2)
        assert bytes_ == pytest.approx(2 * n, rel=1e-4)


class TestSegmentedStream:
    def test_slack_added_per_segment(self):
        one = contiguous_stream_bytes(100, 4)
        many = segmented_stream_bytes(np.full(10, 10), 4)
        assert many > one

    def test_empty_segments_ignored(self):
        with_empty = segmented_stream_bytes(np.array([5, 0, 5]), 4)
        without = segmented_stream_bytes(np.array([5, 5]), 4)
        assert with_empty == without

    def test_all_empty(self):
        assert segmented_stream_bytes(np.zeros(4, np.int64), 4) == 0


class TestGatherTraffic:
    def test_fits_l2_compulsory_only(self):
        # Vector footprint far below 40 MB: DRAM sees it once.
        indices = np.arange(1000).repeat(50)
        g = gather_traffic(indices, 8, 1000, A100)
        assert g.refetch_dram_bytes == 0
        assert g.compulsory_dram_bytes == pytest.approx(8 * 1000, rel=0.1)

    def test_l2_traffic_counts_every_access(self):
        indices = np.arange(100).repeat(7)
        g = gather_traffic(indices, 8, 100, A100)
        assert g.l2_bytes == 700 * 8

    def test_exceeds_l2_refetches(self):
        # 8-byte elements over a footprint ~8x the V100's 6 MB L2.
        n = 6 * 2**20  # elements -> 48 MB footprint
        rng = np.random.default_rng(0)
        indices = rng.integers(0, n, size=2_000_000)
        g = gather_traffic(indices, 8, n, V100, accesses=10**7)
        assert g.refetch_dram_bytes > 0
        assert g.compulsory_dram_bytes > V100.l2_bytes

    def test_empty(self):
        g = gather_traffic(np.array([], np.int64), 8, 100, A100)
        assert g.dram_bytes == 0 and g.l2_bytes == 0

    def test_accesses_override(self):
        sample = np.arange(10)
        g = gather_traffic(sample, 8, 10, A100, accesses=1000)
        assert g.l2_bytes == 8000

    def test_paper_8_bytes_per_column(self):
        # The analytic model's 8*nc term: each input-vector entry read
        # from DRAM once.
        n_cols = 68000
        indices = np.arange(n_cols)
        g = gather_traffic(indices, 8, n_cols, A100)
        assert g.compulsory_dram_bytes == pytest.approx(8 * n_cols, rel=0.01)


class TestScatterTraffic:
    def test_footprint_written_once(self):
        indices = np.arange(1000).repeat(100)
        s = scatter_traffic(indices, 8, 1000, A100, read_modify_write=True)
        assert s.dram_bytes == pytest.approx(8 * 1000, rel=0.1)

    def test_rmw_doubles_l2(self):
        indices = np.arange(100)
        plain = scatter_traffic(indices, 8, 100, A100)
        rmw = scatter_traffic(indices, 8, 100, A100, read_modify_write=True)
        assert rmw.l2_bytes == 2 * plain.l2_bytes

    def test_atomic_l2_traffic_is_per_access(self):
        # The Figure 5 explanation: baseline atomics bounce in L2, so the
        # L2 traffic vastly exceeds the DRAM footprint.
        indices = np.arange(1000).repeat(1000)
        s = scatter_traffic(indices, 8, 1000, A100, read_modify_write=True)
        assert s.l2_bytes > 100 * s.dram_bytes


class TestOutputWrite:
    def test_paper_8_bytes_per_row(self):
        n_rows = 2_970_000
        assert output_write_bytes(n_rows, 8) == pytest.approx(8 * n_rows, rel=1e-6)


class TestTouchedSectors:
    @settings(max_examples=60, deadline=None)
    @given(
        indices=st.lists(st.integers(min_value=-50, max_value=5000),
                         min_size=1, max_size=300),
        elem_bytes=st.sampled_from([2, 4, 8]),
        sector=st.sampled_from([32, 64]),
    )
    def test_counts_what_unique_counts(self, indices, elem_bytes, sector):
        idx = np.asarray(indices, dtype=np.int64)
        expected = np.unique(idx * elem_bytes // sector).size
        assert touched_sectors(idx, elem_bytes, sector) == expected
        assert touched_sectors(idx.astype(np.int32), elem_bytes,
                               sector) == expected
