"""Tests for multi-threaded BGEMM and the threaded latency model."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.bgemm import bgemm_blocked
from repro.core.bitpack import pack_bits
from repro.core.threading import bgemm_parallel
from repro.hw.device import DeviceModel
from repro.hw.latency import LatencyBreakdown


def _operands(rng, m, n, depth):
    a = pack_bits(rng.choice([-1.0, 1.0], (m, depth))).bits
    b = pack_bits(rng.choice([-1.0, 1.0], (n, depth))).bits
    return a, b


class TestParallelBgemm:
    @given(
        m=st.integers(1, 700),
        threads=st.integers(1, 4),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_bit_identical_to_blocked(self, m, threads, seed):
        rng = np.random.default_rng(seed)
        a, b = _operands(rng, m, 8, 96)
        expected = bgemm_blocked(a, b, 96)
        got = bgemm_parallel(a, b, 96, num_threads=threads, tile_m=128)
        assert np.array_equal(got, expected)

    def test_rejects_bad_thread_count(self, rng):
        a, b = _operands(rng, 8, 8, 64)
        with pytest.raises(ValueError):
            bgemm_parallel(a, b, 64, num_threads=0)

    def test_large_problem(self, rng):
        a, b = _operands(rng, 1500, 32, 200)
        assert np.array_equal(
            bgemm_parallel(a, b, 200, num_threads=3),
            bgemm_blocked(a, b, 200),
        )

    @pytest.mark.parametrize("num_threads", [2, 4])
    @pytest.mark.parametrize("kw", [{"tile_m": 0}, {"tile_n": -3}])
    def test_rejects_bad_tiles_on_the_parallel_branch(
        self, rng, num_threads, kw
    ):
        # Regression: tile validation used to run only on the serial
        # (num_threads=1) branch, so a non-positive tile on the threaded
        # path skipped every tile loop and returned uninitialized output.
        a, b = _operands(rng, 64, 8, 64)
        with pytest.raises(ValueError):
            bgemm_parallel(a, b, 64, num_threads=num_threads, **kw)

    def test_k_word_blocking_under_threads(self, rng):
        a, b = _operands(rng, 300, 16, 300)
        assert np.array_equal(
            bgemm_parallel(a, b, 300, num_threads=2, tile_k_words=2),
            bgemm_blocked(a, b, 300),
        )


class TestThreadedLatencyModel:
    def test_single_thread_unchanged(self):
        b = LatencyBreakdown(overhead_s=1.0, accumulation_s=4.0)
        assert b.with_threads(1) is b

    def test_compute_scales_overhead_does_not(self):
        b = LatencyBreakdown(overhead_s=1.0, accumulation_s=8.5)
        t = b.with_threads(2)
        assert t.overhead_s == 1.0
        assert t.accumulation_s < 8.5

    def test_memory_bound_scales_worse(self):
        compute = LatencyBreakdown(accumulation_s=10.0, memory_bound=False)
        memory = LatencyBreakdown(accumulation_s=10.0, memory_bound=True)
        assert compute.with_threads(4).accumulation_s < memory.with_threads(4).accumulation_s

    def test_rejects_bad_threads(self):
        with pytest.raises(ValueError):
            LatencyBreakdown().with_threads(0)

    def test_graph_latency_improves_with_threads(self):
        from repro.converter import convert
        from repro.hw.latency import graph_latency
        from repro.zoo import quicknet

        model = convert(quicknet("small", input_size=64), in_place=True)
        dev = DeviceModel.rpi4b()
        t1 = graph_latency(dev, model.graph, threads=1).total_ms
        t2 = graph_latency(dev, model.graph, threads=2).total_ms
        t4 = graph_latency(dev, model.graph, threads=4).total_ms
        assert t4 < t2 < t1
        assert t1 / t4 < 4.0  # sub-linear: Amdahl + bandwidth saturation


class TestThreadingExperiment:
    def test_lce_scales_dabnn_does_not(self):
        from repro.experiments.threading import run

        results = {(r.framework, r.threads): r.latency_ms for r in run("rpi4b")}
        assert results[("lce", 4)] < results[("lce", 1)]
        assert results[("dabnn", 4)] == results[("dabnn", 1)]
        # single-threaded LCE already beats DaBNN; threading widens the gap
        assert results[("lce", 1)] < results[("dabnn", 1)]
