"""Tests for the threaded latency model (simulated devices only)."""

from __future__ import annotations

import pytest

from repro.hw.device import DeviceModel
from repro.hw.latency import LatencyBreakdown


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

        model = convert(quicknet("small", input_size=64))
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
