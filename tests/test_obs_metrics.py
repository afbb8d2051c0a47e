"""Unit tests for reading the runtime's counters (`repro.obs.metrics`).

There is no registry: an engine keeps its counters under its plan lock
and a gateway model server under its server lock.  Covers what those
counters report (fields, snapshot keys and shapes), the helpers that
read them (3-significant-digit latency buckets, histogram summaries,
nearest-rank quantiles, text) and — the regression this layer exists
for — snapshot consistency under concurrent submission.
"""

from __future__ import annotations

import dataclasses
import math
import threading

import numpy as np
import pytest

from repro.graph.builder import GraphBuilder
from repro.obs.metrics import (
    format_snapshot,
    quantile_from_counts,
    significant,
    summarize,
)
from repro.runtime import Engine
from repro.runtime.engine import EngineStats
from repro.serving import Gateway, GatewayConfig
from repro.serving.gateway import GatewayStats

RESULT_TIMEOUT_S = 30.0


def _observe(counts, value):
    counts[value] = counts.get(value, 0) + 1


class TestInstruments:
    """The plain counters and reads that replaced counter, gauge and
    histogram objects."""

    def test_counter(self, rng):
        x = rng.standard_normal((1, 6, 6, 3)).astype(np.float32)
        with Engine(_tiny_net(rng), max_batch_size=4) as engine:
            engine.run(x)
            engine.run_many([x, x, x])
            s = engine.stats()
        assert (s.requests, s.samples, s.batches) == (4, 4, 2)
        assert s.batch_histogram == {1: 1, 3: 1}
        assert (s.plan_cache_hits, s.plan_cache_misses) == (0, 2)
        assert s.busy_s > 0

    def test_callback_gauge(self, rng):
        """What callback gauges used to read is read at ``stats()`` time."""
        with Engine(_tiny_net(rng)) as engine:
            before = engine.stats()
            plan = engine.plan(1)
            after = engine.stats()
        assert (before.nodes, before.fused_blocks, before.workspace_bytes) == (0, 0, 0)
        assert after.nodes == len(plan.nodes)
        assert after.graph_nodes == len(engine.graph.nodes)
        assert after.workspace_bytes == plan.workspace.nbytes
        assert after.param_cache_misses > 0

    def test_histogram(self):
        counts: dict = {}
        for v in (1, 4, 4, 8):
            _observe(counts, v)
        assert summarize(counts) == {
            "count": 4, "total": 17, "min": 1, "max": 8,
            "counts": {1: 1, 4: 2, 8: 1},
        }
        assert summarize({}) == {
            "count": 0, "total": 0, "min": None, "max": None, "counts": {},
        }


class TestRegistry:
    """What the deleted registry guaranteed — one snapshot shape, a
    batch's updates landing together — the owners now keep themselves."""

    def test_snapshot_shape(self, rng):
        x = rng.standard_normal((1, 6, 6, 3)).astype(np.float32)
        graph = _tiny_net(rng)
        with Gateway({"a": graph, "b": graph}, GatewayConfig(deadline_ms=0.0)) as gw:
            gw.submit("a", x).result(RESULT_TIMEOUT_S)
            gw.submit("a", x).result(RESULT_TIMEOUT_S)
            snap = gw.metrics_snapshot()
        assert snap["gateway.a.accepted"] == snap["gateway.a.completed"] == 2
        assert snap["gateway.b.accepted"] == snap["gateway.b.completed"] == 0
        for name in ("gateway.a.latency_ms", "gateway.a.batch_size",
                     "gateway.latency_ms", "gateway.batch_size"):
            assert snap[name] == summarize(snap[name]["counts"]), name
        assert snap["gateway.a.batch_size"]["counts"] == {1: 2}
        assert snap["gateway.b.latency_ms"] == summarize({})

    def test_grouped_updates_are_atomic(self, rng):
        """A batch's count, size, completions and latencies are booked in
        one server-lock hold: no snapshot sees half of a batch."""
        x = rng.standard_normal((1, 6, 6, 3)).astype(np.float32)
        stop = threading.Event()
        bad: list[dict] = []
        with Gateway({"m": _tiny_net(rng)}, GatewayConfig(deadline_ms=0.0)) as gw:

            def reader():
                while not stop.is_set():
                    snap = gw.metrics_snapshot()
                    sizes = snap["gateway.m.batch_size"]
                    completed = snap["gateway.m.completed"]
                    if (
                        snap["gateway.m.batches"] != sizes["count"]
                        or completed != sizes["total"]
                        or completed != snap["gateway.m.latency_ms"]["count"]
                        or completed != snap["gateway.m.queue_wait_ms"]["count"]
                    ):
                        bad.append(snap)

            watch = threading.Thread(target=reader)
            watch.start()
            try:
                for _ in range(60):
                    futures = [gw.submit("m", x) for _ in range(3)]
                    for f in futures:
                        f.result(RESULT_TIMEOUT_S)
            finally:
                stop.set()
                watch.join()
        assert not bad, f"snapshot observed a half-counted batch: {bad[0]}"


class TestSnapshotKeys:
    def test_gateway_snapshot_keys_and_stats_fields(self, rng):
        """The names ``bench/``, ``cli serve`` and ``cli stats`` read: the
        snapshot's key set and histogram shape for a two-model gateway
        that has shed an unknown-model request, and the stats fields."""
        x = rng.standard_normal((1, 6, 6, 3)).astype(np.float32)
        graph = _tiny_net(rng)
        with Gateway({"a": graph, "b": graph}, GatewayConfig(deadline_ms=0.0)) as gw:
            gw.submit("a", x).result(RESULT_TIMEOUT_S)
            gw.submit("nope", x).result(RESULT_TIMEOUT_S)
            snap = gw.metrics_snapshot()
        histograms = ("batch_size", "latency_ms", "queue_wait_ms")
        counters = ("accepted", "shed", "completed", "failed", "batches")
        per_model = (*counters, *histograms,
                     "replica_failures", "queue_depth", "replicas_healthy")
        assert set(snap) == {
            *(f"gateway.{m}.{key}" for m in ("a", "b") for key in per_model),
            *(f"gateway.{key}" for key in (*counters, *histograms)),
            "gateway.submitted", "gateway.shed_unknown_model",
            "obs.trace.dropped",
        }
        for name, value in snap.items():
            if name.rsplit(".", 1)[1] in histograms:
                assert set(value) == {"count", "total", "min", "max", "counts"}
            else:
                assert isinstance(value, int), name
        assert snap["gateway.shed_unknown_model"] == snap["gateway.shed"] == 1
        assert snap["gateway.submitted"] == 2

        assert [f.name for f in dataclasses.fields(EngineStats)] == [
            "requests", "samples", "batches", "batch_histogram",
            "plan_cache_hits", "plan_cache_misses", "param_cache_hits",
            "param_cache_misses", "busy_s", "workspace_bytes", "verified",
            "graph_nodes", "nodes", "fused_blocks",
        ]
        assert [f.name for f in dataclasses.fields(GatewayStats)] == [
            "submitted", "accepted", "shed", "completed", "failed", "batches",
            "batch_histogram", "p50_ms", "p95_ms", "p99_ms", "queue_depth",
            "shed_by_model", "replicas_healthy", "verified",
        ]


class TestSignificant:
    def test_three_significant_digits(self):
        assert significant(1234.5) == 1230.0
        assert significant(0.0123456) == 0.0123
        assert significant(2.345678) == 2.35
        assert significant(999.6) == 1000.0
        assert significant(200.0) == 200.0
        assert significant(0.0) == 0.0
        assert significant(math.inf) == math.inf

    def test_bounded_buckets_and_quantile_error(self):
        """100k distinct latencies land in at most 900 buckets per decade,
        and p50/p95/p99 read off them are within 0.5 % of the exact
        nearest-rank quantiles."""
        values = np.random.default_rng(0).lognormal(1.0, 1.0, 100_000)
        assert len(np.unique(values)) == values.size
        counts: dict = {}
        for v in values:
            _observe(counts, significant(float(v)))
        per_decade: dict = {}
        for key in counts:
            assert significant(key) == key
            _observe(per_decade, math.floor(math.log10(key)))
        assert max(per_decade.values()) <= 900
        assert len(counts) <= 900 * len(per_decade)
        exact = np.sort(values)
        for q in (0.50, 0.95, 0.99):
            want = exact[math.ceil(q * values.size) - 1]
            got = quantile_from_counts(counts, q)
            assert abs(got - want) <= 0.005 * want, (q, got, want)


def _quantile(observations, q):
    """``quantile_from_counts`` over a histogram's counts, the way
    ``Gateway.stats`` and ``cli serve --slo-p95-ms`` read their p95."""
    counts: dict = {}
    for v in observations:
        _observe(counts, v)
    return quantile_from_counts(counts, q)


class TestHistogramQuantile:
    """Edge cases of the nearest-rank quantile the gateway's p95 leans on."""

    def test_empty_histogram_is_zero(self):
        for q in (0.0, 0.95, 1.0):
            assert _quantile((), q) == 0.0

    def test_single_bucket_mass_always_answers_that_bucket(self):
        for q in (0.0, 0.01, 0.5, 0.95, 1.0):
            assert _quantile([7.5] * 100, q) == 7.5

    def test_all_mass_in_the_top_bucket(self):
        """One light low bucket, everything else in the highest bucket:
        every interesting quantile lands on the top value (the fallback
        return path when the rank walks past the last bucket)."""
        observations = [1.0] + [1000.0] * 99
        assert _quantile(observations, 0.01) == 1.0
        assert _quantile(observations, 0.02) == 1000.0
        assert _quantile(observations, 0.95) == 1000.0
        assert _quantile(observations, 1.0) == 1000.0

    def test_quantile_bounds_are_enforced(self):
        with pytest.raises(ValueError):
            _quantile([1], -0.1)
        with pytest.raises(ValueError):
            _quantile([1], 1.1)

    def test_quantile_from_counts_accepts_stringified_keys(self):
        # JSON round-trips stringify bucket keys; the shared helper must
        # still sort numerically, not lexically
        counts = {"9.0": 5, "10.0": 5, "100.0": 1}
        assert quantile_from_counts(counts, 0.5) == 10.0
        assert quantile_from_counts(counts, 1.0) == 100.0

    def test_monotone_under_concurrent_grouped_updates(self):
        """p50 <= p95 <= p99 holds in every snapshot while writers hammer
        one histogram, each group of updates under one lock hold as the
        gateway books a batch."""
        lock = threading.Lock()
        latency: dict = {}
        stop = threading.Event()
        bad: list[tuple] = []

        def writer(values):
            while not stop.is_set():
                with lock:
                    for v in values:
                        _observe(latency, v)

        def reader():
            for _ in range(300):
                with lock:
                    counts = dict(latency)
                p50 = quantile_from_counts(counts, 0.5)
                p95 = quantile_from_counts(counts, 0.95)
                p99 = quantile_from_counts(counts, 0.99)
                if not p50 <= p95 <= p99:
                    bad.append((p50, p95, p99))

        writers = [
            threading.Thread(target=writer, args=(vals,))
            for vals in ((1.0, 2.0), (5.0, 50.0), (100.0,))
        ]
        for w in writers:
            w.start()
        reader()
        stop.set()
        for w in writers:
            w.join()
        assert not bad, f"non-monotone percentiles observed: {bad[0]}"


class TestFormatSnapshot:
    def test_alignment_and_rendering(self):
        snap = {
            "long.counter.name": 3,
            "g": 0.125,
            "h": {"count": 2, "total": 6, "min": 2, "max": 4,
                  "counts": {4: 1, 2: 1}},
        }
        text = format_snapshot(snap, indent="  ")
        lines = text.splitlines()
        assert lines[0].startswith("  g")
        assert "count=2 mean=3.00 min=2 max=4 counts={2: 1, 4: 1}" in text
        assert "long.counter.name  3" in text

    def test_empty(self):
        assert format_snapshot({}) == ""


def _tiny_net(rng):
    b = GraphBuilder((1, 6, 6, 3))
    x = b.conv2d(b.input, rng.standard_normal((3, 3, 3, 4)).astype(np.float32))
    x = b.relu(x)
    x = b.global_avgpool(x)
    return b.finish(x)


class TestEngineStatsConsistency:
    """stats() once read counters without a common lock, so a concurrent
    reader could observe a batch counted in ``batches`` but missing from
    the histogram.  Every counter lives under the plan lock, a batch is
    counted in one hold of it and a snapshot reads in one hold."""

    def test_engine_metrics_present(self, rng):
        x = rng.standard_normal((1, 6, 6, 3)).astype(np.float32)
        with Engine(_tiny_net(rng)) as engine:
            engine.run(x)
            stats = dataclasses.asdict(engine.stats())
        assert stats["requests"] == stats["samples"] == stats["batches"] == 1
        assert stats["batch_histogram"] == {1: 1}
        assert stats["plan_cache_misses"] == 1
        assert stats["param_cache_misses"] > 0
        assert stats["workspace_bytes"] > 0
        assert stats["verified"] is True

    def test_stats_atomic_under_concurrent_submit(self, rng):
        x = rng.standard_normal((1, 6, 6, 3)).astype(np.float32)
        n_threads, per_thread = 4, 25
        violations: list[str] = []
        stop = threading.Event()

        with Engine(_tiny_net(rng), max_batch_size=4) as engine:

            def reader():
                while not stop.is_set():
                    s = engine.stats()
                    hist_batches = sum(s.batch_histogram.values())
                    hist_samples = sum(
                        k * v for k, v in s.batch_histogram.items()
                    )
                    if hist_batches != s.batches:
                        violations.append(
                            f"sum(hist)={hist_batches} != batches={s.batches}"
                        )
                    if hist_samples != s.samples:
                        violations.append(
                            f"hist samples={hist_samples} != {s.samples}"
                        )

            def submitter():
                for _ in range(per_thread // 5):
                    engine.run_many([x] * 5)

            watch = threading.Thread(target=reader)
            watch.start()
            workers = [
                threading.Thread(target=submitter) for _ in range(n_threads)
            ]
            for w in workers:
                w.start()
            for w in workers:
                w.join()
            stop.set()
            watch.join()

            final = engine.stats()
        assert not violations, violations[:3]
        assert final.requests == n_threads * per_thread
        assert final.samples == n_threads * per_thread
        assert sum(final.batch_histogram.values()) == final.batches
        assert final.verified is True
