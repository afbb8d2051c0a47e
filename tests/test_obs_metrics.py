"""Unit tests for the unified metrics registry (`repro.obs.metrics`).

Covers the instrument types, registry semantics (get-or-create, type
clashes, snapshot) and — the regression this layer exists for —
EngineStats snapshot consistency under concurrent submission.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.graph.builder import GraphBuilder
from repro.obs.metrics import (
    MetricsRegistry,
    format_snapshot,
    quantile_from_counts,
)
from repro.runtime import Engine


class TestInstruments:
    def test_counter(self):
        reg = MetricsRegistry()
        c = reg.counter("c")
        c.inc()
        c.add(2.5)
        assert reg.snapshot()["c"] == 3.5
        with pytest.raises(ValueError, match="negative"):
            c.add(-1)

    def test_callback_gauge(self):
        state = {"v": 41}
        reg = MetricsRegistry()
        g = reg.gauge("g", lambda: state["v"])
        state["v"] = 42
        assert g.value == 42 and reg.snapshot()["g"] == 42

    def test_callback_gauge_reregistration(self):
        reg = MetricsRegistry()
        fn = lambda: 1  # noqa: E731
        assert reg.gauge("g", fn) is reg.gauge("g", fn)  # same fn: fine
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("g", lambda: 2)

    def test_histogram(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        for v in (1, 4, 4, 8):
            h.observe(v)
        assert reg.snapshot()["h"] == {
            "count": 4, "total": 17, "min": 1, "max": 8,
            "counts": {1: 1, 4: 2, 8: 1},
        }


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        assert reg.histogram("h") is reg.histogram("h")

    def test_type_clash_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError, match="Counter"):
            reg.gauge("x", lambda: 0)
        with pytest.raises(ValueError, match="Counter"):
            reg.histogram("x")

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("c").add(3)
        reg.gauge("cb", lambda: 9)
        reg.histogram("h").observe(2)
        snap = reg.snapshot()
        assert snap == {
            "c": 3,
            "cb": 9,
            "h": {"count": 1, "total": 2, "min": 2, "max": 2, "counts": {2: 1}},
        }

    def test_grouped_updates_are_atomic(self):
        """Updates under ``with registry.lock():`` land in one snapshot."""
        reg = MetricsRegistry()
        c = reg.counter("batches")
        h = reg.histogram("sizes")
        stop = threading.Event()
        bad: list[dict] = []

        def writer():
            while not stop.is_set():
                with reg.lock():
                    c.inc()
                    h.observe(4)

        def reader():
            for _ in range(300):
                snap = reg.snapshot()
                if snap["batches"] != snap["sizes"]["count"]:
                    bad.append(snap)

        w = threading.Thread(target=writer)
        w.start()
        reader()
        stop.set()
        w.join()
        assert not bad, f"snapshot observed a half-counted batch: {bad[0]}"


def _quantile(observations, q):
    """``quantile_from_counts`` over a histogram's snapshot, the way
    ``Gateway.stats`` and ``cli serve --slo-p95-ms`` read their p95."""
    reg = MetricsRegistry()
    h = reg.histogram("h")
    for v in observations:
        h.observe(v)
    return quantile_from_counts(reg.snapshot()["h"]["counts"], q)


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
        the histogram through grouped updates."""
        reg = MetricsRegistry()
        h = reg.histogram("latency")
        stop = threading.Event()
        bad: list[tuple] = []

        def writer(values):
            while not stop.is_set():
                with reg.lock():
                    for v in values:
                        h.observe(v)

        def reader():
            for _ in range(300):
                counts = reg.snapshot()["latency"]["counts"]
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
    """Satellite bugfix: stats() used to read counters without a common
    lock, so a concurrent reader could observe a batch counted in
    ``batches`` but missing from the histogram.  Every counter now lives
    in the engine's registry and snapshots take one lock hold."""

    def test_engine_metrics_present(self, rng):
        x = rng.standard_normal((1, 6, 6, 3)).astype(np.float32)
        with Engine(_tiny_net(rng)) as engine:
            engine.run(x)
            snap = engine.metrics.snapshot()
        for name in (
            "engine.requests", "engine.samples", "engine.batches",
            "engine.batch_size", "engine.busy_s", "engine.verified",
            "plancache.hits", "plancache.misses",
            "paramcache.hits", "paramcache.misses",
            "workspace.bytes_reserved",
        ):
            assert name in snap, name

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
