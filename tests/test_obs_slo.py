"""Per-model SLO evaluation on a virtual clock.

The monitor is driven with hand-built metrics snapshots and a plain
callable timebase, so every window edge, status transition and gauge
write is deterministic — no gateway, no threads.
"""

from __future__ import annotations

import pytest

from repro.obs import (
    BREACHED,
    DEGRADED,
    HEALTHY,
    STATUS_CODES,
    MetricsRegistry,
    SLOConfig,
    SLOMonitor,
)
from repro.obs.slo import DEGRADED_FRACTION


class _Feed:
    """A mutable metrics snapshot + clock the tests steer directly."""

    def __init__(self) -> None:
        self.t = 0.0
        self.snap: dict[str, object] = {}

    def now(self) -> float:
        return self.t

    def set(self, model, *, accepted=0, shed=0, completed=0, failed=0,
            latency=()):
        counts: dict[float, int] = {}
        for ms in latency:
            counts[float(ms)] = counts.get(float(ms), 0) + 1
        self.snap.update({
            f"gateway.{model}.accepted": accepted,
            f"gateway.{model}.shed": shed,
            f"gateway.{model}.completed": completed,
            f"gateway.{model}.failed": failed,
            f"gateway.{model}.latency_ms": {
                "count": len(tuple(latency)),
                "total": float(sum(latency)),
                "min": min(latency, default=0.0),
                "max": max(latency, default=0.0),
                "counts": counts,
            },
        })

    def metrics(self) -> dict[str, object]:
        return dict(self.snap)


def _monitor(config, registry=None):
    feed = _Feed()
    monitor = SLOMonitor(
        {"m": config}, metrics_fn=feed.metrics, registry=registry,
        now=feed.now,
    )
    return monitor, feed


# ------------------------------------------------------------ configuration
def test_config_validation():
    SLOConfig(target_p95_ms=10.0).validate()  # fine
    with pytest.raises(ValueError):
        SLOConfig(window_s=0.0).validate()
    with pytest.raises(ValueError):
        SLOConfig(target_p95_ms=-1.0).validate()
    with pytest.raises(ValueError):
        SLOConfig(error_budget_pct=101.0).validate()
    assert 0.0 < DEGRADED_FRACTION <= 1.0  # the degraded band is inside
    with pytest.raises(ValueError):
        # a hit-rate objective is meaningless without a deadline
        SLOConfig(deadline_hit_rate=0.99).validate()
    SLOConfig(deadline_hit_rate=0.99, deadline_ms=5.0).validate()


def test_monitor_requires_models_and_validates_configs():
    with pytest.raises(ValueError):
        SLOMonitor({}, metrics_fn=dict)
    with pytest.raises(ValueError):
        SLOMonitor(
            {"m": SLOConfig(target_p95_ms=-1.0)}, metrics_fn=dict
        )


def test_no_config_is_always_healthy():
    feed = _Feed()
    monitor = SLOMonitor({"m": None}, metrics_fn=feed.metrics, now=feed.now)
    health = monitor.evaluate()["m"]
    assert health.status == HEALTHY
    assert health.reasons == ("no slo configured",)


# --------------------------------------------------------------- judgements
def test_p95_breach_and_recovery():
    monitor, feed = _monitor(SLOConfig(target_p95_ms=10.0, window_s=60.0))
    feed.t = 1.0
    feed.set("m", accepted=3, completed=3, latency=[50.0, 50.0, 50.0])
    health = monitor.evaluate()["m"]
    assert health.status == BREACHED
    assert health.p95_ms == 50.0
    assert health.window_completed == 3
    assert any("p95" in r for r in health.reasons)

    # A window later the slow requests have aged out and fast ones
    # replaced them: the same cumulative counters now judge healthy.
    feed.t = 100.0
    feed.set("m", accepted=6, completed=6,
             latency=[50.0, 50.0, 50.0, 1.0, 1.0, 1.0])
    health = monitor.evaluate()["m"]
    assert health.status == HEALTHY
    assert health.p95_ms == 1.0
    assert health.reasons == ("ok",)


def test_degraded_band_before_breach():
    monitor, feed = _monitor(SLOConfig(target_p95_ms=10.0))
    feed.t = 1.0
    latency = (DEGRADED_FRACTION * 10.0 + 10.0) / 2  # inside the band
    feed.set("m", accepted=1, completed=1, latency=[latency])
    health = monitor.evaluate()["m"]
    assert health.status == DEGRADED
    assert any("within" in r for r in health.reasons)


def test_error_budget_breach():
    monitor, feed = _monitor(SLOConfig(error_budget_pct=10.0))
    feed.t = 1.0
    feed.set("m", accepted=8, shed=2, completed=8)  # 20% > 10%
    health = monitor.evaluate()["m"]
    assert health.status == BREACHED
    assert health.error_rate == pytest.approx(0.2)
    assert any("budget" in r for r in health.reasons)


def test_deadline_hit_rate_breach():
    monitor, feed = _monitor(
        SLOConfig(deadline_ms=5.0, deadline_hit_rate=0.9)
    )
    feed.t = 1.0
    feed.set("m", accepted=4, completed=4, latency=[1.0, 2.0, 8.0, 9.0])
    health = monitor.evaluate()["m"]
    assert health.status == BREACHED
    assert health.deadline_hit_rate == pytest.approx(0.5)


def test_empty_window_is_vacuously_healthy():
    monitor, feed = _monitor(
        SLOConfig(target_p95_ms=1.0, error_budget_pct=0.0,
                  deadline_ms=1.0, deadline_hit_rate=1.0)
    )
    feed.t = 1.0
    health = monitor.evaluate()["m"]
    assert health.status == HEALTHY
    assert health.p95_ms == 0.0
    assert health.deadline_hit_rate == 1.0
    assert health.window_completed == 0


# ------------------------------------------------------------------ windows
def test_window_baseline_is_newest_old_enough_sample():
    monitor, feed = _monitor(SLOConfig(target_p95_ms=10.0, window_s=10.0))
    feed.set("m", accepted=1, completed=1, latency=[100.0])
    feed.t = 1.0
    assert monitor.evaluate()["m"].status == BREACHED  # slow req in window

    feed.t = 50.0  # the t=1 sample is now the baseline; no new traffic
    health = monitor.evaluate()["m"]
    assert health.status == HEALTHY  # the slow request aged out
    assert health.window_completed == 0


def test_samples_prune_but_keep_active_baseline():
    monitor, feed = _monitor(SLOConfig(target_p95_ms=10.0, window_s=5.0))
    for i in range(50):
        feed.t = float(i)
        feed.set("m", accepted=i, completed=i, latency=[1.0] * i)
        monitor.evaluate()
    # pruning bounds the deque to ~the window span, not 50 samples
    assert len(monitor._samples) <= 10
    health = monitor.evaluate()["m"]
    # the retained baseline still yields a sane per-window figure
    assert 0 < health.window_completed <= 10


# ------------------------------------------------------------------- gauges
def test_slo_gauges_mirror_the_verdict():
    registry = MetricsRegistry()
    monitor, feed = _monitor(
        SLOConfig(target_p95_ms=10.0), registry=registry
    )
    feed.t = 1.0
    feed.set("m", accepted=2, completed=2, latency=[50.0, 50.0])
    health = monitor.evaluate()["m"]
    snap = registry.snapshot()
    assert snap["slo.m.status"] == STATUS_CODES[BREACHED]
    assert snap["slo.m.p95_ms"] == health.p95_ms == 50.0
    assert snap["slo.m.error_rate"] == 0.0
    assert snap["slo.m.deadline_hit_rate"] == 1.0

