"""Per-model SLO evaluation over rolling windows of the live metrics.

A serving deployment does not want raw counters — it wants the answer
to "is model X meeting its latency and error budget *right now*".
:class:`SLOMonitor` turns the gateway's cumulative ``gateway.<model>.*``
instruments into that answer:

- every :meth:`SLOMonitor.evaluate` takes one registry snapshot,
  retains it as a ``(ts, sample)`` pair, and differences it against the
  newest retained sample at least ``window_s`` old (the whole history
  until a full window has elapsed) — so p95/error-rate/deadline-hit
  figures describe the *recent* window, not the process lifetime;
- time comes from the same ``now`` callable as the gateway's
  :class:`~repro.serving.clock.Clock`, so a FakeClock drives the window
  edges deterministically in tests;
- each model's result is a :class:`ModelHealth` with a status in
  {``healthy``, ``degraded``, ``breached``} plus human-readable
  reasons, and is mirrored into ``slo.<model>.*`` gauges (status is
  encoded 0/1/2) in the metrics snapshot.

``degraded`` is the early-warning band: within :data:`DEGRADED_FRACTION`
of a breach threshold without crossing it.  Models with no configured
SLO always evaluate healthy with the reason ``no slo configured``.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.concurrency.locks import ordered_lock
from repro.obs.metrics import MetricsRegistry, quantile_from_counts

HEALTHY = "healthy"
DEGRADED = "degraded"
BREACHED = "breached"

#: status -> the ``slo.<model>.status`` gauge encoding
STATUS_CODES: dict[str, int] = {HEALTHY: 0, DEGRADED: 1, BREACHED: 2}

#: retained window samples per monitor (a safety cap; pruning normally
#: keeps the deque at the handful of samples one window spans)
MAX_SAMPLES = 4096

#: fraction of a threshold at which status turns ``degraded``
DEGRADED_FRACTION = 0.8


@dataclass(frozen=True)
class SLOConfig:
    """One model's service-level objectives; unset objectives are skipped."""

    #: breach when the window p95 latency exceeds this (ms)
    target_p95_ms: float | None = None
    #: per-request latency deadline used by ``deadline_hit_rate`` (ms)
    deadline_ms: float | None = None
    #: breach when the fraction of completed requests meeting
    #: ``deadline_ms`` falls below this (0..1)
    deadline_hit_rate: float | None = None
    #: breach when (shed+failed)/submitted in the window exceeds this (%)
    error_budget_pct: float | None = None
    #: rolling evaluation window (seconds, on the gateway clock)
    window_s: float = 60.0

    def validate(self) -> None:
        # nan and inf pass every sign test below (they compare false).
        for name in ("window_s", "target_p95_ms", "deadline_ms"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.window_s <= 0:
            raise ValueError(f"window_s must be positive, got {self.window_s}")
        if self.target_p95_ms is not None and self.target_p95_ms <= 0:
            raise ValueError(
                f"target_p95_ms must be positive, got {self.target_p95_ms}"
            )
        if self.error_budget_pct is not None and not (
            0.0 <= self.error_budget_pct <= 100.0
        ):
            raise ValueError(
                f"error_budget_pct must be in [0, 100], "
                f"got {self.error_budget_pct}"
            )
        if self.deadline_hit_rate is not None:
            if not 0.0 < self.deadline_hit_rate <= 1.0:
                raise ValueError(
                    f"deadline_hit_rate must be in (0, 1], "
                    f"got {self.deadline_hit_rate}"
                )
            if self.deadline_ms is None or self.deadline_ms <= 0:
                raise ValueError(
                    "deadline_hit_rate requires a positive deadline_ms"
                )


@dataclass(frozen=True)
class ModelHealth:
    """One model's SLO verdict for the current window."""

    model: str
    status: str
    reasons: tuple[str, ...]
    p95_ms: float
    error_rate: float
    deadline_hit_rate: float
    #: completed requests inside the evaluated window
    window_completed: int
    #: the window the figures describe (seconds)
    window_s: float

    @classmethod
    def unconfigured(cls, model: str) -> "ModelHealth":
        """The verdict for a model with no SLO: healthy, nothing measured."""
        return cls(
            model=model, status=HEALTHY, reasons=("no slo configured",),
            p95_ms=0.0, error_rate=0.0, deadline_hit_rate=1.0,
            window_completed=0, window_s=0.0,
        )


def _counts_delta(
    current: Mapping[Any, int], baseline: Mapping[Any, int]
) -> dict[Any, int]:
    out: dict[Any, int] = {}
    for value, count in current.items():
        delta = count - baseline.get(value, 0)
        if delta > 0:
            out[value] = delta
    return out


class SLOMonitor:
    """Evaluates per-model :class:`SLOConfig` against rolling windows.

    Args:
        configs: ``model -> SLOConfig | None`` — ``None`` means "no SLO
            configured", which always evaluates healthy.
        metrics_fn: returns the metrics snapshot to difference (the
            gateway passes its merged snapshot).  Called *before* the
            monitor's own lock is taken: callback gauges inside the
            snapshot re-enter lower-ranked subsystem locks.
        registry: where ``slo.<model>.*`` gauges are registered
            (optional; evaluation works without it).
        now: the timebase (the gateway clock's ``now``).
    """

    def __init__(
        self,
        configs: Mapping[str, SLOConfig | None],
        *,
        metrics_fn: Callable[[], dict[str, Any]],
        registry: MetricsRegistry | None = None,
        now: Callable[[], float] | None = None,
    ) -> None:
        if not configs:
            raise ValueError("SLOMonitor requires at least one model")
        for name, cfg in configs.items():
            if cfg is not None:
                cfg.validate()
        self._configs: dict[str, SLOConfig | None] = dict(configs)
        self._metrics_fn = metrics_fn
        self._now = now if now is not None else time.perf_counter
        self._lock = ordered_lock("obs.slo")
        self._samples: deque[tuple[float, dict[str, dict[str, Any]]]] = deque(
            maxlen=MAX_SAMPLES
        )
        # Seed a zero baseline at monitor birth: the first evaluation
        # windows over everything since construction, not over nothing
        # (the just-taken sample would otherwise be its own baseline).
        self._samples.append((self._now(), {}))
        self._gauges: dict[str, dict[str, Any]] = {}
        if registry is not None:
            for name in self._configs:
                self._gauges[name] = {
                    "p95_ms": registry.gauge(f"slo.{name}.p95_ms"),
                    "error_rate": registry.gauge(f"slo.{name}.error_rate"),
                    "deadline_hit_rate": registry.gauge(
                        f"slo.{name}.deadline_hit_rate"
                    ),
                    "status": registry.gauge(f"slo.{name}.status"),
                }

    # ------------------------------------------------------------- sampling
    def _extract(self, snap: Mapping[str, Any]) -> dict[str, dict[str, Any]]:
        """The per-model cumulative figures one sample retains."""
        out: dict[str, dict[str, Any]] = {}
        for name in self._configs:
            hist = snap.get(f"gateway.{name}.latency_ms") or {}
            counts = hist.get("counts", {}) if isinstance(hist, dict) else {}
            out[name] = {
                "accepted": snap.get(f"gateway.{name}.accepted", 0),
                "shed": snap.get(f"gateway.{name}.shed", 0),
                "completed": snap.get(f"gateway.{name}.completed", 0),
                "failed": snap.get(f"gateway.{name}.failed", 0),
                "latency": dict(counts),
            }
        return out

    def _window_delta(
        self, now: float, sample: dict[str, dict[str, Any]], window_s: float
    ) -> tuple[dict[str, dict[str, Any]], float]:
        """Difference ``sample`` against the window baseline (lock held).

        The baseline is the newest retained sample at least ``window_s``
        old; until one exists the oldest sample serves (the window covers
        the whole history).  Returns the per-model deltas plus the span
        the delta actually covers.
        """
        cutoff = now - window_s
        baseline_ts, baseline = self._samples[0]
        for ts, retained in self._samples:
            if ts <= cutoff:
                baseline_ts, baseline = ts, retained
            else:
                break
        deltas: dict[str, dict[str, Any]] = {}
        for name, cur in sample.items():
            base = baseline.get(name, {})
            deltas[name] = {
                "accepted": cur["accepted"] - base.get("accepted", 0),
                "shed": cur["shed"] - base.get("shed", 0),
                "completed": cur["completed"] - base.get("completed", 0),
                "failed": cur["failed"] - base.get("failed", 0),
                "latency": _counts_delta(
                    cur["latency"], base.get("latency", {})
                ),
            }
        return deltas, max(now - baseline_ts, 0.0)

    def _prune(self, now: float) -> None:
        """Drop samples older than every configured window (lock held)."""
        horizon = max(
            (cfg.window_s for cfg in self._configs.values() if cfg is not None),
            default=0.0,
        )
        cutoff = now - horizon
        # keep the newest too-old sample: it is the active baseline
        while len(self._samples) >= 2 and self._samples[1][0] <= cutoff:
            self._samples.popleft()

    # ----------------------------------------------------------- evaluation
    def _judge(
        self, name: str, cfg: SLOConfig, delta: dict[str, Any], span_s: float
    ) -> ModelHealth:
        latency = delta["latency"]
        completed = delta["completed"]
        submitted = delta["accepted"] + delta["shed"]
        errors = delta["shed"] + delta["failed"]
        p95 = quantile_from_counts(latency, 0.95)
        error_rate = errors / submitted if submitted else 0.0
        lat_total = sum(latency.values())
        if cfg.deadline_ms is not None and lat_total:
            hits = sum(
                c for v, c in latency.items() if float(v) <= cfg.deadline_ms
            )
            hit_rate = hits / lat_total
        else:
            hit_rate = 1.0  # vacuous: nothing completed, or no deadline set
        breaches: list[str] = []
        degrades: list[str] = []
        if cfg.target_p95_ms is not None and lat_total:
            if p95 > cfg.target_p95_ms:
                breaches.append(
                    f"p95 {p95:.3f}ms > target {cfg.target_p95_ms:.3f}ms"
                )
            elif p95 > DEGRADED_FRACTION * cfg.target_p95_ms:
                degrades.append(
                    f"p95 {p95:.3f}ms within "
                    f"{DEGRADED_FRACTION:.0%} of target "
                    f"{cfg.target_p95_ms:.3f}ms"
                )
        if cfg.error_budget_pct is not None and submitted:
            pct = error_rate * 100.0
            if pct > cfg.error_budget_pct:
                breaches.append(
                    f"error rate {pct:.2f}% > budget "
                    f"{cfg.error_budget_pct:.2f}%"
                )
            elif pct > DEGRADED_FRACTION * cfg.error_budget_pct:
                degrades.append(
                    f"error rate {pct:.2f}% within "
                    f"{DEGRADED_FRACTION:.0%} of budget "
                    f"{cfg.error_budget_pct:.2f}%"
                )
        if cfg.deadline_hit_rate is not None and lat_total:
            # the degraded band sits between the target and the target
            # plus DEGRADED_FRACTION of the remaining headroom to 1.0
            soft = cfg.deadline_hit_rate + (1.0 - DEGRADED_FRACTION) * (
                1.0 - cfg.deadline_hit_rate
            )
            if hit_rate < cfg.deadline_hit_rate:
                breaches.append(
                    f"deadline hit rate {hit_rate:.3f} < target "
                    f"{cfg.deadline_hit_rate:.3f}"
                )
            elif hit_rate < soft:
                degrades.append(
                    f"deadline hit rate {hit_rate:.3f} near target "
                    f"{cfg.deadline_hit_rate:.3f}"
                )
        if breaches:
            status, reasons = BREACHED, tuple(breaches)
        elif degrades:
            status, reasons = DEGRADED, tuple(degrades)
        else:
            status, reasons = HEALTHY, ("ok",)
        return ModelHealth(
            model=name,
            status=status,
            reasons=reasons,
            p95_ms=p95,
            error_rate=error_rate,
            deadline_hit_rate=hit_rate,
            window_completed=completed,
            window_s=span_s,
        )

    def evaluate(self) -> dict[str, ModelHealth]:
        """One evaluation pass: sample, difference, judge, export gauges."""
        # Snapshot before taking the monitor lock: callback gauges inside
        # it acquire lower-ranked locks (serving.server, engine plan).
        sample = self._extract(self._metrics_fn())
        now = self._now()
        results: dict[str, ModelHealth] = {}
        with self._lock:
            self._samples.append((now, sample))
            for name, cfg in self._configs.items():
                if cfg is None:
                    results[name] = ModelHealth.unconfigured(name)
                    continue
                deltas, span_s = self._window_delta(now, sample, cfg.window_s)
                results[name] = self._judge(name, cfg, deltas[name], span_s)
            self._prune(now)
            for name, health in results.items():
                gauges = self._gauges.get(name)
                if gauges is None:
                    continue
                gauges["p95_ms"].set(health.p95_ms)
                gauges["error_rate"].set(health.error_rate)
                gauges["deadline_hit_rate"].set(health.deadline_hit_rate)
                gauges["status"].set(STATUS_CODES[health.status])
        return results
