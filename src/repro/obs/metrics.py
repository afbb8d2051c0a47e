"""The unified runtime metrics registry.

Every performance-bearing subsystem used to keep its own counters —
``Engine`` held raw ints behind a lock, ``ParamCache`` exposed bare
attributes, :mod:`repro.core.indirection` hid module-private tallies.
This module replaces that scatter with one typed registry:

- :class:`Counter` — monotonically increasing int/float totals
  (``engine.requests``, ``engine.busy_s``);
- :class:`Gauge` — a point-in-time value read from a callback at
  snapshot time (the view mechanism: ``indirection.entries`` reads the
  live module cache, ``workspace.bytes_reserved`` reads an engine's
  scratch arena);
- :class:`Histogram` — discrete value -> count distributions with
  count/total/min/max (``engine.batch_size``).

Consistency contract: every native instrument of a registry shares the
registry's single re-entrant lock, and :meth:`MetricsRegistry.snapshot`
reads all of them under **one** acquisition — a snapshot can never
observe a batch counted in ``engine.batches`` but missing from the
batch-size histogram.  Gauges are evaluated *outside* the lock
(they may take other subsystem locks, e.g. an engine's plan lock, and
holding the registry lock across them would invert lock order), so they
are point-in-time reads layered over the consistent native core.

A process-wide registry (:func:`global_registry`) carries the
module-level cache views; engines own a private registry each so two
engines never collide on ``engine.*`` names.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

from repro.concurrency.locks import ordered_rlock


class Counter:
    """A monotonically increasing total (int or float)."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str, lock: threading.RLock) -> None:
        self.name = name
        self._lock = lock
        self._value: int | float = 0

    def add(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r}: negative add {amount!r}")
        with self._lock:
            self._value += amount

    def inc(self) -> None:
        self.add(1)

    def _read_locked(self) -> int | float:
        return self._value


class Gauge:
    """A point-in-time value read from a callback at snapshot time."""

    __slots__ = ("name", "_fn")

    def __init__(self, name: str, fn: Callable[[], int | float]) -> None:
        self.name = name
        self._fn = fn

    @property
    def value(self) -> int | float:
        return self._fn()


class Histogram:
    """A discrete distribution: exact value -> count, plus summary stats.

    Observations are expected to be discrete (micro-batch sizes, thread
    counts); each distinct value keys its own bucket, which is exactly
    the ``batch_histogram`` shape the engine has always reported.
    """

    __slots__ = ("name", "_lock", "_counts", "_count", "_total", "_min", "_max")

    def __init__(self, name: str, lock: threading.RLock) -> None:
        self.name = name
        self._lock = lock
        self._counts: dict[int | float, int] = {}
        self._count = 0
        self._total: int | float = 0
        self._min: int | float | None = None
        self._max: int | float | None = None

    def observe(self, value: int | float) -> None:
        with self._lock:
            self._counts[value] = self._counts.get(value, 0) + 1
            self._count += 1
            self._total += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    def _read_locked(self) -> dict[str, Any]:
        return {
            "count": self._count,
            "total": self._total,
            "min": self._min,
            "max": self._max,
            "counts": dict(self._counts),
        }


def quantile_from_counts(counts: dict[int | float, int], q: float) -> float:
    """Nearest-rank quantile over a ``value -> count`` distribution.

    Reads the ``counts`` sub-dict of a histogram's snapshot (where JSON
    round-trips may have stringified keys) — what the serving gateway's
    p50/p95/p99 latency figures are computed from.  Returns 0.0 for an
    empty distribution.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    total = sum(counts.values())
    if total == 0:
        return 0.0
    rank = max(1, int(-(-q * total // 1)))  # ceil(q * total), at least 1
    seen = 0
    for value in sorted(counts, key=float):
        seen += counts[value]
        if seen >= rank:
            return float(value)
    return float(max(counts, key=float))


Instrument = Counter | Gauge | Histogram


class MetricsRegistry:
    """Named instruments behind one lock; get-or-create by name.

    ``counter``/``gauge``/``histogram`` return the existing instrument
    when the name is already registered (and raise on a type clash), so
    subsystems can look instruments up by name without threading object
    references around.
    """

    def __init__(self) -> None:
        self._lock = ordered_rlock("obs.metrics")
        self._instruments: dict[str, Instrument] = {}

    def lock(self) -> threading.RLock:
        """The shared instrument lock.

        Hold it (``with registry.lock():``) to make a *group* of updates
        atomic with respect to :meth:`snapshot` — e.g. the engine counts
        a batch, its samples and its histogram bucket as one event.
        """
        return self._lock

    def _get_or_create(self, name: str, kind: type, factory) -> Any:
        with self._lock:
            inst = self._instruments.get(name)
            if inst is not None:
                if not isinstance(inst, kind):
                    raise ValueError(
                        f"metric {name!r} is a {type(inst).__name__}, "
                        f"not a {kind.__name__}"
                    )
                return inst
            inst = self._instruments[name] = factory()
            return inst

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter, lambda: Counter(name, self._lock))

    def gauge(self, name: str, fn: Callable[[], int | float]) -> Gauge:
        gauge = self._get_or_create(name, Gauge, lambda: Gauge(name, fn))
        if gauge._fn is not fn:
            raise ValueError(f"gauge {name!r} already registered")
        return gauge

    def histogram(self, name: str) -> Histogram:
        return self._get_or_create(
            name, Histogram, lambda: Histogram(name, self._lock)
        )

    def snapshot(self) -> dict[str, Any]:
        """All instrument values, the native ones under one lock hold.

        Returns a flat ``name -> value`` dict; histograms render as a
        ``{"count", "total", "min", "max", "counts"}`` sub-dict.
        """
        with self._lock:
            instruments = dict(self._instruments)
        # Gauges first, outside the lock: their callbacks may take
        # subsystem locks (engine plan lock, module cache locks).
        snap: dict[str, Any] = {
            name: inst.value
            for name, inst in instruments.items()
            if isinstance(inst, Gauge)
        }
        with self._lock:
            for name, inst in instruments.items():
                if name not in snap:
                    snap[name] = inst._read_locked()
        return snap


_GLOBAL = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    """The process-wide registry carrying module-level cache views
    (``indirection.*``)."""
    return _GLOBAL


def format_snapshot(snap: dict[str, Any], indent: str = "") -> str:
    """Render a snapshot as aligned ``name  value`` lines (CLI `stats`)."""
    lines = []
    width = max((len(n) for n in snap), default=0)
    for name in sorted(snap):
        value = snap[name]
        if isinstance(value, dict):  # histogram
            counts = {k: v for k, v in sorted(value["counts"].items())}
            mean = value["total"] / value["count"] if value["count"] else 0.0
            rendered = (
                f"count={value['count']} mean={mean:.2f} "
                f"min={value['min']} max={value['max']} counts={counts}"
            )
        elif isinstance(value, float):
            rendered = f"{value:.6g}"
        else:
            rendered = str(value)
        lines.append(f"{indent}{name:<{width}}  {rendered}")
    return "\n".join(lines)
