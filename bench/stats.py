"""Estimators: percentiles, the quietest window, run-to-run spread.

Raw tail percentiles do not repeat on this class of host (one 450 ms
host stall moves a p99 by an order of magnitude), and whole-run medians
follow the host's slow spells.  So a tail percentile is only reported
when at least :data:`MIN_BEYOND` samples lie beyond it, and every gating
time is read in the quietest window of consecutive operations
(:func:`quietest`).
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: a percentile is reported only with this many samples beyond it
MIN_BEYOND = 10

#: candidate tail percentiles, lowest first
TAILS = (90.0, 95.0, 99.0, 99.9)


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linear interpolation between ranks."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * q / 100.0
    lo = math.floor(rank)
    hi = math.ceil(rank)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def samples_beyond(n: int, q: float) -> float:
    """How many of ``n`` samples lie beyond the ``q``-th percentile."""
    return round(n * (100.0 - q) / 100.0, 9)  # 100 - 99.9 is not exactly 0.1


def supported_tail(n: int) -> float | None:
    """The highest of :data:`TAILS` with >= :data:`MIN_BEYOND` samples beyond it."""
    best = None
    for q in TAILS:
        if samples_beyond(n, q) >= MIN_BEYOND:
            best = q
    return best


def quietest(
    start: float,
    done: Sequence[float],
    latencies_ms: Sequence[float],
    width: int,
) -> tuple[float, float]:
    """The best reading over every window of ``width`` consecutive operations.

    ``done[k]`` is when operation ``k`` completed, ascending, ``latencies_ms[k]``
    its latency, ``start`` when measuring began.  Returns the lowest window
    median latency and the highest window rate in operations per second, each
    over its own best window.
    """
    n = len(done)
    if n < 1 or len(latencies_ms) != n:
        raise ValueError("need a completion time and a latency per operation")
    width = max(1, min(width, n))
    edges = [start, *done]
    p50 = min(
        statistics.median(latencies_ms[i:i + width]) for i in range(n - width + 1)
    )
    spans = [edges[i + width] - edges[i] for i in range(n - width + 1)]
    if min(spans) <= 0:
        raise ValueError("no time passed across a window")
    return p50, width / min(spans)


def rel_iqr(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as
    ``statistics.quantiles(values, n=4)`` gives them, over the median
    (0 for a single value)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else 0.0


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``.

    Positive means worse in the metric's own direction; negative means
    better.  ``better`` is ``"lower"`` or ``"higher"``.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    if first == 0:
        return 0.0 if second == 0 else math.inf
    delta = (second - first) / abs(first)
    return delta if better == "lower" else -delta
