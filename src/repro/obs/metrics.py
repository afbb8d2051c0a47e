"""Reading the runtime's counters: histograms, quantiles, text.

There is no registry.  Each owner keeps plain counters under a lock it
already takes for what they count — an engine under its plan lock, a
gateway model server under its server lock — and its ``stats()`` reads
its own fields.  A histogram is a plain ``value -> count`` dict; this
module holds what the owners share about one:

- :func:`significant` — the bucket a continuous observation (a latency)
  counts in: its value at 3 significant digits, a fixed log-linear
  layout of at most 900 buckets per decade whose quantiles are within
  0.5 % of the exact ones; histograms still merge by summing dicts
  (batch sizes stay exact);
- :func:`summarize` — the ``{count, total, min, max, counts}`` form a
  metrics snapshot reports per histogram;
- :func:`quantile_from_counts` — the nearest-rank p50/p95/p99;
- :func:`format_snapshot` — aligned text for ``cli stats`` / ``cli serve``.
"""

from __future__ import annotations

import math
from typing import Any


def significant(value: float) -> float:
    """``value`` rounded to 3 significant digits (0 and non-finite as is)."""
    if value == 0 or not math.isfinite(value):
        return value
    return round(value, 2 - math.floor(math.log10(abs(value))))


def summarize(counts: dict[int | float, int]) -> dict[str, Any]:
    """A ``value -> count`` histogram as ``{count, total, min, max, counts}``
    over its bucket values (``min`` / ``max`` are None while it is empty)."""
    return {
        "count": sum(counts.values()),
        "total": sum(value * n for value, n in counts.items()),
        "min": min(counts, default=None),
        "max": max(counts, default=None),
        "counts": dict(counts),
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


def format_snapshot(snap: dict[str, Any], indent: str = "") -> str:
    """Render a snapshot as aligned ``name  value`` lines (``cli stats``)."""
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
