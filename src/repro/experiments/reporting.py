"""Claim records and their rendering for experiment output.

Every experiment states what it reproduces as :class:`Claim` rows: the
paper's value, the band the simulated value must fall in, the simulated
value and whether it does.  :func:`claim_table` renders them as the
markdown rows EXPERIMENTS.md carries and the runner prints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class Claim:
    """One ledger row.  ``holds`` is ``None`` for a value recorded without
    a band (``band == ""``)."""

    id: str
    quantity: str
    paper: str
    band: str
    simulated: str
    holds: bool | None = None

    @property
    def artifact(self) -> str:
        """The experiment index id (``T2``, ``F10``, ...) the claim belongs to."""
        return self.id.split(".", 1)[0]


def record(id: str, quantity: str, paper: str, simulated: str) -> Claim:
    """A simulated value the ledger pins without a band."""
    return Claim(id, quantity, paper, "", simulated)


def between(
    id: str, quantity: str, paper: str, value: float, lo: float, hi: float,
    fmt: str = "{:.1f}",
) -> Claim:
    """``lo <= value <= hi``."""
    band = f"{fmt.format(lo)} to {fmt.format(hi)}"
    return Claim(id, quantity, paper, band, fmt.format(value), lo <= value <= hi)


def above(
    id: str, quantity: str, paper: str, value: float, bound: float,
    fmt: str = "{:.1f}",
) -> Claim:
    """``value > bound``."""
    return Claim(id, quantity, paper, f"> {fmt.format(bound)}", fmt.format(value),
                 value > bound)


def below(
    id: str, quantity: str, paper: str, value: float, bound: float,
    fmt: str = "{:.1f}",
) -> Claim:
    """``value < bound``."""
    return Claim(id, quantity, paper, f"< {fmt.format(bound)}", fmt.format(value),
                 value < bound)


def near(
    id: str, quantity: str, paper: float, value: float, tol: float,
    fmt: str = "{:.1f}", relative: bool = False,
) -> Claim:
    """``|value - paper| <= tol`` (``tol * paper`` when ``relative``)."""
    width = tol * abs(paper) if relative else tol
    band = (f"{fmt.format(paper)} ± {tol:.0%}" if relative
            else f"{fmt.format(paper)} ± {tol:g}")
    return Claim(id, quantity, fmt.format(paper), band, fmt.format(value),
                 abs(value - paper) <= width)


def equal(
    id: str, quantity: str, paper: str, value, expected, fmt: str = "{}",
) -> Claim:
    """``value == expected``."""
    return Claim(id, quantity, paper, f"= {fmt.format(expected)}", fmt.format(value),
                 value == expected)


HEADERS = ("Claim", "Quantity", "Paper", "Accepted", "Simulated", "Holds")


def claim_table(claims: Sequence[Claim]) -> str:
    """Markdown table of ``claims``, one row each."""
    lines = ["| " + " | ".join(HEADERS) + " |", "|" + "---|" * len(HEADERS)]
    for c in claims:
        holds = "—" if c.holds is None else ("yes" if c.holds else "**no**")
        cells = (c.id, c.quantity, c.paper or "—", c.band or "—", c.simulated, holds)
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def ascii_scatter(
    series: dict[str, list[tuple[float, float]]],
    width: int = 68,
    height: int = 18,
    log_x: bool = True,
    log_y: bool = True,
    x_label: str = "x",
    y_label: str = "y",
) -> str:
    """Render labelled (x, y) series as an ASCII scatter plot.

    Used by the figure experiments to sketch the paper's plots directly in
    terminal output.  Each series gets its own marker: the first letter or
    digit of its name not taken by an earlier series (``quicknet`` after
    ``quicknet_small`` is ``U``), else the first free symbol; the legend
    maps each marker to its name.
    """
    import math

    points = [(x, y) for pts in series.values() for x, y in pts]
    if not points:
        raise ValueError("nothing to plot")
    fx = math.log10 if log_x else (lambda v: v)
    fy = math.log10 if log_y else (lambda v: v)
    xs = [fx(x) for x, _ in points]
    ys = [fy(y) for _, y in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    markers: dict[str, str] = {}
    for name in series:
        taken = set(markers.values())
        markers[name] = next(
            c for c in [*filter(str.isalnum, name.upper()), *"0123456789*#@%&+?$~"]
            if c not in taken
        )
    grid = [[" "] * width for _ in range(height)]
    for name, pts in series.items():
        marker = markers[name]
        for x, y in pts:
            col = int((fx(x) - x_lo) / x_span * (width - 1))
            row = height - 1 - int((fy(y) - y_lo) / y_span * (height - 1))
            grid[row][col] = marker
    lines = [f"{y_label} ({'log' if log_y else 'linear'} scale)"]
    lines += ["|" + "".join(row) for row in grid]
    lines.append("+" + "-" * width + f"> {x_label}{' (log)' if log_x else ''}")
    legend = "   ".join(f"{marker}={name}" for name, marker in markers.items())
    lines.append(legend)
    return "\n".join(lines)
