"""Figure 3 (and appendix Figure 12) — MACs vs latency over a large sweep.

Channels in {32, 64, 96, 128, 160, 256}; input width/height in
{8, 16, 32, 64}; kernel sizes 3x3 and 5x5; stride 1, same padding, equal
input/output channels.  The paper finds an approximately linear MACs ->
latency relationship per precision (on log-log axes) with substantial
deviations, especially away from large dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.regression import LogLogFit, loglog_fit
from repro.core.types import Padding
from repro.experiments.reporting import Claim, above, ascii_scatter, below, between, equal
from repro.hw.device import DeviceModel
from repro.hw.latency import conv_cost

CHANNELS = (32, 64, 96, 128, 160, 256)
SIZES = (8, 16, 32, 64)
KERNELS = (3, 5)
PRECISIONS = ("float32", "int8", "binary")


@dataclass(frozen=True)
class SweepPoint:
    """One dot in Figure 3."""

    precision: str
    channels: int
    size: int
    kernel: int
    macs: int
    latency_ms: float


def sweep_configs() -> list[tuple[int, int, int]]:
    """All (channels, size, kernel) combinations of the sweep."""
    return [(c, s, k) for c in CHANNELS for s in SIZES for k in KERNELS]


def run(device: str = "pixel1") -> dict:
    """Sweep points per precision plus the log-log regression fits."""
    dev = DeviceModel.by_name(device)
    points: dict[str, list[SweepPoint]] = {p: [] for p in PRECISIONS}
    for c, s, k in sweep_configs():
        macs = s * s * k * k * c * c
        for precision in PRECISIONS:
            padding = Padding.SAME_ONE if precision == "binary" else Padding.SAME_ZERO
            ms = conv_cost(
                dev, precision, 1, s, s, c, c, k, k, padding=padding
            ).total_ms
            points[precision].append(
                SweepPoint(precision, c, s, k, macs, ms)
            )
    fits: dict[str, LogLogFit] = {
        p: loglog_fit([pt.macs for pt in pts], [pt.latency_ms for pt in pts])
        for p, pts in points.items()
    }
    return {"points": points, "fits": fits}


def claims(device: str = "pixel1", data: dict | None = None) -> list[Claim]:
    fig = "F3" if device == "pixel1" else "F12"
    data = data or run(device)
    out = [equal(f"{fig}.points", "sweep convolutions per precision",
                 "6 x 4 x 2 = 48",
                 "/".join(str(len(p)) for p in data["points"].values()),
                 "/".join(["48"] * len(PRECISIONS)))]
    for precision, fit in data["fits"].items():
        out.append(between(f"{fig}.{precision}.slope", f"{precision} log-log slope",
                           "approx. linear", fit.slope, 0.9, 1.1, "{:.2f}"))
        out.append(above(f"{fig}.{precision}.r2", f"{precision} log-log R²",
                         "with deviations", fit.r_squared, 0.95, "{:.3f}"))
    if device == "pixel1":
        ms = [p.latency_ms for p in data["points"]["float32"]]
        out.append(below(f"{fig}.float_min", "fastest float conv", "0.01 ms",
                         min(ms), 0.2, "{:.2f} ms"))
        out.append(above(f"{fig}.float_max", "slowest float conv", "over 850 ms",
                         max(ms), 700, "{:.0f} ms"))
    return out


def sketch(data: dict) -> str:
    series = {
        precision: [(p.macs, p.latency_ms) for p in pts]
        for precision, pts in data["points"].items()
    }
    return ascii_scatter(series, x_label="MACs", y_label="latency ms")
