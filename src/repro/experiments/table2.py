"""Table 2 (and appendix Table 5) — binarization speedup statistics.

Per-convolution speedups over the Figure 3 sweep, summarized as mean,
full-precision-latency-weighted mean, and range.  Paper values:

=========  =========  =====  =============  ==========
device     baseline   mean   weighted mean  range
=========  =========  =====  =============  ==========
pixel1     float32    15.0x  15.1x          8.5-18.5x
pixel1     int8       10.8x  11.6x          6.1-13.4x
rpi4b      float32    17.5x  16.0x          8.8-23.0x
rpi4b      int8        8.3x   8.5x          5.1-9.6x
=========  =========  =====  =============  ==========
"""

from __future__ import annotations

from repro.analysis.speedup import SpeedupStats, speedup_stats
from repro.experiments import figure3
from repro.experiments.reporting import Claim, between, near, record

#: paper-reported values
PAPER_VALUES = {
    ("pixel1", "float32"): {"mean": 15.0, "weighted_mean": 15.1, "range": (8.5, 18.5)},
    ("pixel1", "int8"): {"mean": 10.8, "weighted_mean": 11.6, "range": (6.1, 13.4)},
    ("rpi4b", "float32"): {"mean": 17.5, "weighted_mean": 16.0, "range": (8.8, 23.0)},
    ("rpi4b", "int8"): {"mean": 8.3, "weighted_mean": 8.5, "range": (5.1, 9.6)},
}


def run(device: str = "pixel1") -> dict[str, SpeedupStats]:
    """Speedup stats vs float32 ("1 vs. 32") and int8 ("1 vs. 8")."""
    sweep = figure3.run(device)["points"]
    binary = [p.latency_ms for p in sweep["binary"]]
    # NOTE: the weighted mean always weights by the *float* latency, per the
    # paper ("weighted by the full-precision latency of the block").
    float_lat = [p.latency_ms for p in sweep["float32"]]
    int8_lat = [p.latency_ms for p in sweep["int8"]]
    vs_float = speedup_stats(float_lat, binary)
    int8_speedups = [i / b for i, b in zip(int8_lat, binary)]
    import numpy as np

    vs_int8 = SpeedupStats(
        mean=float(np.mean(int8_speedups)),
        weighted_mean=float(np.average(int8_speedups, weights=float_lat)),
        minimum=float(np.min(int8_speedups)),
        maximum=float(np.max(int8_speedups)),
        count=len(int8_speedups),
    )
    return {"1 vs. 32": vs_float, "1 vs. 8": vs_int8}


#: accepted bands: mean within ``tol`` of the paper, extremes in ``(lo, hi)``
_BANDS = {
    ("pixel1", "float32"): {"mean": 1.0, "minimum": (7.0, 10.0), "maximum": (16.5, 20.0)},
    ("pixel1", "int8"): {"mean": 1.0},
    ("rpi4b", "float32"): {"mean": 1.5},
    ("rpi4b", "int8"): {"mean": 1.0},
}

_ROWS = {"1 vs. 32": ("vs32", "float32"), "1 vs. 8": ("vs8", "int8")}


def claims(device: str = "pixel1", data: dict[str, SpeedupStats] | None = None) -> list[Claim]:
    table = "T2" if device == "pixel1" else "T5"
    data = data or run(device)
    out = []
    for name, s in data.items():
        key, baseline = _ROWS[name]
        paper = PAPER_VALUES[(device, baseline)]
        bands = _BANDS[(device, baseline)]
        out.append(near(f"{table}.{key}.mean", f"{name} mean speedup",
                        paper["mean"], s.mean, bands["mean"], "{:.1f}x"))
        out.append(record(f"{table}.{key}.weighted", f"{name} weighted mean",
                          f"{paper['weighted_mean']:.1f}x", f"{s.weighted_mean:.1f}x"))
        for stat, paper_value in zip(("minimum", "maximum"), paper["range"]):
            cid, quantity = f"{table}.{key}.{stat[:3]}", f"{name} {stat}"
            value = getattr(s, stat)
            if stat in bands:
                out.append(between(cid, quantity, f"{paper_value:.1f}x", value,
                                   *bands[stat], fmt="{:.1f}x"))
            else:
                out.append(record(cid, quantity, f"{paper_value:.1f}x", f"{value:.1f}x"))
    if device == "rpi4b":
        # Paper: vs-float speedups are higher on the RPi, vs-int8 lower.
        pixel = run("pixel1")
        for name, (key, _) in _ROWS.items():
            rpi, p1 = data[name].mean, pixel[name].mean
            higher = key == "vs32"
            out.append(Claim(f"{table}.{key}.vs_pixel1", f"{name} mean, RPi 4B vs Pixel 1",
                             "higher" if higher else "lower",
                             "RPi > Pixel 1" if higher else "RPi < Pixel 1",
                             f"{rpi:.1f}x vs {p1:.1f}x",
                             rpi > p1 if higher else rpi < p1))
    return out
