"""Figure 2 (and appendix Figure 11) — the latency impact of binarizing
ResNet-18's four main convolutions.

Convolutions, in height x width x in channels x out channels with 3x3
kernels: A 56x56x64x64, B 28x28x128x128, C 14x14x256x256, D 7x7x256x256.
The paper reports binary speedups of 12x (A) to over 17x (D) versus float
and 9-12x versus int8 on the Pixel 1; 14x-20x and 6-10x on the RPi 4B.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.types import Padding
from repro.experiments.reporting import Claim, between, record
from repro.hw.device import DeviceModel
from repro.hw.latency import conv_cost

#: The four ResNet-18 convolutions: (label, spatial size, channels).
RESNET18_CONVS: tuple[tuple[str, int, int], ...] = (
    ("A", 56, 64),
    ("B", 28, 128),
    ("C", 14, 256),
    ("D", 7, 256),
)


@dataclass(frozen=True)
class ConvComparison:
    """One group of bars in Figure 2."""

    label: str
    spatial: int
    channels: int
    float_ms: float
    int8_ms: float
    binary_ms: float

    @property
    def speedup_vs_float(self) -> float:
        return self.float_ms / self.binary_ms

    @property
    def speedup_vs_int8(self) -> float:
        return self.int8_ms / self.binary_ms


def run(device: str = "pixel1") -> list[ConvComparison]:
    dev = DeviceModel.by_name(device)
    results = []
    for label, hw, c in RESNET18_CONVS:
        float_ms = conv_cost(
            dev, "float32", 1, hw, hw, c, c, 3, 3, padding=Padding.SAME_ZERO
        ).total_ms
        int8_ms = conv_cost(
            dev, "int8", 1, hw, hw, c, c, 3, 3, padding=Padding.SAME_ZERO
        ).total_ms
        binary_ms = conv_cost(
            dev, "binary", 1, hw, hw, c, c, 3, 3, padding=Padding.SAME_ONE
        ).total_ms
        results.append(
            ConvComparison(label, hw, c, float_ms, int8_ms, binary_ms)
        )
    return results


#: per device: artifact id, paper's vs-float reading per conv, paper's
#: vs-int8 range, vs-float bands (A and D), vs-int8 band
_PAPER = {
    "pixel1": ("F2", {"A": "~12x", "B": "12-17x", "C": "12-17x", "D": ">17x"},
               "9-12x", {"A": (11, 14), "D": (16, 19)}, (8, 13)),
    "rpi4b": ("F11", {"A": "14x", "B": "14-20x", "C": "14-20x", "D": ">20x"},
              "6-10x", {"A": (12.5, 16), "D": (18.5, 23)}, (5, 11)),
}


def claims(device: str = "pixel1", data: list[ConvComparison] | None = None) -> list[Claim]:
    fig, paper_float, paper_int8, float_bands, int8_band = _PAPER[device]
    by_label = {r.label: r for r in data or run(device)}
    out = []
    for label, r in by_label.items():
        conv = f"{label} {r.spatial}x{r.spatial}x{r.channels}x{r.channels}"
        vs_float = f"{conv} speedup vs float"
        if label in float_bands:
            out.append(between(f"{fig}.{label}.vs_float", vs_float, paper_float[label],
                               r.speedup_vs_float, *float_bands[label], fmt="{:.1f}x"))
        else:
            out.append(record(f"{fig}.{label}.vs_float", vs_float, paper_float[label],
                              f"{r.speedup_vs_float:.1f}x"))
        out.append(between(f"{fig}.{label}.vs_int8", f"{conv} speedup vs int8",
                           paper_int8, r.speedup_vs_int8, *int8_band, fmt="{:.1f}x"))
    a, c = by_label["A"].speedup_vs_float, by_label["C"].speedup_vs_float
    out.append(Claim(f"{fig}.grows", "vs-float speedup grows with channels",
                     "grows", "A < C", f"{a:.1f}x vs {c:.1f}x", a < c))
    return out
