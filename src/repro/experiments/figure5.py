"""Figure 5 — per-layer latency stacks for BinaryDenseNet28,
RealToBinaryNet and QuickNet Large.

The paper's profile shows the non-negligible runtime impact of non-binary
operations in BinaryDenseNet and RealToBinaryNet, and the large cost of
their first (full-precision) layers; QuickNet improves both.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.converter import convert
from repro.experiments.reporting import format_table
from repro.hw.device import DeviceModel
from repro.profiling import layer_stacks, profile_graph
from repro.zoo import build_model

MODELS = ("binarydensenet28", "realtobinarynet", "quicknet_large")


@dataclass(frozen=True)
class ModelProfile:
    model: str
    total_ms: float
    first_layer_ms: float
    binary_ms: float
    full_precision_ms: float
    stacks: list[dict]

    @property
    def binary_fraction(self) -> float:
        return self.binary_ms / self.total_ms

    @property
    def first_layer_fraction(self) -> float:
        return self.first_layer_ms / self.total_ms


def run(device: str = "pixel1") -> list[ModelProfile]:
    dev = DeviceModel.by_name(device)
    out = []
    for name in MODELS:
        model = convert(build_model(name))
        profiles = profile_graph(dev, model.graph)
        stacks = layer_stacks(profiles)
        binary_s = sum(s["binary_s"] for s in stacks)
        fp_s = sum(s["full_precision_s"] for s in stacks)
        first_s = stacks[0]["binary_s"] + stacks[0]["full_precision_s"]
        out.append(
            ModelProfile(
                model=name,
                total_ms=(binary_s + fp_s) * 1e3,
                first_layer_ms=first_s * 1e3,
                binary_ms=binary_s * 1e3,
                full_precision_ms=fp_s * 1e3,
                stacks=stacks,
            )
        )
    return out


def main(device: str = "pixel1") -> None:
    results = run(device)
    rows = [
        (
            r.model,
            f"{r.total_ms:.1f}",
            f"{r.first_layer_ms:.1f} ({100 * r.first_layer_fraction:.0f}%)",
            f"{100 * r.binary_fraction:.0f}%",
            f"{100 * (1 - r.binary_fraction):.0f}%",
            len(r.stacks),
        )
        for r in results
    ]
    print(
        format_table(
            ["Model", "total ms", "first layer", "binary", "full precision", "layers"],
            rows,
            title=f"Figure 5: per-layer latency breakdown on {device}",
        )
    )


if __name__ == "__main__":
    main()
