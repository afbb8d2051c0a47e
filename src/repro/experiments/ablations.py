"""Ablations of the design choices DESIGN.md section 5 calls out.

Each ablation turns one converter or operator optimization off and prices
both sides on the calibrated device model: one-padding vs the zero-padding
correction (Section 3.2), bitpacked conv-to-conv chains (Section 3.1),
batch-norm/activation fusion, and the bmaxpool swap.
"""

from __future__ import annotations

from repro.core.types import Padding
from repro.experiments.reporting import Claim, above, below
from repro.graph.ir import Graph
from repro.graph.passes import PASSES, run_passes
from repro.hw.device import DeviceModel
from repro.hw.latency import conv_cost, graph_latency
from repro.zoo import binarydensenet, quicknet
from repro.zoo.resnet_variants import binary_resnet18


def _latency_without(dev: DeviceModel, graph: Graph, *skip: str) -> float:
    """Latency (ms) of ``graph`` converted by :data:`PASSES` minus ``skip``."""
    g = graph.copy()
    run_passes(g, tuple((name, fn) for name, fn in PASSES if name not in skip))
    return graph_latency(dev, g).total_ms


def run(device: str = "pixel1") -> dict[str, tuple[float, float]]:
    """(optimized, ablated) latency in ms per ablation."""
    dev = DeviceModel.by_name(device)
    one, zero = (
        conv_cost(dev, "binary", 1, 28, 28, 128, 128, 3, 3, padding=padding,
                  zero_padding_correction=padding is Padding.SAME_ZERO).total_ms
        for padding in (Padding.SAME_ONE, Padding.SAME_ZERO)
    )
    resnet_c = binary_resnet18("C", input_size=224)  # fully chainable
    medium = quicknet("medium", input_size=224)
    densenet = binarydensenet(28, input_size=224)
    return {
        "padding": (one, zero),
        "chain_fusion": (
            _latency_without(dev, resnet_c),
            _latency_without(dev, resnet_c, "bitpacked_chain"),
        ),
        "bn_fusion": (
            _latency_without(dev, medium),
            _latency_without(dev, medium, "fuse_output_transform", "bitpacked_chain"),
        ),
        "bmaxpool_swap": (
            _latency_without(dev, densenet),
            _latency_without(dev, densenet, "bmaxpool_swap"),
        ),
    }


def claims(device: str = "pixel1", data: dict | None = None) -> list[Claim]:
    data = data or run(device)
    one, zero = data["padding"]
    chained, unchained = data["chain_fusion"]
    fused, unfused = data["bn_fusion"]
    swapped, unswapped = data["bmaxpool_swap"]
    return [
        Claim("A1.zero_padding", "28x28x128 bconv, one- vs zero-padding", "",
              "zero slower", f"{one:.3f} vs {zero:.3f} ms", zero > one),
        below("A1.correction_cost", "zero- / one-padding latency",
              "a correction step", zero / one, 1.5, "{:.2f}x"),
        above("A2.chain_fusion", "ResNet-18 C without / with bitpacked chains - 1",
              "saves latency", (unchained - chained) / chained, 0.005, "{:.1%}"),
        Claim("A3.bn_fusion", "QuickNet, BN/activation fusion on vs off", "",
              "fused faster", f"{fused:.1f} vs {unfused:.1f} ms", fused < unfused),
        Claim("A4.bmaxpool_swap", "BinaryDenseNet28, bmaxpool swap on vs off", "",
              "swap no slower", f"{swapped:.2f} vs {unswapped:.2f} ms",
              swapped <= unswapped),
    ]
