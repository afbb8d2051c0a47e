"""Figure 8 (and appendix Figure 14) — the latency impact of
full-precision shortcuts in a binarized ResNet-18.

Three versions (paper Figure 8): (A) shortcuts in every block, (B)
shortcuts in the regular blocks only, (C) no shortcuts anywhere.  The
paper's finding: the latency impact of regular-block shortcuts is small
(an Add plus forcing float output + separate re-binarization), while
downsampling shortcuts cost more because of the extra full-precision
pointwise convolution.  Also includes the Figure 9 block-type
micro-benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.converter import convert
from repro.core.types import Padding
from repro.experiments.reporting import Claim, below, equal, record
from repro.hw.device import DeviceModel
from repro.hw.latency import conv_cost, graph_latency
from repro.zoo import binary_resnet18

VARIANTS = ("A", "B", "C")


@dataclass(frozen=True)
class VariantResult:
    variant: str
    description: str
    latency_ms: float
    n_bconv_bitpacked_out: int
    n_fp_pointwise: int
    n_adds: int


_DESCRIPTIONS = {
    "A": "shortcuts in every block",
    "B": "shortcuts in regular blocks only",
    "C": "no shortcuts anywhere",
}


def run(device: str = "pixel1") -> list[VariantResult]:
    dev = DeviceModel.by_name(device)
    results = []
    for variant in VARIANTS:
        model = convert(binary_resnet18(variant))
        g = model.graph
        bitpacked = sum(
            1
            for n in g.nodes
            if n.op == "lce_bconv2d" and n.attr("output_type") == "bitpacked"
        )
        pointwise = sum(
            1
            for n in g.nodes
            if n.op == "conv2d" and n.params["weights"].shape[:2] == (1, 1)
        )
        adds = len(g.ops_by_type("add"))
        results.append(
            VariantResult(
                variant=variant,
                description=_DESCRIPTIONS[variant],
                latency_ms=graph_latency(dev, g).total_ms,
                n_bconv_bitpacked_out=bitpacked,
                n_fp_pointwise=pointwise,
                n_adds=adds,
            )
        )
    return results


@dataclass(frozen=True)
class BlockTypeResult:
    """Figure 9 block-type micro-benchmark."""

    block: str
    latency_ms: float


def run_block_types(
    device: str = "pixel1", spatial: int = 28, channels: int = 128
) -> list[BlockTypeResult]:
    """Latency of the three Figure 9 block types at one representative size.

    - no shortcut: binarized conv writing bitpacked output directly;
    - regular shortcut: conv writes float, an Add, and a re-binarization;
    - downsampling shortcut: as regular, plus 2x2 avg pool and the
      channel-doubling full-precision pointwise convolution.
    """
    dev = DeviceModel.by_name(device)
    results = []
    bconv_bitpacked = conv_cost(
        dev, "binary", 1, spatial, spatial, channels, channels, 3, 3,
        padding=Padding.SAME_ONE, bitpacked_output=True,
    ).total_s
    results.append(BlockTypeResult("no shortcut", bconv_bitpacked * 1e3))

    bconv_float = conv_cost(
        dev, "binary", 1, spatial, spatial, channels, channels, 3, 3,
        padding=Padding.SAME_ONE, fused_transform=True,
    ).total_s
    out_bytes = spatial * spatial * channels * 4.0
    add_s = dev.cycles_to_seconds(3 * out_bytes / dev.eltwise_bytes_per_cycle)
    quantize_s = dev.cycles_to_seconds(out_bytes / dev.pack_bytes_per_cycle)
    regular = bconv_float + add_s + quantize_s + 2 * dev.op_overhead_s
    results.append(BlockTypeResult("regular shortcut", regular * 1e3))

    down_bconv = conv_cost(
        dev, "binary", 1, spatial, spatial, channels, 2 * channels, 3, 3,
        stride=2, padding=Padding.SAME_ONE, fused_transform=True,
    ).total_s
    half = spatial // 2
    pointwise = conv_cost(
        dev, "float32", 1, half, half, channels, 2 * channels, 1, 1,
        padding=Padding.SAME_ZERO,
    ).total_s
    pool_s = dev.cycles_to_seconds(
        half * half * channels * 4 / dev.pool_elems_per_cycle
    )
    down_out_bytes = half * half * 2 * channels * 4.0
    add2_s = dev.cycles_to_seconds(3 * down_out_bytes / dev.eltwise_bytes_per_cycle)
    quantize2_s = dev.cycles_to_seconds(down_out_bytes / dev.pack_bytes_per_cycle)
    downsample = down_bconv + pool_s + pointwise + add2_s + quantize2_s
    downsample += 4 * dev.op_overhead_s
    results.append(BlockTypeResult("downsampling shortcut", downsample * 1e3))
    return results


#: shortcut blocks per kind in the binarized ResNet-18
REGULAR_BLOCKS, DOWNSAMPLING_BLOCKS = 13, 3


def claims(device: str = "pixel1", data: list[VariantResult] | None = None) -> list[Claim]:
    fig, blk = ("F8", "F9") if device == "pixel1" else ("F14", "F14.blocks")
    v = {r.variant: r for r in data or run(device)}
    a, b, c = (v[x].latency_ms for x in VARIANTS)
    per_regular = (b - c) / REGULAR_BLOCKS
    per_downsample = (a - b) / DOWNSAMPLING_BLOCKS
    out = [
        record(f"{fig}.{r.variant}", f"{r.variant}: {r.description}", "",
               f"{r.latency_ms:.1f} ms")
        for r in v.values()
    ]
    out += [
        Claim(f"{fig}.order", "latency by variant", "A > B > C", "A > B > C",
              f"{a:.1f} / {b:.1f} / {c:.1f} ms", a > b > c),
        below(f"{fig}.regular_cost", "B over C (regular-block shortcuts)", "small",
              (b - c) / c, 0.15, "{:.1%}"),
        Claim(f"{fig}.downsampling_cost", "per-block cost, downsampling vs regular",
              "downsampling costs more", "downsampling > regular",
              f"{per_downsample:.2f} vs {per_regular:.2f} ms", per_downsample > per_regular),
        equal(f"{fig}.C.bitpacked", "C: bconvs writing bitpacked output",
              "fully binary chains", v["C"].n_bconv_bitpacked_out, 15),
        equal(f"{fig}.A.bitpacked", "A: bconvs writing bitpacked output", "",
              v["A"].n_bconv_bitpacked_out, 0),
    ]
    blocks = run_block_types(device)
    out += [
        record(f"{blk}.{b.block.replace(' ', '_')}", f"block type (28x28x128): {b.block}",
               "", f"{b.latency_ms:.3f} ms")
        for b in blocks
    ]
    out.append(Claim(f"{blk}.order", "block-type latency",
                     "no shortcut < regular < downsampling",
                     "no shortcut < regular < downsampling",
                     " / ".join(f"{b.latency_ms:.3f}" for b in blocks) + " ms",
                     blocks[0].latency_ms < blocks[1].latency_ms < blocks[2].latency_ms))
    return out
