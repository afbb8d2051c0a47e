"""Table 4 — per-operator latency shares of QuickNet on the RPi 4B.

Paper values (single-threaded):

======================================  ===========
Operator                                Latency (%)
======================================  ===========
LceQuantize                             3.52
LceBConv2d (accumulation loop)          53.41
LceBConv2d (output transformation)      3.68
Full precision Conv2D                   20.15
Full precision Add                      9.55
All other full precision                9.69
======================================  ===========
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.converter import convert
from repro.experiments.reporting import format_table
from repro.graph.ir import Graph
from repro.hw.device import DeviceModel
from repro.hw.latency import GraphLatency, graph_latency
from repro.ops import (
    CLASS_FP_ADD,
    CLASS_FP_CONV,
    CLASS_FP_OTHER,
    CLASS_LCE_BCONV,
    CLASS_LCE_QUANTIZE,
    op_class_of,
)
from repro.zoo import quicknet

PAPER_SHARES = {
    "LceQuantize": 3.52,
    "LceBConv2d (accumulation loop)": 53.41,
    "LceBConv2d (output transformation)": 3.68,
    "Full precision Conv2D": 20.15,
    "Full precision Add": 9.55,
    "All other full precision": 9.69,
}


#: Table 4 splits the binarized convolution row into its two stages
_BCONV_ACCUMULATION = f"{CLASS_LCE_BCONV} (accumulation loop)"
_BCONV_TRANSFORM = f"{CLASS_LCE_BCONV} (output transformation)"


@dataclass(frozen=True)
class OpClassShare:
    """One row of a Table-4-style operator breakdown."""

    op_class: str
    latency_s: float
    share_percent: float


def quicknet_table4_rows(graph: Graph, latency: GraphLatency) -> list[OpClassShare]:
    """The paper's Table 4 subdivision of a priced graph.

    ``LceBConv2d`` is split into its accumulation loop (im2col + BGEMM) and
    its output transformation; the remaining full-precision operators are
    grouped as Conv2D, Add, and "all other full precision".
    """
    buckets: dict[str, float] = {
        CLASS_LCE_QUANTIZE: 0.0,
        _BCONV_ACCUMULATION: 0.0,
        _BCONV_TRANSFORM: 0.0,
        CLASS_FP_CONV: 0.0,
        CLASS_FP_ADD: 0.0,
        CLASS_FP_OTHER: 0.0,
    }
    for node in graph.nodes:
        b = latency.per_node[node.name]
        op_class = op_class_of(node.op)
        if op_class == CLASS_LCE_BCONV:
            buckets[_BCONV_ACCUMULATION] += b.accumulation_s + b.im2col_s
            buckets[_BCONV_TRANSFORM] += b.transform_s
            buckets[CLASS_FP_OTHER] += b.overhead_s + b.other_s
        else:
            buckets[op_class] += b.total_s
    total = sum(buckets.values())
    return [
        OpClassShare(op_class=k, latency_s=v, share_percent=100.0 * v / total)
        for k, v in buckets.items()
    ]


def run(device: str = "rpi4b") -> list[OpClassShare]:
    dev = DeviceModel.by_name(device)
    graph = convert(quicknet("medium")).graph
    return quicknet_table4_rows(graph, graph_latency(dev, graph))


def main(device: str = "rpi4b") -> None:
    shares = run(device)
    rows = [
        (s.op_class, f"{s.share_percent:.2f}", f"{PAPER_SHARES.get(s.op_class, float('nan')):.2f}")
        for s in shares
    ]
    print(
        format_table(
            ["Operator", "Latency (%)", "paper (%)"],
            rows,
            title=f"Table 4: QuickNet operator latency shares on {device}",
        )
    )


if __name__ == "__main__":
    main()
