"""Figure 5 — per-layer latency stacks for BinaryDenseNet28,
RealToBinaryNet and QuickNet Large.

The paper's profile shows the non-negligible runtime impact of non-binary
operations in BinaryDenseNet and RealToBinaryNet, and the large cost of
their first (full-precision) layers; QuickNet improves both.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.converter import convert
from repro.experiments.reporting import Claim, above, below, record
from repro.graph.ir import Graph
from repro.hw.device import DeviceModel
from repro.hw.latency import GraphLatency, graph_latency
from repro.ops import is_binary_op, mac_layer_ops
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


def layer_stacks(
    graph: Graph, latency: GraphLatency
) -> list[dict[str, float | int | str]]:
    """Figure-5-style per-layer latency stack of a priced graph.

    One entry per *MAC layer* (convolution / dense); the glue ops between
    two MAC layers (quantize, BN, add, pooling, ...) are attributed to the
    preceding layer's stack, split into binary and full-precision time —
    reproducing the stacked layer-number axis of the paper's Figure 5.
    """
    mac_ops = mac_layer_ops()
    stacks: list[dict[str, float | int | str]] = []
    current: dict[str, float | int | str] | None = None
    for node in graph.nodes:
        if node.op in mac_ops:
            if current is not None:
                stacks.append(current)
            current = {
                "layer": len(stacks),
                "anchor_op": node.op,
                "binary_s": 0.0,
                "full_precision_s": 0.0,
            }
        if current is None:  # pre-stem glue (rare): open an implicit layer
            current = {
                "layer": 0,
                "anchor_op": node.op,
                "binary_s": 0.0,
                "full_precision_s": 0.0,
            }
        key = "binary_s" if is_binary_op(node.op) else "full_precision_s"
        current[key] = float(current[key]) + latency.per_node[node.name].total_s
    if current is not None:
        stacks.append(current)
    return stacks


def run(device: str = "pixel1") -> list[ModelProfile]:
    dev = DeviceModel.by_name(device)
    out = []
    for name in MODELS:
        graph = convert(build_model(name)).graph
        stacks = layer_stacks(graph, graph_latency(dev, graph))
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


def claims(device: str = "pixel1", data: list[ModelProfile] | None = None) -> list[Claim]:
    p = {r.model: r for r in data or run(device)}
    qnl, bdn, r2b = p["quicknet_large"], p["binarydensenet28"], p["realtobinarynet"]
    out = []
    for r in p.values():
        out.append(record(f"F5.{r.model}.total", f"{r.model} total latency", "",
                          f"{r.total_ms:.1f} ms"))
        first = f"{r.model} first-layer share"
        if r is qnl:
            out.append(below(f"F5.{r.model}.first_layer", first, "greatly improved",
                             r.first_layer_fraction, 0.10, "{:.0%}"))
            out.append(above(f"F5.{r.model}.binary", f"{r.model} binary share",
                             "mostly binary", r.binary_fraction, 0.5, "{:.0%}"))
        else:
            out.append(above(f"F5.{r.model}.first_layer", first, "significant",
                             r.first_layer_fraction, 0.15, "{:.0%}"))
            out.append(record(f"F5.{r.model}.binary", f"{r.model} binary share",
                              "non-binary impact", f"{r.binary_fraction:.0%}"))
    out.append(Claim(
        "F5.most_binary", "binary share, QuickNet Large vs BDN28 and R2B",
        "QuickNet improves it", "QNL above both",
        f"{qnl.binary_fraction:.0%} vs {bdn.binary_fraction:.0%}, "
        f"{r2b.binary_fraction:.0%}",
        qnl.binary_fraction > max(bdn.binary_fraction, r2b.binary_fraction)))
    out.append(Claim(
        "F5.quicknet_faster", "total latency, QuickNet Large vs BDN28",
        "", "QNL < BDN28", f"{qnl.total_ms:.1f} vs {bdn.total_ms:.1f} ms",
        qnl.total_ms < bdn.total_ms))
    return out
