"""Figure 7 (and appendix Figure 13) — accuracy vs latency for the zoo.

The paper's headline model-level result: QuickNet (with BiRealNet and
RealToBinaryNet) advances the accuracy/latency Pareto front, while
BinaryDenseNet and MeliusNet trade accuracy against clearly worse latency.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.macs import count_macs
from repro.converter import convert
from repro.experiments.reporting import Claim, ascii_scatter, below, record
from repro.graph.ir import Graph
from repro.hw.device import DeviceModel
from repro.hw.latency import graph_latency
from repro.zoo import MODEL_REGISTRY


@dataclass(frozen=True)
class ModelPoint:
    """One dot in Figure 7."""

    model: str
    family: str
    latency_ms: float
    top1_accuracy: float
    binary_macs: int
    fp_macs: int
    model_size_bytes: int


def convert_zoo(models: tuple[str, ...] | None = None) -> dict[str, Graph]:
    """Converted graphs of the zoo (or of ``models``), by registry name."""
    return {
        name: convert(info.build()).graph
        for name, info in MODEL_REGISTRY.items()
        if models is None or name in models
    }


def price(graphs: dict[str, Graph], device: str = "pixel1") -> list[ModelPoint]:
    """One point per converted graph, sorted by latency on ``device``."""
    dev = DeviceModel.by_name(device)
    points = []
    for name, graph in graphs.items():
        info = MODEL_REGISTRY[name]
        macs = count_macs(graph)
        points.append(
            ModelPoint(
                model=name,
                family=info.family,
                latency_ms=graph_latency(dev, graph).total_ms,
                top1_accuracy=info.top1_accuracy,
                binary_macs=macs.binary,
                fp_macs=macs.full_precision,
                model_size_bytes=graph.param_nbytes(),
            )
        )
    return sorted(points, key=lambda p: p.latency_ms)


def run(device: str = "pixel1", models: tuple[str, ...] | None = None) -> list[ModelPoint]:
    return price(convert_zoo(models), device)


def pareto_front(points: list[ModelPoint]) -> list[str]:
    """Models on the latency/accuracy Pareto front (lower-left to upper-right)."""
    front = []
    best_acc = -1.0
    for p in sorted(points, key=lambda p: p.latency_ms):
        if p.top1_accuracy > best_acc:
            front.append(p.model)
            best_acc = p.top1_accuracy
    return front


QUICKNETS = ("quicknet_small", "quicknet", "quicknet_large")
DOMINATED = ("binarydensenet28", "meliusnet22")


def claims(device: str = "pixel1", data: list[ModelPoint] | None = None) -> list[Claim]:
    fig = "F7" if device == "pixel1" else "F13"
    points = data or run(device)
    pts = {p.model: p for p in points}
    front = pareto_front(points)
    out = [
        record(f"{fig}.{p.model}", f"{p.model}: latency @ top-1, size",
               f"Larq Zoo {MODEL_REGISTRY[p.model].reported_size_mb} MB",
               f"{p.latency_ms:.1f} ms @ {p.top1_accuracy:.1f} %, "
               f"{p.model_size_bytes / 1e6:.2f} MB")
        for p in points
    ]
    qnl, bdn = pts["quicknet_large"], pts["binarydensenet45"]
    out += [
        Claim(f"{fig}.front", "latency/accuracy Pareto front",
              "QuickNet advances it", "contains " + ", ".join(QUICKNETS),
              " → ".join(front), set(QUICKNETS) <= set(front)),
        Claim(f"{fig}.dominated", "BinaryDenseNet / MeliusNet on the front",
              "trade accuracy for latency", "neither " + " nor ".join(DOMINATED),
              ", ".join(m for m in DOMINATED if m in front) or "neither",
              not set(DOMINATED) & set(front)),
        Claim(f"{fig}.qnl_vs_bdn45", "QuickNet Large vs BinaryDenseNet45",
              "", "faster and more accurate",
              f"{qnl.latency_ms:.1f} vs {bdn.latency_ms:.1f} ms, "
              f"{qnl.top1_accuracy:.1f} vs {bdn.top1_accuracy:.1f} %",
              qnl.latency_ms < bdn.latency_ms and qnl.top1_accuracy > bdn.top1_accuracy),
        below(f"{fig}.binary_alexnet.top1", "binary_alexnet top-1", "least accurate",
              pts["binary_alexnet"].top1_accuracy, 40, "{:.1f} %"),
        below(f"{fig}.xnornet.top1", "xnornet top-1", "least accurate",
              pts["xnornet"].top1_accuracy, 50, "{:.1f} %"),
    ]
    return out


def sketch(data: list[ModelPoint]) -> str:
    series = {p.model: [(p.latency_ms, p.top1_accuracy)] for p in data}
    return ascii_scatter(
        series, log_x=True, log_y=False, x_label="latency ms", y_label="top-1 %"
    )
