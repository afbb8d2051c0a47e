"""Figure 7 (and appendix Figure 13) — accuracy vs latency for the zoo.

The paper's headline model-level result: QuickNet (with BiRealNet and
RealToBinaryNet) advances the accuracy/latency Pareto front, while
BinaryDenseNet and MeliusNet trade accuracy against clearly worse latency.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.macs import count_macs
from repro.converter import convert
from repro.experiments.reporting import ascii_scatter, format_table
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


def run(device: str = "pixel1", models: tuple[str, ...] | None = None) -> list[ModelPoint]:
    dev = DeviceModel.by_name(device)
    points = []
    for name, info in MODEL_REGISTRY.items():
        if models is not None and name not in models:
            continue
        converted = convert(info.build())
        macs = count_macs(converted.graph)
        points.append(
            ModelPoint(
                model=name,
                family=info.family,
                latency_ms=graph_latency(dev, converted.graph).total_ms,
                top1_accuracy=info.top1_accuracy,
                binary_macs=macs.binary,
                fp_macs=macs.full_precision,
                model_size_bytes=converted.graph.param_nbytes(),
            )
        )
    return sorted(points, key=lambda p: p.latency_ms)


def pareto_front(points: list[ModelPoint]) -> list[str]:
    """Models on the latency/accuracy Pareto front (lower-left to upper-right)."""
    front = []
    best_acc = -1.0
    for p in sorted(points, key=lambda p: p.latency_ms):
        if p.top1_accuracy > best_acc:
            front.append(p.model)
            best_acc = p.top1_accuracy
    return front


def main(device: str = "pixel1") -> None:
    points = run(device)
    figure = "Figure 7" if device == "pixel1" else "Figure 13 (appendix)"
    rows = [
        (
            p.model,
            f"{p.latency_ms:.1f}",
            f"{p.top1_accuracy:.1f}",
            f"{p.binary_macs / 1e6:.0f}M",
            f"{p.fp_macs / 1e6:.0f}M",
            f"{p.model_size_bytes / 1e6:.2f}MB",
        )
        for p in points
    ]
    print(
        format_table(
            ["Model", "latency ms", "top-1 %", "binary MACs", "fp MACs", "size"],
            rows,
            title=f"{figure}: accuracy vs latency on {device}",
        )
    )
    print()
    series = {p.model: [(p.latency_ms, p.top1_accuracy)] for p in points}
    print(
        ascii_scatter(
            series, log_x=True, log_y=False,
            x_label="latency ms", y_label="top-1 %",
        )
    )
    print("\nPareto front:", " -> ".join(pareto_front(points)))


if __name__ == "__main__":
    main()
