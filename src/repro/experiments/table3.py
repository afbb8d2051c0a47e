"""Table 3 — QuickNet variants: architecture, accuracy and derived stats.

The paper's table lists layers-per-section N, filters-per-section k, and
ImageNet train/eval accuracy for the three QuickNet models.  Accuracy is
registry data (ImageNet is unavailable offline — see DESIGN.md); the
architectural facts (N, k, MACs, parameter size, latency) are measured
from the graphs we build, and a scaled-down training-run smoke test lives
in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.macs import count_macs
from repro.converter import convert
from repro.experiments.reporting import format_table
from repro.hw.device import DeviceModel
from repro.hw.latency import graph_latency
from repro.zoo import MODEL_REGISTRY
from repro.zoo.quicknet import QUICKNET_VARIANTS, quicknet

#: paper Table 3 accuracy rows (train %, eval %)
PAPER_ACCURACY = {
    "small": (59.9, 59.4),
    "medium": (64.3, 63.3),
    "large": (59.1, 66.9),
}

_REGISTRY_NAME = {"small": "quicknet_small", "medium": "quicknet", "large": "quicknet_large"}


@dataclass(frozen=True)
class QuickNetRow:
    variant: str
    layers: tuple[int, ...]
    filters: tuple[int, ...]
    eval_accuracy: float
    binary_macs: int
    fp_macs: int
    model_size_bytes: int
    latency_ms: float


def run(device: str = "pixel1") -> list[QuickNetRow]:
    dev = DeviceModel.by_name(device)
    rows = []
    for variant, (layers, filters) in QUICKNET_VARIANTS.items():
        converted = convert(quicknet(variant))
        macs = count_macs(converted.graph)
        rows.append(
            QuickNetRow(
                variant=variant,
                layers=layers,
                filters=filters,
                eval_accuracy=MODEL_REGISTRY[_REGISTRY_NAME[variant]].top1_accuracy,
                binary_macs=macs.binary,
                fp_macs=macs.full_precision,
                model_size_bytes=converted.graph.param_nbytes(),
                latency_ms=graph_latency(dev, converted.graph).total_ms,
            )
        )
    return rows


def main(device: str = "pixel1") -> None:
    rows = run(device)
    table_rows = [
        (
            r.variant,
            str(r.layers),
            str(r.filters),
            f"{r.eval_accuracy:.1f}",
            f"{r.binary_macs / 1e9:.2f}G",
            f"{r.fp_macs / 1e6:.0f}M",
            f"{r.model_size_bytes / 1e6:.2f}MB",
            f"{r.latency_ms:.1f}",
        )
        for r in rows
    ]
    print(
        format_table(
            ["Variant", "N", "k", "eval %", "binary MACs", "fp MACs",
             "size", f"latency ms ({device})"],
            table_rows,
            title="Table 3: QuickNet variants",
        )
    )


if __name__ == "__main__":
    main()
