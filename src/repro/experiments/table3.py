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
from repro.experiments.reporting import Claim, below, equal, record
from repro.hw.device import DeviceModel
from repro.hw.latency import graph_latency
from repro.zoo import MODEL_REGISTRY
from repro.zoo.quicknet_variants import QUICKNET_VARIANTS, quicknet

#: paper Table 3 accuracy rows (train %, eval %)
PAPER_ACCURACY = {
    "small": (59.9, 59.4),
    "medium": (64.3, 63.3),
    "large": (59.1, 66.9),
}

#: paper Table 3 layers per section N / filters per section k
PAPER_CONFIG = {
    "small": "(4,4,4,4) / (32,64,256,512)",
    "medium": "(4,4,4,4) / (64,128,256,512)",
    "large": "(6,8,12,6) / (64,128,256,512)",
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


def _ordered(rows: list[QuickNetRow], key) -> bool:
    values = [key(r) for r in rows]
    return all(a < b for a, b in zip(values, values[1:]))


def claims(device: str = "pixel1", data: list[QuickNetRow] | None = None) -> list[Claim]:
    rows = data or run(device)
    out = []
    for r in rows:
        config = f"{r.layers} / {r.filters}".replace(" ", "").replace("/", " / ")
        out += [
            equal(f"T3.{r.variant}.config", f"{r.variant}: N / k", PAPER_CONFIG[r.variant],
                  config, PAPER_CONFIG[r.variant]),
            equal(f"T3.{r.variant}.eval", f"{r.variant}: eval top-1 % (registry)",
                  f"{PAPER_ACCURACY[r.variant][1]}", r.eval_accuracy,
                  PAPER_ACCURACY[r.variant][1]),
            record(f"T3.{r.variant}.macs", f"{r.variant}: binary + fp MACs", "",
                   f"{r.binary_macs / 1e9:.2f} G + {r.fp_macs / 1e6:.0f} M"),
            below(f"T3.{r.variant}.size", f"{r.variant}: converted model size", "",
                  r.model_size_bytes / 1e6, 8.0, "{:.2f} MB"),
            record(f"T3.{r.variant}.latency", f"{r.variant}: latency ({device})", "",
                   f"{r.latency_ms:.1f} ms"),
        ]
    order = " < ".join(r.variant for r in rows)
    out.append(Claim("T3.latency_order", "latency order", "", order,
                     " / ".join(f"{r.latency_ms:.1f}" for r in rows) + " ms",
                     _ordered(rows, lambda r: r.latency_ms)))
    out.append(Claim("T3.accuracy_order", "eval accuracy order", order, order,
                     " / ".join(f"{r.eval_accuracy:.1f}" for r in rows),
                     _ordered(rows, lambda r: r.eval_accuracy)))
    return out
