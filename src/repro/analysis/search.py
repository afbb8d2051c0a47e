"""Latency-constrained architecture search over QuickNet configurations.

The paper's closing direction: "it has now become possible to unify the
emerging field of binarized neural architecture search with the
hardware-in-the-loop based approaches".  This module is the minimal
hardware-in-the-loop searcher: enumerate QuickNet-style (N, k)
configurations, put every candidate through the *real* pipeline (build ->
convert -> device-model latency), and return the highest-capacity designs
under a latency budget.

Capacity is proxied by binary MAC count — an honest, declared proxy (we
cannot train ImageNet candidates offline; within a family, MACs correlate
with accuracy, cf. Table 3 where QuickNet-Large > Medium > Small in both).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.analysis.macs import count_macs
from repro.converter import convert
from repro.graph.builder import GraphBuilder
from repro.hw.device import DeviceModel
from repro.hw.latency import graph_latency
from repro.zoo.common import (
    WeightFactory,
    antialiased_maxpool,
    binary_conv,
    classifier_head,
    conv_bn,
)

#: default candidate lattice (kept coarse: each evaluation builds and
#: converts a full 224x224 model)
DEFAULT_LAYER_CHOICES: tuple[tuple[int, ...], ...] = (
    (2, 2, 2, 2),
    (4, 4, 4, 4),
    (6, 8, 12, 6),
)
DEFAULT_FILTER_CHOICES: tuple[tuple[int, ...], ...] = (
    (32, 64, 128, 256),
    (32, 64, 256, 512),
    (64, 128, 256, 512),
)


@dataclass(frozen=True)
class CandidateResult:
    layers: tuple[int, ...]
    filters: tuple[int, ...]
    latency_ms: float
    binary_macs: int
    param_bytes: int

    @property
    def name(self) -> str:
        return f"quicknet[N={self.layers}, k={self.filters}]"


def build_quicknet_config(
    layers: Sequence[int],
    filters: Sequence[int],
    input_size: int = 224,
    classes: int = 1000,
    seed: int = 0,
):
    """A QuickNet-style training graph for an arbitrary (N, k) config."""
    if len(layers) != len(filters):
        raise ValueError("layers and filters must have the same length")
    from repro.core.types import Padding

    wf = WeightFactory(seed)
    b = GraphBuilder((1, input_size, input_size, 3), name="quicknet_candidate")
    x = conv_bn(b, wf, b.input, 3, 16, kernel=3, stride=2)
    x = b.depthwise_conv2d(x, wf.depthwise(3, 3, 16), stride=2)
    x = conv_bn(b, wf, x, 16, filters[0], kernel=1, activation=False)
    for section, (n_layers, k) in enumerate(zip(layers, filters)):
        for _ in range(n_layers):
            h = binary_conv(b, wf, x, k, k, kernel=3, padding=Padding.SAME_ONE)
            h = b.relu(h)
            h = b.batch_norm(h, wf.bn(k))
            x = b.add(h, x)
        if section < len(filters) - 1:
            x = antialiased_maxpool(b, wf, x, k)
            x = conv_bn(b, wf, x, k, filters[section + 1], kernel=1, activation=False)
    x = b.relu(x)
    return b.finish(classifier_head(b, wf, x, filters[-1], classes))


def evaluate_candidate(
    layers: Sequence[int],
    filters: Sequence[int],
    device: DeviceModel,
    input_size: int = 224,
) -> CandidateResult:
    """Hardware-in-the-loop evaluation: build, convert, estimate latency."""
    model = convert(build_quicknet_config(layers, filters, input_size=input_size))
    macs = count_macs(model.graph)
    return CandidateResult(
        layers=tuple(layers),
        filters=tuple(filters),
        latency_ms=graph_latency(device, model.graph).total_ms,
        binary_macs=macs.binary,
        param_bytes=model.graph.param_nbytes(),
    )


def search(
    budget_ms: float,
    device: DeviceModel | None = None,
    layer_choices: Iterable[tuple[int, ...]] = DEFAULT_LAYER_CHOICES,
    filter_choices: Iterable[tuple[int, ...]] = DEFAULT_FILTER_CHOICES,
    input_size: int = 224,
) -> list[CandidateResult]:
    """Evaluate the candidate lattice; return feasible designs, best first.

    "Best" = most binary MACs under the latency budget (the declared
    capacity proxy; see module docstring).
    """
    if budget_ms <= 0:
        raise ValueError("budget_ms must be positive")
    device = device or DeviceModel.pixel1()
    results = [
        evaluate_candidate(layers, filters, device, input_size)
        for layers in layer_choices
        for filters in filter_choices
    ]
    feasible = [r for r in results if r.latency_ms <= budget_ms]
    return sorted(feasible, key=lambda r: -r.binary_macs)
