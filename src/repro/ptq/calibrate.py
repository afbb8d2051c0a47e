"""Activation-range calibration for post-training quantization."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.bitpack import PackedTensor
from repro.graph.executor import Executor
from repro.graph.ir import Graph


@dataclass
class TensorRanges:
    """Observed (min, max) per tensor over the calibration set."""

    ranges: dict[str, tuple[float, float]] = field(default_factory=dict)

    def update(self, tensor: str, value: np.ndarray) -> None:
        lo, hi = float(value.min()), float(value.max())
        if tensor in self.ranges:
            old_lo, old_hi = self.ranges[tensor]
            lo, hi = min(lo, old_lo), max(hi, old_hi)
        self.ranges[tensor] = (lo, hi)

    def range_of(self, tensor: str) -> tuple[float, float]:
        try:
            return self.ranges[tensor]
        except KeyError:
            raise KeyError(f"tensor {tensor!r} was never calibrated") from None


def calibrate(graph: Graph, batches: list[np.ndarray]) -> TensorRanges:
    """Run calibration batches through the graph, recording value ranges.

    Bitpacked tensors are skipped (their values are +/-1 by construction
    and they never feed the int8 rewrite).
    """
    if not batches:
        raise ValueError("need at least one calibration batch")
    ranges = TensorRanges()
    for batch in batches:
        reference = Executor(graph, record_values=True)
        reference.run(batch)
        for tensor, value in reference.values.items():
            if isinstance(value, PackedTensor):
                continue
            ranges.update(tensor, np.asarray(value))
    return ranges
