"""Extension experiment — whole-model latency across precisions.

The paper compares precisions per *convolution* (Figure 2) and notes that
near-lossless int8 quantization of ResNet-class networks is commonplace.
This extension runs the comparison at the *model* level: the same
ResNet-18 as float32, as an int8 post-training-quantized model
(:mod:`repro.ptq`), binarized with full shortcuts (Figure 8 variant A),
and as a *hybrid* — binary convolutions with every remaining
full-precision layer quantized to int8, the best-case mobile deployment.

Whole-model speedups are necessarily smaller than per-conv speedups: the
stem, shortcuts and classifier stay full precision in the binarized model
(Amdahl), which is exactly the bottleneck structure Figure 5 profiles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.converter import convert
from repro.experiments.reporting import Claim, record
from repro.hw.device import DeviceModel
from repro.hw.latency import graph_latency
from repro.ptq import quantize_model
from repro.zoo.resnet_variants import binary_resnet18, resnet18_float


@dataclass(frozen=True)
class PrecisionResult:
    precision: str
    latency_ms: float
    param_bytes: int


def run(device: str = "pixel1", input_size: int = 224) -> list[PrecisionResult]:
    dev = DeviceModel.by_name(device)
    results = []

    float_graph = resnet18_float(input_size=input_size)
    results.append(
        PrecisionResult(
            "float32",
            graph_latency(dev, float_graph).total_ms,
            float_graph.param_nbytes(),
        )
    )

    rng = np.random.default_rng(0)
    calibration = [
        rng.standard_normal((1, input_size, input_size, 3)).astype(np.float32)
        for _ in range(2)
    ]
    int8_graph = quantize_model(float_graph, calibration)
    results.append(
        PrecisionResult(
            "int8 (PTQ)",
            graph_latency(dev, int8_graph).total_ms,
            int8_graph.param_nbytes(),
        )
    )

    binary = convert(binary_resnet18("A", input_size=input_size))
    results.append(
        PrecisionResult(
            "binary (LCE)",
            graph_latency(dev, binary.graph).total_ms,
            binary.graph.param_nbytes(),
        )
    )

    # Best-case mobile deployment: binarized convolutions + int8 for every
    # remaining full-precision layer (stem, shortcuts, classifier).  The
    # PTQ rewrite composes directly with the converted LCE graph.
    hybrid = quantize_model(binary.graph, calibration)
    results.append(
        PrecisionResult(
            "binary + int8 (hybrid)",
            graph_latency(dev, hybrid).total_ms,
            hybrid.param_nbytes(),
        )
    )
    return results


def claims(device: str = "pixel1", data: list[PrecisionResult] | None = None) -> list[Claim]:
    results = data or run(device)
    base = results[0].latency_ms
    out = [
        record(f"E2.{key}", f"ResNet-18 {r.precision}: latency (speedup), params", "",
               f"{r.latency_ms:.1f} ms ({base / r.latency_ms:.1f}x), "
               f"{r.param_bytes / 1e6:.1f} MB")
        for key, r in zip(("float32", "int8", "binary", "hybrid"), results)
    ]
    ms = {r.precision: r.latency_ms for r in results}
    binary, int8, fp = ms["binary (LCE)"], ms["int8 (PTQ)"], ms["float32"]
    out.append(Claim("E2.order", "latency by precision", "", "binary < int8 < float32",
                     f"{binary:.1f} / {int8:.1f} / {fp:.1f} ms", binary < int8 < fp))
    return out
