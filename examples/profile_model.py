"""Profile a zoo model at the operator level (Figure 5 / Table 4 style).

Shows the profiling workflow the paper uses to find latency bottlenecks:
per-layer stacks split binary vs full precision, per-op-class shares, and
the Table 4 subdivision of LceBConv2d into accumulation loop and output
transformation.

Run with::

    python examples/profile_model.py [model] [device]

e.g. ``python examples/profile_model.py binarydensenet28 rpi4b``.
"""

from __future__ import annotations

import sys

from repro.converter import convert
from repro.experiments.figure5 import layer_stacks
from repro.experiments.table4 import quicknet_table4_rows
from repro.hw import DeviceModel, graph_latency
from repro.zoo import MODEL_REGISTRY, build_model


def main(model_name: str = "quicknet", device_name: str = "rpi4b") -> None:
    if model_name not in MODEL_REGISTRY:
        raise SystemExit(f"unknown model {model_name!r}; pick from {sorted(MODEL_REGISTRY)}")
    device = DeviceModel.by_name(device_name)

    print(f"building and converting {model_name}...")
    graph = convert(build_model(model_name)).graph
    latency = graph_latency(device, graph)
    total_ms = latency.total_ms
    print(f"{model_name} on {device_name}: {total_ms:.1f} ms end to end\n")

    print("Operator-class breakdown (Table 4 style):")
    for row in quicknet_table4_rows(graph, latency):
        bar = "#" * int(row.share_percent / 2)
        print(f"  {row.op_class:38s} {row.share_percent:6.2f}%  {bar}")

    print("\nPer-layer stack (Figure 5 style; binary '=' vs full precision '#'):")
    stacks = layer_stacks(graph, latency)
    scale = 60 / max(s["binary_s"] + s["full_precision_s"] for s in stacks)
    for s in stacks:
        binary = "=" * int(s["binary_s"] * scale)
        fp = "#" * int(s["full_precision_s"] * scale)
        ms = (s["binary_s"] + s["full_precision_s"]) * 1e3
        print(f"  layer {s['layer']:>3} {ms:7.3f} ms |{binary}{fp}")

    first = stacks[0]
    share = 100 * (first["binary_s"] + first["full_precision_s"]) / (total_ms / 1e3)
    print(f"\nfirst layer share: {share:.1f}% "
          "(the bottleneck QuickNet's stem was designed to remove)")


if __name__ == "__main__":
    main(*sys.argv[1:3])
