"""Measurement-driven architecture design, the paper's Section 5 thesis.

The paper argues that *measured* latency — not MAC counts — should drive
BNN architecture design, and builds QuickNet that way.  This example
replays that workflow: enumerate QuickNet-style candidate architectures,
estimate each one's latency on the device model, check how badly an
eMAC-based ranking would have misled us, and pick the best architecture
under a latency budget.

Run with::

    python examples/latency_aware_design.py [budget_ms]
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from repro.analysis.macs import count_macs
from repro.converter import convert
from repro.hw import DeviceModel
from repro.hw.latency import graph_latency
from repro.zoo.quicknet_variants import quicknet
from repro.zoo.resnet_variants import binary_resnet18


@dataclass
class Candidate:
    name: str
    latency_ms: float
    emacs_m: float
    binary_fraction: float


def evaluate(name: str, graph, device) -> Candidate:
    model = convert(graph)
    macs = count_macs(model.graph)
    return Candidate(
        name=name,
        latency_ms=graph_latency(device, model.graph).total_ms,
        emacs_m=(macs.full_precision + macs.binary / 15.0) / 1e6,
        binary_fraction=macs.binary / macs.total,
    )


def main(budget_ms: float = 30.0) -> None:
    device = DeviceModel.pixel1()
    print(f"latency budget: {budget_ms:.0f} ms on {device.name}\n")

    candidates = []
    for variant in ("small", "medium", "large"):
        print(f"evaluating quicknet_{variant}...")
        candidates.append(
            evaluate(f"quicknet_{variant}", quicknet(variant), device)
        )
    for variant in ("A", "C"):
        print(f"evaluating binary_resnet18_{variant}...")
        candidates.append(
            evaluate(f"binary_resnet18_{variant}", binary_resnet18(variant), device)
        )

    print(f"\n{'architecture':>22} {'latency ms':>11} {'eMACs (M)':>10} {'binary %':>9}")
    for c in sorted(candidates, key=lambda c: c.latency_ms):
        print(f"{c.name:>22} {c.latency_ms:>11.1f} {c.emacs_m:>10.0f} "
              f"{100 * c.binary_fraction:>8.0f}%")

    # Would an eMAC ranking and a latency ranking agree?
    by_latency = [c.name for c in sorted(candidates, key=lambda c: c.latency_ms)]
    by_emacs = [c.name for c in sorted(candidates, key=lambda c: c.emacs_m)]
    print(f"\nranking by measured latency: {by_latency}")
    print(f"ranking by eMACs:            {by_emacs}")
    if by_latency != by_emacs:
        print("-> the proxy metric mis-ranks candidates; measure, don't count "
              "(paper Section 5.3)")

    feasible = [c for c in candidates if c.latency_ms <= budget_ms]
    if feasible:
        best = max(feasible, key=lambda c: c.binary_fraction)
        print(f"\npick under budget: {best.name} "
              f"({best.latency_ms:.1f} ms, {100 * best.binary_fraction:.0f}% binary)")
    else:
        print(f"\nno candidate fits {budget_ms:.0f} ms; cheapest is "
              f"{by_latency[0]} at {min(c.latency_ms for c in candidates):.1f} ms")


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 30.0)
