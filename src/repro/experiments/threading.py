"""Extension experiment — multi-threaded inference scaling.

Not a paper figure, but a paper *claim*: LCE inherits multi-threaded
inference from the TFLite/Ruy infrastructure, whereas DaBNN "does not
support multi-threaded inference" (Section 2.3).  This experiment
quantifies what that difference is worth: QuickNet end-to-end latency
under 1-4 threads for each engine, priced by the analytical device model
(the paper's methodology).  The host engine is single-threaded — it
spends cores on serving replicas (DESIGN.md section 6) — so only the
model scales.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.converter import convert
from repro.experiments.reporting import Claim, above, record
from repro.hw.device import DeviceModel
from repro.hw.frameworks import FRAMEWORKS
from repro.hw.latency import graph_latency
from repro.zoo import quicknet

THREAD_COUNTS = (1, 2, 4)


@dataclass(frozen=True)
class ThreadingResult:
    framework: str
    threads: int
    latency_ms: float


def run(device: str = "rpi4b", model_variant: str = "medium") -> list[ThreadingResult]:
    dev = DeviceModel.by_name(device)
    model = convert(quicknet(model_variant))
    results = []
    for fw_name in ("lce", "dabnn"):
        fw = FRAMEWORKS[fw_name]
        eng = fw.device_for(dev)
        for threads in THREAD_COUNTS:
            effective = threads if fw.multithreaded else 1
            ms = graph_latency(eng, model.graph, threads=effective).total_ms
            results.append(ThreadingResult(fw_name, threads, ms))
    return results


def claims(device: str = "rpi4b", data: list[ThreadingResult] | None = None) -> list[Claim]:
    by_fw: dict[str, dict[int, float]] = {}
    for r in data or run(device):
        by_fw.setdefault(r.framework, {})[r.threads] = r.latency_ms
    threads = "/".join(str(t) for t in THREAD_COUNTS)
    out = [
        record(f"E1.{fw}", f"QuickNet on {fw}, {threads} threads", "",
               " / ".join(f"{ms[t]:.1f}" for t in THREAD_COUNTS) + " ms")
        for fw, ms in by_fw.items()
    ]
    lce, dabnn = by_fw["lce"], by_fw["dabnn"]
    top = max(THREAD_COUNTS)
    out += [
        above("E1.lce_scaling", f"LCE 1 / {top} threads", "inherits Ruy threading",
              lce[1] / lce[top], 2.0, "{:.2f}x"),
        Claim("E1.dabnn_flat", f"DaBNN 1 vs {top} threads", "single-threaded",
              "equal", f"{dabnn[1]:.1f} vs {dabnn[top]:.1f} ms", dabnn[top] == dabnn[1]),
    ]
    return out
