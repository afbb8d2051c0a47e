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
from repro.experiments.reporting import format_table
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


def main(device: str = "rpi4b") -> None:
    results = run(device)
    by_fw: dict[str, dict[int, float]] = {}
    for r in results:
        by_fw.setdefault(r.framework, {})[r.threads] = r.latency_ms
    rows = [
        (fw, *(f"{by_fw[fw][t]:.1f}" for t in THREAD_COUNTS),
         f"{by_fw[fw][1] / by_fw[fw][max(THREAD_COUNTS)]:.2f}x")
        for fw in by_fw
    ]
    print(
        format_table(
            ["Engine", *(f"{t} thread{'s' if t > 1 else ''} (ms)" for t in THREAD_COUNTS),
             "scaling"],
            rows,
            title=f"Extension: QuickNet multi-threaded inference on {device} "
            "(DaBNN is single-threaded by design)",
        )
    )


if __name__ == "__main__":
    main()
