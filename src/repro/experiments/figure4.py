"""Figure 4 — LCE vs DaBNN vs TVM on representative binarized convolutions,
plus the BiRealNet end-to-end comparison of Section 4.2.

Measured on the Raspberry Pi 4B (the paper could not deploy all frameworks
on the Pixel 1).  Paper anchors: LCE is fastest on every convolution;
BiRealNet end-to-end is 86.8 ms under LCE vs 119.8 ms under DaBNN, while
the TVM measurement was dominated by an anomalous 830 ms first-layer
fallback.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.converter import convert
from repro.experiments.figure2 import RESNET18_CONVS
from repro.experiments.reporting import Claim, above, near, record
from repro.hw.device import DeviceModel
from repro.hw.frameworks import FRAMEWORKS, TVM_BIREALNET_FIRST_CONV_FALLBACK_S
from repro.hw.latency import graph_latency
from repro.zoo import birealnet18

COMPARED_FRAMEWORKS = ("lce", "dabnn", "tvm")


@dataclass(frozen=True)
class FrameworkConvResult:
    label: str
    framework: str
    latency_ms: float


def run_convs(device: str = "rpi4b") -> list[FrameworkConvResult]:
    """Binary conv latencies per framework (the bars of Figure 4)."""
    dev = DeviceModel.by_name(device)
    out = []
    for label, hw, c in RESNET18_CONVS:
        for fw_name in COMPARED_FRAMEWORKS:
            fw = FRAMEWORKS[fw_name]
            ms = fw.binary_conv_latency(dev, hw, hw, c).total_ms
            out.append(FrameworkConvResult(label, fw_name, ms))
    return out


def run_birealnet(device: str = "rpi4b") -> dict[str, float]:
    """End-to-end BiRealNet latency (ms) per framework.

    The TVM entry includes the paper's observed 830 ms first-layer
    fallback; ``tvm (kernels only)`` is the model without that anomaly.
    """
    dev = DeviceModel.by_name(device)
    model = convert(birealnet18())
    results: dict[str, float] = {}
    for fw_name in COMPARED_FRAMEWORKS:
        fw = FRAMEWORKS[fw_name]
        eng = fw.device_for(dev)
        total = graph_latency(eng, model.graph).total_s
        if not fw.fused_glue:
            # Stand-alone runtimes (DaBNN) run the glue LCE fuses into the
            # conv — scaling, batch norm and re-binarization — as separate
            # passes over the full-precision conv outputs: roughly four
            # extra reads/writes of each binary conv's output tensor.
            for node in model.graph.nodes:
                if node.op != "lce_bconv2d":
                    continue
                out_spec = model.graph.tensors[node.outputs[0]]
                float_bytes = out_spec.num_elements * 4.0
                glue_cycles = 4.0 * float_bytes / eng.eltwise_bytes_per_cycle
                total += eng.cycles_to_seconds(glue_cycles) + eng.op_overhead_s
        results[fw_name] = total * 1e3
    results["tvm (with first-layer fallback)"] = (
        results["tvm"] + TVM_BIREALNET_FIRST_CONV_FALLBACK_S * 1e3
    )
    return results


def run(device: str = "rpi4b") -> dict:
    return {"convs": run_convs(device), "birealnet_ms": run_birealnet(device)}


def claims(device: str = "rpi4b", data: dict | None = None) -> list[Claim]:
    data = data or run(device)
    by_label: dict[str, dict[str, float]] = {}
    for r in data["convs"]:
        by_label.setdefault(r.label, {})[r.framework] = r.latency_ms
    out = [
        Claim(f"F4.{label}.lce_fastest", f"conv {label} latency, " + " / ".join(COMPARED_FRAMEWORKS),
              "LCE fastest", "lce < dabnn, tvm",
              " / ".join(f"{vals[fw]:.3f}" for fw in COMPARED_FRAMEWORKS) + " ms",
              vals["lce"] < vals["dabnn"] and vals["lce"] < vals["tvm"])
        for label, vals in by_label.items()
    ]
    e2e = data["birealnet_ms"]
    out += [
        near("F4.birealnet.lce", "BiRealNet end to end, LCE", 86.8, e2e["lce"],
             0.1, "{:.1f} ms", relative=True),
        near("F4.birealnet.dabnn", "BiRealNet end to end, DaBNN", 119.8, e2e["dabnn"],
             0.15, "{:.1f} ms", relative=True),
        near("F4.birealnet.ratio", "BiRealNet DaBNN / LCE", 1.38,
             e2e["dabnn"] / e2e["lce"], 0.2, "{:.2f}x"),
        above("F4.birealnet.tvm", "BiRealNet end to end, TVM with first-layer fallback",
              "dominated by an 830 ms fallback", e2e["tvm (with first-layer fallback)"],
              800, "{:.1f} ms"),
        record("F4.birealnet.tvm_kernels", "BiRealNet end to end, TVM kernels only",
               "", f"{e2e['tvm']:.1f} ms"),
    ]
    return out
