"""Figure 10 (and appendix Figure 15) — are MACs a useful latency proxy?

The paper combines binary and fp MACs into *eMACs* (15 binary MACs = 1 fp
MAC on the Pixel 1; 17 on the RPi 4B, from the Table 2/5 measurements) and
compares against measured latency: MACs track latency within a model
family, but break down across architectures — Binary AlexNet is almost 2x
slower than models with the same eMACs while matching the latency of
models with over 3x the eMACs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.macs import PIXEL1_BINARY_RATIO, RPI4B_BINARY_RATIO
from repro.analysis.regression import loglog_fit
from repro.experiments import figure7
from repro.experiments.reporting import Claim, above, below, equal, record


@dataclass(frozen=True)
class EmacPoint:
    model: str
    family: str
    emacs: float
    latency_ms: float


def binary_ratio_for(device: str) -> float:
    return PIXEL1_BINARY_RATIO if device == "pixel1" else RPI4B_BINARY_RATIO


def run(device: str = "pixel1") -> dict:
    return fit(figure7.run(device), device)


def fit(points: list[figure7.ModelPoint], device: str = "pixel1") -> dict:
    """eMAC/latency points of Figure 7's ``points``, the global fit, and
    per-point deviations."""
    ratio = binary_ratio_for(device)
    points = [
        EmacPoint(
            model=p.model,
            family=p.family,
            emacs=p.fp_macs + p.binary_macs / ratio,
            latency_ms=p.latency_ms,
        )
        for p in points
    ]
    global_fit = loglog_fit([p.emacs for p in points], [p.latency_ms for p in points])
    deviations = {
        p.model: p.latency_ms / float(global_fit.predict(p.emacs)) for p in points
    }
    # Within-family correlation (families with >= 2 members).
    families: dict[str, list[EmacPoint]] = {}
    for p in points:
        families.setdefault(p.family, []).append(p)
    # A fit needs >= 2 *distinct* eMAC values (Binary AlexNet and XNOR-Net
    # share an architecture and therefore an eMAC count).
    family_fits = {
        fam: loglog_fit([p.emacs for p in pts], [p.latency_ms for p in pts])
        for fam, pts in families.items()
        if len({p.emacs for p in pts}) >= 2
    }
    return {
        "points": points,
        "fit": global_fit,
        "deviations": deviations,
        "family_fits": family_fits,
        "binary_ratio": ratio,
    }


#: per device: artifact id, paper's eMAC ratio, Binary AlexNet's bound
_PAPER = {"pixel1": ("F10", 15, 1.05), "rpi4b": ("F15", 17, 1.0)}


def claims(device: str = "pixel1", data: dict | None = None) -> list[Claim]:
    fig, ratio, alexnet_bound = _PAPER[device]
    data = data or run(device)
    devs = data["deviations"]
    out = [
        record(f"{fig}.{p.model}", f"{p.model}: eMACs, latency, vs global fit", "",
               f"{p.emacs / 1e6:.0f}M, {p.latency_ms:.1f} ms, {devs[p.model]:.2f}x")
        for p in sorted(data["points"], key=lambda p: p.emacs)
    ]
    out.append(equal(f"{fig}.ratio", "binary MACs per fp MAC", str(ratio),
                     data["binary_ratio"], ratio, "{:.0f}"))
    out += [
        above(f"{fig}.{family}.r2", f"{family} within-family R²", "good proxy",
              family_fit.r_squared, 0.9, "{:.3f}")
        for family, family_fit in data["family_fits"].items()
    ]
    out += [
        record(f"{fig}.global_r2", "global fit R²", "breaks down across families",
               f"{data['fit'].r_squared:.3f}"),
        above(f"{fig}.binary_alexnet.vs_fit", "Binary AlexNet vs global fit",
              "~2x slower than same-eMAC models", devs["binary_alexnet"],
              alexnet_bound, "{:.2f}x"),
        below(f"{fig}.quicknet_large.vs_fit", "QuickNet Large vs global fit", "",
              devs["quicknet_large"], 1.0, "{:.2f}x"),
        above(f"{fig}.spread", "max / min deviation from the global fit",
              "not a uniform proxy", max(devs.values()) / min(devs.values()), 1.3,
              "{:.2f}x"),
    ]
    return out
