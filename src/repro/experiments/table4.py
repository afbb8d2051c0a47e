"""Table 4 — per-operator latency shares of QuickNet on the RPi 4B.

Paper values (single-threaded):

======================================  ===========
Operator                                Latency (%)
======================================  ===========
LceQuantize                             3.52
LceBConv2d (accumulation loop)          53.41
LceBConv2d (output transformation)      3.68
Full precision Conv2D                   20.15
Full precision Add                      9.55
All other full precision                9.69
======================================  ===========
"""

from __future__ import annotations

from repro.converter import convert
from repro.experiments.reporting import format_table
from repro.hw.device import DeviceModel
from repro.profiling import OpClassShare, profile_graph, quicknet_table4_rows
from repro.zoo import quicknet

PAPER_SHARES = {
    "LceQuantize": 3.52,
    "LceBConv2d (accumulation loop)": 53.41,
    "LceBConv2d (output transformation)": 3.68,
    "Full precision Conv2D": 20.15,
    "Full precision Add": 9.55,
    "All other full precision": 9.69,
}


def run(device: str = "rpi4b") -> list[OpClassShare]:
    dev = DeviceModel.by_name(device)
    model = convert(quicknet("medium"))
    profiles = profile_graph(dev, model.graph)
    return quicknet_table4_rows(profiles)


def main(device: str = "rpi4b") -> None:
    shares = run(device)
    rows = [
        (s.op_class, f"{s.share_percent:.2f}", f"{PAPER_SHARES.get(s.op_class, float('nan')):.2f}")
        for s in shares
    ]
    print(
        format_table(
            ["Operator", "Latency (%)", "paper (%)"],
            rows,
            title=f"Table 4: QuickNet operator latency shares on {device}",
        )
    )


if __name__ == "__main__":
    main()
