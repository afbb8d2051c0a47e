"""Table 1 — Neon MAC instruction analysis on the Cortex-A76.

Regenerates the instruction sequences, per-class throughputs and the
resulting theoretical MAC throughput per precision, including the paper's
"1024 binary MACs using 24 instructions ... 13 cycles, or equivalently
just over 78 MACs per cycle".
"""

from __future__ import annotations

from repro.experiments.reporting import Claim, equal, near
from repro.hw import isa


def run() -> dict:
    """Table rows plus the reference-block analysis."""
    return {
        "rows": isa.mac_instruction_table(),
        "binary_block": {
            "macs": isa.BINARY_BLOCK_MACS,
            "instructions": sum(isa.BINARY_BLOCK_SEQUENCE.values()),
            "cycles": isa.binary_block_cycles(),
            "macs_per_cycle": isa.BINARY_MACS_PER_CYCLE,
        },
    }


def claims(device: str | None = None, data: dict | None = None) -> list[Claim]:
    """Table 1's rows; the analysis models one core, so ``device`` is unused."""
    data = data or run()
    rows = {r["precision"]: r for r in data["rows"]}
    blk = data["binary_block"]

    def mac(precision: str, paper: int) -> Claim:
        seq = " + ".join(f"`{s}`" for s in rows[precision]["sequence"])
        return equal(f"T1.{precision}", f"{precision} MACs/cycle ({seq})",
                     str(paper), rows[precision]["macs_per_cycle"], paper, "{:.2f}")

    return [
        mac("float", 8),
        mac("8-bit", 32),
        near("T1.binary", "binary MACs/cycle (" + " + ".join(
            f"`{s}`" for s in rows["binary"]["sequence"]) + ")",
             78.77, rows["binary"]["macs_per_cycle"], 0.01, "{:.2f}"),
        equal("T1.block_macs", "binary reference block: MACs", "1024",
              blk["macs"], 1024),
        equal("T1.block_instructions", "binary reference block: instructions",
              "24", blk["instructions"], 24),
        equal("T1.block_cycles", "binary reference block: cycles", "13",
              blk["cycles"], 13, "{:.0f}"),
    ]
