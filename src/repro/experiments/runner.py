"""Run every experiment and print its ledger rows (and the figures' sketches).

Usage::

    python -m repro.experiments.runner               # main text (pixel1/rpi4b)
    python -m repro.experiments.runner --appendix    # RPi 4B appendix variants
    python -m repro.experiments.runner --extensions  # beyond-the-paper extras

The rows are the ones ``python -m repro.experiments.ledger`` writes into
EXPERIMENTS.md.
"""

from __future__ import annotations

import sys

from repro.experiments.ledger import SECTIONS, results
from repro.experiments.reporting import claim_table


def _print(section: str) -> None:
    for module, device, data in results(SECTIONS[section]):
        claims = module.claims(device, data)
        artifacts = " / ".join(dict.fromkeys(c.artifact for c in claims))
        print(f"{artifacts} ({device or 'Cortex-A76'})")
        print(claim_table(claims))
        if hasattr(module, "sketch"):
            print()
            print(module.sketch(data))
        print()


def run_main_text() -> None:
    """The main-text artifacts (Pixel 1 unless stated otherwise)."""
    _print("main")


def run_appendix() -> None:
    """Appendix: the same experiments on the Raspberry Pi 4B."""
    _print("appendix")


def run_extensions() -> None:
    """Beyond the paper: multi-threading, whole-model precision, ablations."""
    _print("extensions")


if __name__ == "__main__":
    if "--appendix" in sys.argv:
        run_appendix()
    elif "--extensions" in sys.argv:
        run_extensions()
    else:
        run_main_text()
