"""The evaluation ledger: every experiment's claims, rendered into EXPERIMENTS.md.

Usage::

    python -m repro.experiments.ledger   # rewrite EXPERIMENTS.md's tables

EXPERIMENTS.md marks each generated table as a block naming the experiment
index ids (DESIGN.md section 3) whose claims it holds::

    <!-- ledger: F2 -->
    ...
    <!-- /ledger -->

Everything between the markers is regenerated; the prose around them is
not.  Exits 1 when a claim does not hold.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import Iterator, Sequence

from repro.experiments import (
    ablations,
    figure2,
    figure3,
    figure4,
    figure5,
    figure7,
    figure8,
    figure10,
    model_precision,
    table1,
    table2,
    table3,
    table4,
    threading,
)
from repro.experiments.reporting import Claim, claim_table

EXPERIMENTS_MD = Path(__file__).resolve().parents[3] / "EXPERIMENTS.md"

#: (module, device) per experiment run, in paper order; ``None``: no device
SECTIONS = {
    "main": (
        (table1, None),
        (figure2, "pixel1"),
        (figure3, "pixel1"),
        (table2, "pixel1"),
        (figure4, "rpi4b"),  # the paper measured Figure 4 on the RPi 4B
        (figure5, "pixel1"),
        (table3, "pixel1"),
        (figure7, "pixel1"),
        (figure8, "pixel1"),
        (table4, "rpi4b"),  # Table 4 is RPi 4B single-threaded
        (figure10, "pixel1"),
    ),
    "appendix": (
        (figure2, "rpi4b"),  # Figure 11
        (figure3, "rpi4b"),  # Figure 12
        (table2, "rpi4b"),  # Table 5
        (figure7, "rpi4b"),  # Figure 13
        (figure8, "rpi4b"),  # Figure 14
        (figure10, "rpi4b"),  # Figure 15
    ),
    "extensions": (
        (threading, "rpi4b"),
        (model_precision, "pixel1"),
        (ablations, "pixel1"),
    ),
}

_BLOCK = re.compile(r"(<!-- ledger: ([\w ]+) -->\n).*?(<!-- /ledger -->)", re.S)


def results(entries: Sequence[tuple], zoo: dict | None = None) -> Iterator[tuple]:
    """``(module, device, module.run(device))`` per entry.  Figure 7 prices
    ``zoo`` (``figure7.convert_zoo()``) when given, and Figure 10 fits the
    points Figure 7 already priced on its device."""
    points: dict[str, list] = {}
    for module, device in entries:
        if device is None:
            data = module.run()
        elif module is figure7 and zoo is not None:
            data = figure7.price(zoo, device)
        elif module is figure10 and device in points:
            data = figure10.fit(points[device], device)
        else:
            data = module.run(device)
        if module is figure7:
            points[device] = data
        yield module, device, data


def collect() -> list[Claim]:
    """Every claim of every section, each experiment run once."""
    zoo = figure7.convert_zoo()
    return [
        claim
        for entries in SECTIONS.values()
        for module, device, data in results(entries, zoo)
        for claim in module.claims(device, data)
    ]


def render(text: str, claims: Sequence[Claim]) -> str:
    """``text`` with every ledger block regenerated from ``claims``.

    Raises ``ValueError`` on a duplicate claim id, a block naming an id
    with no claims, or an artifact no block (or two blocks) place.
    """
    ids = [c.id for c in claims]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate claim ids: {sorted({i for i in ids if ids.count(i) > 1})}")
    by_artifact: dict[str, list[Claim]] = {}
    for c in claims:
        by_artifact.setdefault(c.artifact, []).append(c)
    placed: list[str] = []

    def block(m: re.Match) -> str:
        names = m.group(2).split()
        unknown = [n for n in names if n not in by_artifact]
        if unknown:
            raise ValueError(f"ledger block names artifacts without claims: {unknown}")
        placed.extend(names)
        rows = [c for n in names for c in by_artifact[n]]
        return f"{m.group(1)}{claim_table(rows)}\n{m.group(3)}"

    out = _BLOCK.sub(block, text)
    if sorted(placed) != sorted(by_artifact):
        raise ValueError(
            f"artifacts not placed exactly once: placed {sorted(placed)}, "
            f"claimed {sorted(by_artifact)}"
        )
    return out


def main() -> int:
    claims = collect()
    EXPERIMENTS_MD.write_text(render(EXPERIMENTS_MD.read_text(), claims))
    failing = [c.id for c in claims if c.holds is False]
    banded = sum(c.holds is not None for c in claims)
    print(f"{EXPERIMENTS_MD.name}: {len(claims)} rows, {banded} claims, "
          f"{len(failing)} failing {failing or ''}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
