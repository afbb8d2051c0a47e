"""Experiment harness: one module per table/figure of the paper.

Every module exposes a ``run(device="pixel1"|"rpi4b") -> data`` function
returning plain data structures, and a ``claims(device, data=None)`` that
states what that data reproduces as ledger rows (paper value, accepted
band, simulated value, whether it holds).  :mod:`repro.experiments.ledger`
renders them into EXPERIMENTS.md and :mod:`repro.experiments.runner`
prints them.  The appendix artifacts (Figures 11-15, Table 5) are the same
experiments run with ``device="rpi4b"``.

See DESIGN.md section 3 for the experiment index.
"""

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

__all__ = [
    "ablations",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "figure7",
    "figure8",
    "figure10",
    "model_precision",
    "table1",
    "table2",
    "table3",
    "table4",
    "threading",
]
