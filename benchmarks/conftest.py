"""Shared benchmark helpers.

``benchmarks/`` holds the wall-clock benchmarks only: engine vs executor
(writes ``BENCH_engine.json``), the kernel micro-benchmarks (writes
``BENCH_kernels.json``), the real Figure 2 kernels and the tiled-BGEMM
ablation.  Run with::

    pytest benchmarks/ --benchmark-only

The paper's simulated tables and figures are ledger claims
(``python -m repro.experiments.ledger``), asserted in tier-1 by
``tests/test_experiments.py``.
"""

from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(99)


def run_once(benchmark, fn, *args, **kwargs):
    """Benchmark an expensive experiment with a single round."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
