"""Engine vs per-call Executor: where batched serving pays off.

The runtime Engine amortizes three costs the reference Executor pays on
every call: attribute parsing / dispatch (hoisted into the compiled plan),
weight derivation (binarization, bitpacking, threshold precompute — held in
the prepacked-weight cache) and Python per-node overhead (one batched plan
call instead of N interpreter runs).  This benchmark quantifies the win on
a QuickNet-class graph and asserts the acceptance criteria: the Engine
must beat per-call Executor throughput at batch >= 4 and must not lose to
it at batch 1, the size most serving flushes execute at.

Run with ``pytest benchmarks/test_engine_vs_executor.py --benchmark-only -s``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import run_once

from repro.analysis.bench import validate_bench_engine
from repro.converter import convert
from repro.graph.executor import Executor
from repro.runtime import Engine
from repro.zoo import quicknet

BATCH_SIZES = (1, 4, 8)
REPEATS = 3

#: machine-readable serving numbers; ``verified`` records that every plan
#: they came from passed the static-analysis stack (EngineStats.verified)
BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_engine.json"


def _measure(fn, repeats: int = REPEATS) -> float:
    fn()  # warm-up (plan compile + weight cache for the engine path)
    start = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - start) / repeats


def _serving_comparison():
    """ms/sample for per-call Executor vs Engine.run_many at each batch."""
    rng = np.random.default_rng(99)
    model = convert(quicknet("small", input_size=64))
    spec = model.graph.tensors[model.graph.inputs[0]]
    rows = []
    for batch in BATCH_SIZES:
        samples = [
            rng.standard_normal(spec.shape).astype(np.float32) for _ in range(batch)
        ]

        def executor_serve():
            # The baseline serving loop: one fresh interpreter call per
            # request, re-deriving packed weights every time.
            return [Executor(model.graph).run(x) for x in samples]

        with Engine(model, max_batch_size=batch) as engine:
            executor_s = _measure(executor_serve)
            engine_s = _measure(lambda: engine.run_many(samples))
            verified = engine.stats().verified
            metrics = engine.metrics_snapshot()
        rows.append(
            {
                "batch": batch,
                "executor_ms_per_sample": executor_s / batch * 1e3,
                "engine_ms_per_sample": engine_s / batch * 1e3,
                "speedup": executor_s / engine_s,
                "verified": verified,
            }
        )
    # metrics: unified-registry snapshot of the last (largest-batch) engine
    return rows, metrics


@pytest.mark.benchmark(group="engine-vs-executor")
def test_engine_beats_executor_at_batch(benchmark):
    rows, metrics = run_once(benchmark, _serving_comparison)
    print("\nQuickNet-small (64px), per-call Executor vs Engine.run_many:")
    for row in rows:
        print(
            f"  batch {row['batch']}: executor "
            f"{row['executor_ms_per_sample']:.2f} ms/sample, engine "
            f"{row['engine_ms_per_sample']:.2f} ms/sample "
            f"({row['speedup']:.2f}x)"
        )
    bench = {
        "suite": "engine_vs_executor",
        "model": "quicknet_small@64",
        "verified": all(row["verified"] for row in rows),
        # Unified-registry snapshot (engine + process-wide cache gauges)
        # from the largest-batch engine, so the numbers are attributable.
        "metrics": metrics,
        "rows": [
            {k: (round(v, 3) if isinstance(v, float) else v)
             for k, v in row.items()}
            for row in rows
        ],
    }
    assert validate_bench_engine(bench) == []
    BENCH_JSON.write_text(json.dumps(bench, indent=2) + "\n")
    # Perf numbers must come from analysis-verified plans.
    assert all(row["verified"] for row in rows)
    # Acceptance criteria: the batched engine wins at batch >= 4, and by a
    # real margin (>= 1.3x) at batch 4 on one thread — the amortization the
    # registry-compiled kernels must not regress.  Batch 1 is a gate too
    # (ROADMAP item 2): serving executes mean batch 1.06-1.74, so the plan
    # path may not lose to the allocating interpreter there.
    for row in rows:
        assert row["speedup"] >= 1.0, row
        if row["batch"] == 4:
            assert row["speedup"] >= 1.3, row
