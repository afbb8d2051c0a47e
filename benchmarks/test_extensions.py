"""Benches for the beyond-the-paper extensions.

- multi-threaded inference scaling (LCE vs single-threaded DaBNN);
- whole-model precision comparison (float32 / int8-PTQ / binary).
"""

from __future__ import annotations

from conftest import run_once

from repro.experiments import model_precision, threading as threading_exp


def test_threading_scaling(benchmark, capsys):
    results = run_once(benchmark, threading_exp.run, "rpi4b")
    by_key = {(r.framework, r.threads): r.latency_ms for r in results}
    assert by_key[("lce", 4)] < by_key[("lce", 1)] / 2
    assert by_key[("dabnn", 4)] == by_key[("dabnn", 1)]
    with capsys.disabled():
        print()
        threading_exp.main("rpi4b")


def test_model_precision_comparison(benchmark, capsys):
    results = run_once(benchmark, model_precision.run, "pixel1")
    by_precision = {r.precision: r.latency_ms for r in results}
    assert by_precision["binary (LCE)"] < by_precision["int8 (PTQ)"]
    assert by_precision["int8 (PTQ)"] < by_precision["float32"]
    with capsys.disabled():
        print()
        model_precision.main("pixel1")
