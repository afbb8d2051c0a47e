"""The command itself: a 2 s smoke of every workload, and the refusals."""

import json
import os
import subprocess
import sys

import pytest

from bench import ROOT, metrics
from bench.workloads import WORKLOADS


def _run(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "bench.run", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
        env={**os.environ, **(env or {})},
    )


def _last(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w.name for w in WORKLOADS])
def test_two_second_smoke(workload):
    result = _last(_run("--workload", workload, "--seed", "5", "--duration", "2"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == set(metrics.END_TO_END_BY_NAME)
    for name, m in result["metrics"].items():
        assert m["unit"] == metrics.END_TO_END_BY_NAME[name].unit
        assert m["value"] > 0
    with open(ROOT / "bench" / "out" / f"{workload}.json") as fh:
        doc = json.load(fh)
    assert {"nproc", "python", "numpy", "git_sha"} <= set(doc["host"])
    assert doc["detail"]["status"]["mismatch"] == 0


@pytest.mark.parametrize("workload", ["offline_b8_64", "serve_saturate_32"])
def test_traced_smoke_emits_every_per_layer_metric(workload):
    result = _last(_run("--workload", workload, "--seed", "5", "--seconds", "3",
                        "--trace", "1"))
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == set(metrics.PER_LAYER_BY_NAME)
    with open(ROOT / "bench" / "out" / f"{workload}.layers.json") as fh:
        conservation = json.load(fh)["detail"]["conservation"]
    assert conservation["requests"] > 0
    assert conservation["max_abs_residual_ms"] < 1e-3
    with open(ROOT / "bench" / "out" / f"{workload}.trace.json") as fh:
        spans = json.load(fh)["spans"]
    assert {"request", "plan.execute", "node"} <= {s["name"] for s in spans}


def test_refuses_to_measure_under_the_sanitizer():
    proc = _run("--workload", "single_224", "--duration", "1",
                env={"REPRO_SANITIZE": "1"})
    assert proc.returncode != 0
    assert "REPRO_SANITIZE" in proc.stderr
    assert not proc.stdout.strip()


def test_fails_without_the_program(tmp_path):
    """A directory holding only BENCHMARK.json and bench/: non-zero, no result."""
    import shutil

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "bench", tmp_path / "bench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-m", "bench.run", "--workload", "single_224", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, env=env,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
