"""Process orchestration for one workload run, and where results are written.

Each workload runs in fresh processes (``bench.worker``): two that only
set up, one that sets up and measures, and two more that only set up, so
``setup_s`` is the quietest of five cold starts spread over the run.
"""

from __future__ import annotations

import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any

from bench import ROOT, metrics

OUT_DIR = ROOT / "bench" / "out"

#: fresh processes that only set up, before and again after the measuring
#: one, so the samples of ``setup_s`` span the run and not one host state
SETUP_ONLY_BEFORE = 2
SETUP_ONLY_AFTER = 2

#: a worker that has not finished by then is killed (the driver allows 180 s)
WORKER_TIMEOUT_S = 170.0

#: Workers run with BLAS single-threaded, as the paper's headline number is
#: and as the committed ``num_threads=1`` says.  Left alone, OpenBLAS starts a
#: spinning thread per core: on this 2-core shared host that made
#: ``single_224`` slower (65.5 vs 56.7 ms median) and twice as noisy (quartile
#: spread ~10 % vs ~4 % over 20 s windows), with CPU time double wall time.
SINGLE_THREADED_BLAS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def host_stamp() -> dict[str, Any]:
    """Where these numbers came from: cores, interpreter, NumPy, commit."""
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                capture_output=True, text=True, timeout=10,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "machine": platform.machine(),
        "git_sha": sha,
    }


def _worker(workload: str, seed: int, seconds: float, trace: int, setup_only: bool):
    """Run one ``bench.worker`` process to completion; its parsed last line."""
    cmd = [
        sys.executable, "-m", "bench.worker",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--t0", repr(time.monotonic()),
    ]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        env={**os.environ, **SINGLE_THREADED_BLAS},
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"bench.worker exited {proc.returncode} on {workload}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict[str, Any]:
    """All processes of one workload run; returns the full result document."""
    def setup_only(count: int) -> list[float]:
        return [
            _worker(workload, seed, seconds, 0, True)["setup_s"] for _ in range(count)
        ]

    setups = [] if trace else setup_only(SETUP_ONLY_BEFORE)
    result = _worker(workload, seed, seconds, trace, False)
    if not trace:
        setups.append(result["metrics"]["setup_s"])
        setups.extend(setup_only(SETUP_ONLY_AFTER))
        # The quietest sample, like every other time here (see summarise).
        result["metrics"]["setup_s"] = min(setups)
        result["detail"]["setup_samples_s"] = setups
        result["detail"]["setup_median_s"] = statistics.median(setups)
    table = metrics.PER_LAYER if trace else metrics.END_TO_END
    result["metrics"] = {
        m.name: {"value": result["metrics"][m.name], "unit": m.unit} for m in table
    }
    result.update(
        workload=workload, seed=seed, seconds=seconds, traced=bool(trace),
        host=host_stamp(),
    )
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    suffix = ".layers.json" if trace else ".json"
    with open(OUT_DIR / f"{workload}{suffix}", "w") as fh:
        json.dump(result, fh, indent=1)
    return result


def print_result(result: dict[str, Any]) -> None:
    kind = "per-layer (traced run)" if result["traced"] else "end-to-end"
    print(f"== {result['workload']}  seed {result['seed']}  "
          f"{result['seconds']:g} s  {kind}")
    for name, m in result["metrics"].items():
        print(f"  {name:32s} {m['value']:14.4f} {m['unit']}")
    print(f"  attempted {result['attempted']}  failed {result['failed']}  "
          f"correct {result['correct']}")
    detail = result["detail"]
    if "conservation" in detail:
        c = detail["conservation"]
        print(f"  spans: {c['requests']} requests, max |latency - sum of spans| "
              f"{c['max_abs_residual_ms']:.6f} ms, unattributed "
              f"{c['unattributed_share']:.1%} of latency "
              f"(median {c['unattributed_ms_median']:.3f} ms per request)")
    for note in detail.get("notes", ()):
        print(f"  note: {note}")
