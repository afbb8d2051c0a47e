"""Schema oracles for the machine-readable BENCH artifacts.

``BENCH_kernels.json`` and ``BENCH_engine.json`` are the perf history the
benchmark suites write at the repo root; each has a schema oracle
returning a list of human-readable problems — empty when valid — that
the writing benchmark asserts before the file lands.  The kernel suite
additionally records per-geometry dynamic/plan timings so regressions
are caught row by row.
"""

from __future__ import annotations

from typing import Any

#: numeric fields every BENCH_kernels.json kernel row must carry
KERNEL_FIELDS = ("ns_per_call", "macs_per_s")

#: numeric fields every BENCH_kernels.json per-geometry row must carry
GEOMETRY_FIELDS = ("dynamic_ns", "plan_ns", "speedup_plan")

#: numeric fields every BENCH_engine.json row must carry
ENGINE_ROW_FIELDS = (
    "batch",
    "executor_ms_per_sample",
    "engine_ms_per_sample",
    "speedup",
)


def _common_problems(obj: Any, suite: str) -> list[str]:
    problems: list[str] = []
    if obj.get("suite") != suite:
        problems.append(f"suite must be {suite!r}, got {obj.get('suite')!r}")
    if not isinstance(obj.get("verified"), bool):
        problems.append("verified must be a bool")
    if not isinstance(obj.get("metrics"), dict) or not obj.get("metrics"):
        problems.append("metrics must be a non-empty snapshot object")
    return problems


def validate_bench_kernels(obj: Any) -> list[str]:
    """Schema problems with a ``BENCH_kernels.json`` object ([] if none)."""
    if not isinstance(obj, dict):
        return ["top level must be an object"]
    problems = _common_problems(obj, "kernel_microbench")
    for key in ("quicknet_small_speedup", "speedup_floor"):
        if not isinstance(obj.get(key), (int, float)) or isinstance(
            obj.get(key), bool
        ):
            problems.append(f"{key} missing or non-numeric")
    geometries = obj.get("geometries")
    if not isinstance(geometries, list) or not geometries:
        problems.append("geometries must be a non-empty list")
    else:
        for i, row in enumerate(geometries):
            if not isinstance(row, dict):
                problems.append(f"geometries[{i}] must be an object")
                continue
            if not isinstance(row.get("shape"), str) or not row.get("shape"):
                problems.append(f"geometries[{i}].shape missing or empty")
            for key in GEOMETRY_FIELDS:
                value = row.get(key)
                if not isinstance(value, (int, float)) or isinstance(
                    value, bool
                ):
                    problems.append(
                        f"geometries[{i}].{key} missing or non-numeric"
                    )
                elif value <= 0:
                    problems.append(f"geometries[{i}].{key} must be positive")
    kernels = obj.get("kernels")
    if not isinstance(kernels, list) or not kernels:
        problems.append("kernels must be a non-empty list")
        return problems
    for i, row in enumerate(kernels):
        if not isinstance(row, dict):
            problems.append(f"kernels[{i}] must be an object")
            continue
        for key in ("op", "shape"):
            if not isinstance(row.get(key), str) or not row.get(key):
                problems.append(f"kernels[{i}].{key} missing or empty")
        for key in KERNEL_FIELDS:
            value = row.get(key)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                problems.append(f"kernels[{i}].{key} missing or non-numeric")
            elif value <= 0:
                problems.append(f"kernels[{i}].{key} must be positive")
    return problems


def validate_bench_engine(obj: Any) -> list[str]:
    """Schema problems with a ``BENCH_engine.json`` object ([] if none)."""
    if not isinstance(obj, dict):
        return ["top level must be an object"]
    problems = _common_problems(obj, "engine_vs_executor")
    if not isinstance(obj.get("model"), str) or not obj.get("model"):
        problems.append("model must be a non-empty string")
    rows = obj.get("rows")
    if not isinstance(rows, list) or not rows:
        problems.append("rows must be a non-empty list")
        return problems
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            problems.append(f"rows[{i}] must be an object")
            continue
        for key in ENGINE_ROW_FIELDS:
            value = row.get(key)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                problems.append(f"rows[{i}].{key} missing or non-numeric")
        if not isinstance(row.get("verified"), bool):
            problems.append(f"rows[{i}].verified must be a bool")
    batches = [
        row.get("batch")
        for row in rows
        if isinstance(row, dict) and isinstance(row.get("batch"), (int, float))
    ]
    if batches != sorted(batches):
        problems.append("rows must be ordered by batch")
    return problems
