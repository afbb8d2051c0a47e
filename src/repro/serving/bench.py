"""The serving benchmark: throughput/latency curves vs offered load.

``make bench-serving`` (and the ``repro.cli loadgen`` command behind it)
calls :func:`run_bench`: for each offered-load point a fresh
:class:`~repro.serving.gateway.Gateway` serves a seeded open-loop
Poisson stream over a mixed model profile, and the point's row records
acceptance/shed counts, achieved throughput, p50/p95/p99 latency, the
mean executed batch size and how late the generator handed requests
over.  :func:`validate_bench_serving` is the schema oracle
``make serve-smoke`` gates on — the same pattern as
``validate_chrome_trace`` for traces.

The output contract (``BENCH_serving.json``):

- ``suite``: ``"serving_gateway"``;
- ``verified``: every replica engine's plans passed static analysis
  (:attr:`EngineStats.verified <repro.runtime.EngineStats>`) — perf
  numbers trace to legal graphs;
- ``curves``: one row per offered-load point (at least three), each with
  ``offered_rps``/``achieved_rps``/counts/percentiles/``mean_batch``
  and ``gen_lateness_p99_ms``/``gen_lateness_max_ms`` (latencies start
  at the gateway's submit time, so a late generator shows here);
- ``metrics``: the last gateway's unified registry snapshot;
- ``telemetry``: the event-log roll-up across all points — event and
  drop counts, flight-dump count, per-model health statuses — proving
  the telemetry layer watched the run that produced the curves.
"""

from __future__ import annotations

import json
from typing import Any, Mapping, Sequence

import numpy as np

from repro.concurrency.locks import sanitizer_enabled
from repro.obs.events import EVENT_SCHEMA_VERSION, EventLog
from repro.obs.slo import STATUS_CODES
from repro.serving.gateway import Gateway, GatewayConfig
from repro.serving.loadgen import generate_arrivals, run_load

#: numeric fields every curve row must carry
CURVE_FIELDS = (
    "offered_rps",
    "achieved_rps",
    "submitted",
    "accepted",
    "shed",
    "failed",
    "completed",
    "p50_ms",
    "p95_ms",
    "p99_ms",
    "mean_batch",
    "gen_lateness_p99_ms",
    "gen_lateness_max_ms",
)


def _default_models(names: Sequence[str], input_size: int) -> dict[str, Any]:
    from repro.converter import convert
    from repro.zoo import build_model

    return {
        name: convert(build_model(name, input_size=input_size), in_place=True)
        for name in names
    }


def _input_for(graph, rng) -> np.ndarray:
    spec = graph.tensors[graph.inputs[0]]
    return rng.standard_normal(tuple(spec.shape)).astype(np.float32)


def run_bench(
    model_names: Sequence[str] = ("quicknet_small",),
    *,
    input_size: int = 32,
    rates: Sequence[float] = (20.0, 60.0, 120.0),
    duration_s: float = 1.0,
    seed: int = 0,
    config: GatewayConfig | None = None,
    models: Mapping[str, Any] | None = None,
    trace=None,
) -> dict[str, Any]:
    """Run the loadgen sweep and return the ``BENCH_serving.json`` object.

    Each rate point gets a fresh gateway (so per-point metrics do not
    bleed into each other) over the same converted models.  ``models``
    can be passed prebuilt to skip zoo conversion (tests use tiny
    synthetic graphs); ``trace`` attaches one tracer across all points.
    """
    if len(rates) < 3:
        raise ValueError(f"need >= 3 offered-load points, got {list(rates)}")
    config = config if config is not None else GatewayConfig()
    if models is None:
        models = _default_models(model_names, input_size)
    profile = [(name, 1.0) for name in models]
    # The bench's single entropy boundary: one seeded generator drives
    # both the arrival schedule and the request payloads.
    rng = np.random.default_rng(seed)  # repro: allow[L104] seeded entropy boundary
    inputs = {
        name: _input_for(getattr(model, "graph", model), rng)
        for name, model in models.items()
    }

    curves: list[dict[str, Any]] = []
    verified = True
    metrics: dict[str, Any] = {}
    events_total = 0
    events_dropped = 0
    health: dict[str, str] = {}
    for rate in rates:
        arrivals = generate_arrivals(profile, rate, duration_s, rng)
        event_log = EventLog()
        with Gateway(models, config, trace=trace, events=event_log) as gateway:
            gateway.warmup(factors=(1, config.max_batch))
            report = run_load(
                gateway, arrivals, lambda name: (inputs[name],)
            )
            stats = gateway.stats()
            metrics = gateway.metrics_snapshot()
            health = {
                name: h.status for name, h in gateway.health().items()
            }
        events_total += len(event_log.events())
        events_dropped += event_log.dropped
        verified = verified and stats.verified
        curves.append(
            {
                "offered_rps": round(rate, 3),
                "achieved_rps": round(report.achieved_rps, 3),
                "submitted": report.submitted,
                "accepted": report.accepted,
                "shed": report.shed,
                "failed": report.failed,
                "completed": report.completed,
                "p50_ms": round(stats.p50_ms, 3),
                "p95_ms": round(stats.p95_ms, 3),
                "p99_ms": round(stats.p99_ms, 3),
                "mean_batch": round(stats.mean_batch_size, 3),
                "gen_lateness_p99_ms": round(report.gen_lateness_p99_ms, 3),
                "gen_lateness_max_ms": round(report.gen_lateness_max_ms, 3),
            }
        )
    return {
        "suite": "serving_gateway",
        "models": sorted(models),
        "input_size": input_size,
        "seed": seed,
        "duration_s": duration_s,
        "config": {
            "max_batch": config.max_batch,
            "deadline_ms": config.deadline_ms,
            "max_queue": config.max_queue,
            "replicas": config.replicas,
        },
        "verified": verified,
        # Whether the runtime lock sanitizer watched this run: curves
        # measured under REPRO_SANITIZE=1 carry checking locks and are
        # not comparable to production numbers.
        "sanitized": sanitizer_enabled(),
        "curves": curves,
        "metrics": metrics,
        "telemetry": {
            "events_schema_version": EVENT_SCHEMA_VERSION,
            "events": events_total,
            "events_dropped": events_dropped,
            # the tracer (when attached) spans all points; its drop
            # count is already cumulative
            "trace_dropped": trace.dropped if trace is not None else 0,
            "flight_dumps": 0,  # the bench attaches no flight recorder
            "health": health,
        },
    }


def validate_bench_serving(obj: Any) -> list[str]:
    """Schema problems with a ``BENCH_serving.json`` object ([] if none)."""
    problems: list[str] = []
    if not isinstance(obj, dict):
        return ["top level must be an object"]
    if obj.get("suite") != "serving_gateway":
        problems.append(f"suite must be 'serving_gateway', got {obj.get('suite')!r}")
    if not isinstance(obj.get("verified"), bool):
        problems.append("verified must be a bool")
    if not isinstance(obj.get("sanitized"), bool):
        problems.append(
            "sanitized must be a bool (was the lock sanitizer active?)"
        )
    if not isinstance(obj.get("metrics"), dict) or not obj.get("metrics"):
        problems.append("metrics must be a non-empty snapshot object")
    telemetry = obj.get("telemetry")
    if not isinstance(telemetry, dict):
        problems.append("telemetry must be an object (the event-log roll-up)")
    else:
        if telemetry.get("events_schema_version") != EVENT_SCHEMA_VERSION:
            problems.append(
                f"telemetry.events_schema_version must be "
                f"{EVENT_SCHEMA_VERSION}, got "
                f"{telemetry.get('events_schema_version')!r}"
            )
        for key in ("events", "events_dropped", "trace_dropped", "flight_dumps"):
            value = telemetry.get(key)
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                problems.append(
                    f"telemetry.{key} must be a non-negative int"
                )
        health = telemetry.get("health")
        if not isinstance(health, dict):
            problems.append("telemetry.health must be a model -> status object")
        else:
            for name, status in health.items():
                if status not in STATUS_CODES:
                    problems.append(
                        f"telemetry.health[{name!r}]: unknown status "
                        f"{status!r} (want one of {sorted(STATUS_CODES)})"
                    )
    curves = obj.get("curves")
    if not isinstance(curves, list) or len(curves) < 3:
        problems.append("curves must list >= 3 offered-load points")
        return problems
    for i, row in enumerate(curves):
        if not isinstance(row, dict):
            problems.append(f"curves[{i}] must be an object")
            continue
        for key in CURVE_FIELDS:
            if not isinstance(row.get(key), (int, float)):
                problems.append(f"curves[{i}].{key} missing or non-numeric")
        if all(isinstance(row.get(k), (int, float)) for k in CURVE_FIELDS):
            if row["submitted"] != row["accepted"] + row["shed"]:
                problems.append(
                    f"curves[{i}]: submitted != accepted + shed"
                )
            if not row["p50_ms"] <= row["p95_ms"] <= row["p99_ms"]:
                problems.append(
                    f"curves[{i}]: percentiles not monotone "
                    f"(p50={row['p50_ms']}, p95={row['p95_ms']}, "
                    f"p99={row['p99_ms']})"
                )
            if not 0 <= row["gen_lateness_p99_ms"] <= row["gen_lateness_max_ms"]:
                problems.append(
                    f"curves[{i}]: generator lateness must satisfy "
                    f"0 <= p99 <= max (p99={row['gen_lateness_p99_ms']}, "
                    f"max={row['gen_lateness_max_ms']})"
                )
    offered = [row.get("offered_rps") for row in curves if isinstance(row, dict)]
    if offered != sorted(offered):
        problems.append("curves must be ordered by offered_rps")
    return problems


def write_bench_serving(obj: dict[str, Any], path) -> None:
    """Write the bench object as stable, human-diffable JSON."""
    from pathlib import Path

    Path(path).write_text(json.dumps(obj, indent=2) + "\n")
