"""Trace export: Chrome ``trace_event`` JSON and text flamegraphs.

The serialized format is the Chrome/Perfetto *Trace Event Format*: a
JSON object with a ``traceEvents`` list of complete (``"ph": "X"``)
events carrying microsecond ``ts``/``dur``, ``pid``/``tid`` and an
``args`` dict, plus ``"M"`` metadata events naming the process and
threads.  Open the file in ``chrome://tracing`` or https://ui.perfetto.dev.

Timestamps: span intervals are monotonic (``time.perf_counter``); the
exporter maps them onto the tracer's wall-clock anchor — captured once
at the recording boundary — so events carry real wall-clock microseconds
without any plan path ever reading the wall clock.

:func:`validate_chrome_trace` is the schema oracle the tests, the CLI
and ``make trace-smoke`` share: field presence and types, plus interval
nesting per thread (children lie within their parents).
"""

from __future__ import annotations

import json
import math
import os
import pathlib
from typing import Any

from repro.obs.trace import SpanRecord, Tracer

#: fields every complete event must carry (the trace_event contract)
EVENT_FIELDS = ("name", "ph", "ts", "dur", "pid", "tid", "args")


def chrome_trace(
    tracer: Tracer, spans: list[SpanRecord] | None = None
) -> dict[str, Any]:
    """Serialize spans to a Chrome ``trace_event`` JSON object."""
    spans = tracer.spans() if spans is None else spans
    pid = os.getpid()
    events: list[dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": "repro-engine"},
        }
    ]
    for tid in sorted({s.tid for s in spans}):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": f"thread-{tid}"},
            }
        )
    for s in spans:
        events.append(
            {
                "name": s.name,
                "cat": ",".join(s.path) or "root",
                "ph": "X",
                "ts": tracer.wall_us(s.start_s),
                "dur": s.dur_s * 1e6,
                "pid": pid,
                "tid": s.tid,
                "args": dict(s.args),
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    tracer: Tracer,
    path: str | pathlib.Path,
    spans: list[SpanRecord] | None = None,
) -> dict[str, Any]:
    """Write the Chrome trace JSON to ``path``; returns the object."""
    obj = chrome_trace(tracer, spans)
    pathlib.Path(path).write_text(json.dumps(obj, indent=1) + "\n")
    return obj


def validate_chrome_trace(obj: Any) -> list[str]:
    """Schema-check a trace object; returns problems (empty = valid).

    Checks the ``trace_event`` contract — top-level shape, per-event
    field presence and types, non-negative intervals — and that complete
    events nest properly per thread: sorted by ``ts``, every event either
    follows or lies entirely within the enclosing one.
    """
    problems: list[str] = []
    if not isinstance(obj, dict) or "traceEvents" not in obj:
        return ["top level must be an object with a 'traceEvents' list"]
    events = obj["traceEvents"]
    if not isinstance(events, list):
        return ["'traceEvents' must be a list"]
    complete: list[dict[str, Any]] = []
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            problems.append(f"event {i}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in ("X", "M", "B", "E", "i", "C"):
            problems.append(f"event {i}: unknown ph {ph!r}")
            continue
        if not isinstance(ev.get("name"), str) or not ev["name"]:
            problems.append(f"event {i}: missing name")
        if not isinstance(ev.get("args", {}), dict):
            problems.append(f"event {i}: args must be an object")
        if ph != "X":
            continue
        for field in EVENT_FIELDS:
            if field not in ev:
                problems.append(f"event {i} ({ev.get('name')}): missing {field!r}")
        ts, dur = ev.get("ts"), ev.get("dur")
        if not isinstance(ts, (int, float)) or not isinstance(dur, (int, float)):
            problems.append(f"event {i} ({ev.get('name')}): ts/dur must be numbers")
            continue
        if dur < 0:
            problems.append(f"event {i} ({ev.get('name')}): negative dur")
        if not isinstance(ev.get("pid"), int) or not isinstance(ev.get("tid"), int):
            problems.append(f"event {i} ({ev.get('name')}): pid/tid must be ints")
            continue
        complete.append(ev)

    # Interval nesting per thread: with events sorted by start, a stack of
    # enclosing intervals must contain every event that starts before the
    # top of stack ends.
    by_tid: dict[int, list[dict[str, Any]]] = {}
    for ev in complete:
        by_tid.setdefault(ev["tid"], []).append(ev)
    for tid, evs in by_tid.items():
        evs.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack: list[dict[str, Any]] = []
        for ev in evs:
            end = ev["ts"] + ev["dur"]
            # Abutting spans (a fused plan node's parts) follow one another:
            # their shared edge is a float sum near 1e15 us, so "at or after
            # the end" is taken to rounding.
            slack = 2 * math.ulp(end)
            while stack and ev["ts"] >= stack[-1]["ts"] + stack[-1]["dur"] - slack:
                stack.pop()
            if stack and end > stack[-1]["ts"] + stack[-1]["dur"] + 1e-6:
                problems.append(
                    f"tid {tid}: span {ev['name']!r} [{ev['ts']:.3f}, "
                    f"{end:.3f}] escapes enclosing {stack[-1]['name']!r}"
                )
                continue
            stack.append(ev)
    return problems


# --------------------------------------------------------------- summaries
def node_seconds(
    spans: list[SpanRecord],
    names: tuple[str, ...] = ("plan.node",),
) -> dict[str, float]:
    """Cumulative seconds per graph node from its per-node spans.

    The span-backed analog of ``CompiledPlan.execute(node_times=)``;
    :func:`repro.hw.latency.align_spans` and trace calibration read it, so
    simulated-vs-measured comparisons share one clock discipline with the
    trace.
    """
    out: dict[str, float] = {}
    for s in spans:
        if s.name in names and "node" in s.args:
            node = s.args["node"]
            out[node] = out.get(node, 0.0) + s.dur_s
    return out


def flamegraph_lines(spans: list[SpanRecord]) -> list[str]:
    """A text flamegraph: one line per distinct span stack.

    Aggregates spans by full path (ancestry + name) across threads;
    ``self`` is total minus the time attributed to child stacks.
    """
    totals: dict[tuple[str, ...], list[float]] = {}
    for s in spans:
        key = s.path + (s.name,)
        agg = totals.setdefault(key, [0.0, 0])
        agg[0] += s.dur_s
        agg[1] += 1
    child_time: dict[tuple[str, ...], float] = {}
    for key, (total, _) in totals.items():
        if len(key) > 1:
            parent = key[:-1]
            child_time[parent] = child_time.get(parent, 0.0) + total
    lines = []
    for key in sorted(totals):
        total, count = totals[key]
        self_s = total - child_time.get(key, 0.0)
        indent = "  " * (len(key) - 1)
        lines.append(
            f"{indent}{key[-1]:<{max(1, 40 - len(indent))}} "
            f"calls={count:<6d} total={total * 1e3:9.3f} ms  "
            f"self={max(self_s, 0.0) * 1e3:9.3f} ms"
        )
    return lines
