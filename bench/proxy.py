"""A timing proxy for ``Engine``: the traced run's view below the gateway.

``Gateway(engine_factory=...)`` accepts anything that builds an engine,
so the traced run hands it :class:`TimedEngine` — an ``Engine`` whose
public entry points (``run``, ``run_many``, ``plan``) note when they were
called.  The plan it hands back to itself is wrapped the same way, which
is how ``plan.execute`` and its ``node_times`` become visible without a
line of ``src/`` changing.

Calls are kept as raw tuples while traffic runs and turned into spans by
:func:`emit_spans` afterwards, so a batch pays two clock reads and a list
append, not sixty span objects, inside its requests' latency.
"""

from __future__ import annotations

import threading
import time
from typing import Any

from repro.runtime import Engine

from bench import trace
from bench.trace import TraceRecorder


class _TimedPlan:
    """Delegates to a ``CompiledPlan``; times ``execute`` and keeps its node times."""

    def __init__(self, plan: Any, sink: list) -> None:
        self._plan = plan
        self._sink = sink

    def __getattr__(self, name: str) -> Any:
        return getattr(self._plan, name)

    def execute(self, inputs, node_times=None, tracer=None):
        if node_times is None:
            node_times = {}
        t0 = time.perf_counter()
        out = self._plan.execute(inputs, node_times, tracer=tracer)
        t1 = time.perf_counter()
        self._sink.append((t0, t1, self._plan.batch_factor, node_times))
        return out


class TimedEngine(Engine):
    """``Engine`` that records (start, end, request ids, plan executions) per call."""

    def __init__(self, *args: Any, recorder: TraceRecorder, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._recorder = recorder
        self._tls = threading.local()
        #: (name, start, end, rids, executes) per public call, in call order
        self.calls: list[tuple] = []

    def _executes(self) -> list:
        sink = getattr(self._tls, "executes", None)
        if sink is None:
            sink = self._tls.executes = []
        return sink

    def plan(self, batch_factor: int = 1):
        return _TimedPlan(super().plan(batch_factor), self._executes())

    def _timed(self, name: str, rids: list, call, *args):
        sink = self._executes()
        del sink[:]
        t0 = time.perf_counter()
        out = call(*args)
        t1 = time.perf_counter()
        self.calls.append((name, t0, t1, rids, list(sink)))
        return out

    def run(self, *inputs):
        rids = [self._recorder.rid_of(inputs[0])]
        return self._timed(trace.ENGINE_RUN, rids, super().run, *inputs)

    def run_many(self, requests):
        rids = [
            self._recorder.rid_of(r[0] if isinstance(r, (tuple, list)) else r)
            for r in requests
        ]
        return self._timed(trace.ENGINE_RUN_MANY, rids, super().run_many, requests)


def emit_spans(
    recorder: TraceRecorder,
    engines: list[TimedEngine],
    request_span_of: dict[int, int],
    direct: bool,
) -> None:
    """Turn every engine's raw calls into spans.

    ``request_span_of`` maps request id -> its ``request`` span id.  With
    ``direct`` (the engine workloads: one caller, one request per call)
    the engine span hangs under its request; otherwise it is a root and
    each request it carried gets a link span.
    """
    for engine in engines:
        for name, t0, t1, rids, executes in engine.calls:
            known = [r for r in rids if r in request_span_of]
            parent = request_span_of[known[0]] if direct and known else None
            call_id = recorder.add(
                name, t0, t1, parent=parent,
                rid=known[0] if direct and known else None,
                request_ids=rids,
            )
            if not direct:
                for rid in known:
                    recorder.add(
                        trace.LINK, t0, t1, parent=request_span_of[rid], rid=rid,
                        batch=call_id,
                    )
            for e0, e1, factor, node_times in executes:
                exec_id = recorder.add(
                    trace.PLAN_EXECUTE, e0, e1, parent=call_id, batch_factor=factor
                )
                at = e0
                for node, dur in node_times.items():
                    recorder.add(trace.NODE, at, at + dur, parent=exec_id, node=node)
                    at += dur
