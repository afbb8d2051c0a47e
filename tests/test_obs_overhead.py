"""The disabled tracer and event log cost one attribute check each.

Instrumenting the hot path is only acceptable if *not* tracing stays
free: with the default :data:`~repro.obs.trace.NULL_TRACER` and
:data:`~repro.obs.events.NULL_EVENTS`, every instrumentation point must
reduce to one attribute check and allocate nothing.  This module checks
that property directly and deterministically — which tracer / event-log
code one ``Engine.run`` enters (``sys.setprofile``), what it returns, and
what it leaves allocated (``tracemalloc``) — and pins the allocation
behaviour of the no-op tracer.  The wall-clock cost of tracing lives in
``bench`` (``obs.tracer_on_overhead``), where host noise is handled.
"""

from __future__ import annotations

import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from repro.converter import convert
from repro.obs import events as obs_events
from repro.obs import ring as obs_ring
from repro.obs import trace as obs_trace
from repro.obs.events import NULL_EVENTS
from repro.obs.trace import NULL_TRACER, Tracer
from repro.runtime import Engine
from repro.zoo import quicknet

#: allocation budget of one recorded span (a warm QuickNet-small @32
#: run records 82 and retains ~370 B each)
SPAN_BYTES = 1024

#: the tracer / event-log code a disabled run may enter: the entry points
#: whose first statement is the ``enabled`` check, the shared null span,
#: and the ambient-tracer read
DISABLED_ENTRY_POINTS = {
    "Tracer.span",
    "Tracer.scope",
    "EventLog.emit",
    "active_tracer",
    "_NullSpan.__enter__",
    "_NullSpan.__exit__",
}

_OBS_FILES = {obs_trace.__file__, obs_events.__file__, obs_ring.__file__}


@pytest.fixture(scope="module")
def traced_setup():
    model = convert(quicknet("small", input_size=32))
    rng = np.random.default_rng(3)
    x = rng.standard_normal((1, 32, 32, 3)).astype(np.float32)
    return model, x


def _profile_obs(fn):
    """Run ``fn`` under ``sys.setprofile``; return the qualified names of
    the tracer / event-log functions it entered, the C functions those
    called, and what they returned that is not a shared singleton."""
    entered, c_calls, returned = set(), set(), set()
    shared = (None, obs_trace._NULL_SPAN, NULL_TRACER)

    def hook(frame, event, arg):
        if frame.f_code.co_filename not in _OBS_FILES:
            return
        if event == "call":
            entered.add(frame.f_code.co_qualname)
        elif event == "c_call":
            c_calls.add((frame.f_code.co_qualname, arg.__name__))
        elif event == "return" and not any(arg is s for s in shared):
            returned.add(f"{frame.f_code.co_qualname} -> {type(arg).__name__}")

    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return entered, c_calls, returned


class TestDisabledOverhead:
    def test_disabled_instrumentation_is_one_attribute_check(self, traced_setup):
        """One warm ``Engine.run`` with tracing and events off enters only
        the disabled entry points, each of which returns at its ``enabled``
        check: no span, record or event is built (no other tracer code
        runs, no C call is made but the ambient-tracer ``getattr``) and
        nothing but ``None`` and the shared null span / tracer comes
        back."""
        model, x = traced_setup
        with Engine(model) as engine:
            assert engine.tracer is NULL_TRACER and engine.events is NULL_EVENTS
            engine.run(x)  # warm: plan compiled, arena bound
            entered, c_calls, returned = _profile_obs(lambda: engine.run(x))
        assert entered <= DISABLED_ENTRY_POINTS, entered - DISABLED_ENTRY_POINTS
        assert {"Tracer.span", "Tracer.scope", "EventLog.emit"} <= entered
        assert c_calls <= {("active_tracer", "getattr")}, c_calls
        assert returned == set(), returned
        assert NULL_TRACER.spans() == [] and NULL_EVENTS.events() == []

    def test_disabled_runs_leave_no_tracer_allocations(self, traced_setup):
        """Twenty warm tracing-off runs leave nothing allocated by tracer,
        event-log or ring code (``tracemalloc``, by allocating file)."""
        model, x = traced_setup
        with Engine(model) as engine:
            engine.run(x)
            tracemalloc.start()
            try:
                before = tracemalloc.take_snapshot()
                for _ in range(20):
                    engine.run(x)
                after = tracemalloc.take_snapshot()
            finally:
                tracemalloc.stop()
        filters = [tracemalloc.Filter(True, path) for path in _OBS_FILES]
        grown = after.filter_traces(filters).compare_to(
            before.filter_traces(filters), "lineno"
        )
        assert [d for d in grown if d.size_diff > 0] == []

    def test_disabled_run_records_nothing(self, traced_setup):
        model, x = traced_setup
        with Engine(model) as engine:
            assert engine.events is NULL_EVENTS  # default: events off
            engine.run(x)
            engine.run_many([x, x])
        assert NULL_TRACER.spans() == []
        assert NULL_EVENTS.events() == []

    def test_null_events_is_inert_and_shared(self):
        """The no-op event log retains nothing, drops nothing, and the
        hot path's gate is a single attribute read."""
        assert NULL_EVENTS.enabled is False
        for i in range(1000):
            NULL_EVENTS.emit("engine.batch", i=i)
        assert NULL_EVENTS.events() == []
        assert NULL_EVENTS.dropped == 0

    def test_null_tracer_allocates_no_span_objects(self):
        """Every ``span()`` call on the no-op tracer returns the one
        shared instance — no garbage on the disabled hot path."""
        ids = {id(NULL_TRACER.span(f"s{i}")) for i in range(1000)}
        assert len(ids) == 1

    def test_enabled_tracing_is_bounded_overhead(self, traced_setup):
        """What an enabled tracer costs a warm run, counted instead of
        timed: one ``engine.run`` and one ``plan.execute`` span, one
        ``plan.node`` span per graph node, one ``kernel.bgemm`` span per
        binarized conv, and per span at most ``SPAN_BYTES`` retained and
        ``SPAN_BYTES`` of peak over the untraced run.  The wall-clock
        ratio is bench's ``obs.tracer_on_overhead``."""
        model, x = traced_setup

        def warm_run(engine, tracer=NULL_TRACER):
            engine.run(x)  # warm
            before = len(tracer.spans())
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                engine.run(x)
                current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return tracer.spans()[before:], current - base, peak - base

        with Engine(model) as engine:
            _, _, peak_off = warm_run(engine)
        tracer = Tracer()
        with Engine(model, trace=tracer) as engine:
            spans, retained, peak_on = warm_run(engine, tracer)
        assert Counter(s.name for s in spans) == {
            "engine.run": 1,
            "plan.execute": 1,
            "plan.node": len(model.graph.nodes),
            "kernel.bgemm": len(model.graph.ops_by_type("lce_bconv2d")),
        }
        assert retained <= SPAN_BYTES * len(spans), retained
        assert peak_on - peak_off <= SPAN_BYTES * len(spans), (peak_on, peak_off)
