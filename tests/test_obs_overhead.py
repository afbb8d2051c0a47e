"""The disabled tracer costs one attribute check per instrumentation point.

Instrumenting the hot path is only acceptable if *not* tracing stays
free: with the default :data:`~repro.obs.trace.NULL_TRACER`, every
instrumentation point must reduce to one attribute check and allocate
nothing.  This module checks that property directly and
deterministically — which tracer code one ``Engine.run`` and one
``Gateway.submit`` → reply enter (``sys.setprofile``), what it returns,
and what it leaves allocated (``tracemalloc``) — and pins the allocation
behaviour of the no-op tracer.  The wall-clock cost of tracing lives in
``bench`` (``obs.tracer_on_overhead``), where host noise is handled.
"""

from __future__ import annotations

import sys
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from fake_clock import FakeClock

from repro.converter import convert
from repro.obs import trace as obs_trace
from repro.obs.trace import NULL_TRACER, Tracer
from repro.runtime import Engine
from repro.serving import Gateway, GatewayConfig, Rejected
from repro.zoo import quicknet

#: allocation budget of one recorded span (a warm QuickNet-small @32
#: run records 82 and retains ~370 B each)
SPAN_BYTES = 1024

#: the tracer code a disabled run may enter: the entry points whose first
#: statement is the ``enabled`` check, the shared null span, and the
#: ambient-tracer read
DISABLED_ENTRY_POINTS = {
    "Tracer.span",
    "Tracer.scope",
    "active_tracer",
    "_NullSpan.__enter__",
    "_NullSpan.__exit__",
}

_OBS_FILES = {obs_trace.__file__}


@pytest.fixture(scope="module")
def traced_setup():
    model = convert(quicknet("small", input_size=32))
    rng = np.random.default_rng(3)
    x = rng.standard_normal((1, 32, 32, 3)).astype(np.float32)
    return model, x


class _ObsProfile:
    """A profile hook recording, while armed, the qualified names of the
    tracer functions entered, the C functions those called, and what they
    returned that is not a shared singleton.  Install it on other threads
    with ``threading.setprofile`` before they start."""

    _SHARED = (None, obs_trace._NULL_SPAN, NULL_TRACER)

    def __init__(self) -> None:
        self.armed = False
        self.entered: set[str] = set()
        self.c_calls: set[tuple[str, str]] = set()
        self.returned: set[str] = set()

    def __call__(self, frame, event, arg) -> None:
        if not self.armed or frame.f_code.co_filename not in _OBS_FILES:
            return
        name = frame.f_code.co_qualname
        if event == "call":
            self.entered.add(name)
        elif event == "c_call":
            self.c_calls.add((name, arg.__name__))
        elif event == "return" and not any(arg is s for s in self._SHARED):
            self.returned.add(f"{name} -> {type(arg).__name__}")

    def run(self, fn):
        """Run ``fn`` armed, under this hook on the calling thread too."""
        self.armed = True
        sys.setprofile(self)
        try:
            fn()
        finally:
            sys.setprofile(None)
            self.armed = False
        return self.entered, self.c_calls, self.returned


def _obs_growth(fn) -> list:
    """What tracer code left allocated across ``fn`` (``tracemalloc``, by
    allocating line)."""
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        fn()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    filters = [tracemalloc.Filter(True, path) for path in _OBS_FILES]
    grown = after.filter_traces(filters).compare_to(
        before.filter_traces(filters), "lineno"
    )
    return [d for d in grown if d.size_diff > 0]


class TestDisabledOverhead:
    def test_disabled_instrumentation_is_one_attribute_check(self, traced_setup):
        """One warm ``Engine.run`` with tracing off enters only the
        disabled entry points, each of which returns at its ``enabled``
        check: no span or record is built (no other tracer code runs, no
        C call is made but the ambient-tracer ``getattr``) and nothing
        but ``None`` and the shared null span / tracer comes back."""
        model, x = traced_setup
        with Engine(model) as engine:
            assert engine.tracer is NULL_TRACER
            engine.run(x)  # warm: plan compiled, arena bound
            entered, c_calls, returned = _ObsProfile().run(lambda: engine.run(x))
        assert entered <= DISABLED_ENTRY_POINTS, entered - DISABLED_ENTRY_POINTS
        assert {"Tracer.span", "Tracer.scope"} <= entered
        assert c_calls <= {("active_tracer", "getattr")}, c_calls
        assert returned == set(), returned
        assert NULL_TRACER.spans() == []

    def test_disabled_runs_leave_no_tracer_allocations(self, traced_setup):
        """Twenty warm tracing-off runs leave nothing allocated by tracer
        code (``tracemalloc``, by allocating file)."""
        model, x = traced_setup
        with Engine(model) as engine:
            engine.run(x)
            assert _obs_growth(lambda: [engine.run(x) for _ in range(20)]) == []

    @pytest.mark.serving
    def test_disabled_gateway_submit_is_one_attribute_check(self, traced_setup):
        """One warm ``Gateway.submit`` → reply with tracing off — on the
        submitting thread and on the replica worker that runs it — enters
        only the disabled entry points, returns nothing but the shared
        singletons and mints no request id; twenty more leave nothing
        allocated by tracer code.  The lifecycle marks of a traced
        gateway cost nothing here: no mark's arguments are even built."""
        model, x = traced_setup
        profile = _ObsProfile()
        threading.setprofile(profile)  # the replica worker starts under it
        try:
            gateway = Gateway(
                {"m": model},
                GatewayConfig(deadline_ms=0.0, replicas=1),
                clock=FakeClock(),
            )
        finally:
            threading.setprofile(None)

        def served() -> None:
            assert not isinstance(gateway.submit("m", x).result(30.0), Rejected)

        try:
            assert gateway.tracer is NULL_TRACER
            served()  # warm: plan compiled, arena bound
            entered, c_calls, returned = profile.run(served)
            grown = _obs_growth(lambda: [served() for _ in range(20)])
            minted = next(gateway._req_seq)
        finally:
            gateway.close()
        assert entered <= DISABLED_ENTRY_POINTS, entered - DISABLED_ENTRY_POINTS
        assert {"Tracer.span", "Tracer.scope"} <= entered
        assert c_calls <= {("active_tracer", "getattr")}, c_calls
        assert returned == set(), returned
        assert grown == []
        assert minted == 1  # no request id was ever minted
        assert NULL_TRACER.spans() == []

    def test_disabled_run_records_nothing(self, traced_setup):
        model, x = traced_setup
        with Engine(model) as engine:
            engine.run(x)
            engine.run_many([x, x])
        assert NULL_TRACER.spans() == []

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
