"""The disabled-tracer overhead budget.

Instrumenting the hot path is only acceptable if *not* tracing stays
free: with the default :data:`~repro.obs.trace.NULL_TRACER`, every
instrumentation point must reduce to one attribute check and allocate
nothing.  This module measures that — ``Engine.run`` with tracing off
against an inline replica of the pre-instrumentation plan-execute loop —
and pins the allocation behavior of the no-op tracer.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.converter import convert
from repro.obs.events import NULL_EVENTS
from repro.obs.trace import NULL_TRACER, Tracer
from repro.ops import check_value
from repro.runtime import Engine
from repro.zoo import quicknet

#: tracing-off Engine.run must stay within this factor of the
#: pre-instrumentation baseline (ISSUE acceptance: 3%)
OVERHEAD_BUDGET = 1.03

#: timing rounds; the budget is checked on the best *paired* round so
#: clock drift between rounds cancels (see the test docstring)
ROUNDS = 11


def _baseline_execute(plan, inputs):
    """Replica of the pre-instrumentation ``CompiledPlan.execute`` hot
    loop: no tracer parameter, no enabled checks, no per-node timing —
    exactly the code this PR instrumented."""
    slots = [None] * plan.num_slots
    for slot, value in zip(plan.input_slots, inputs):
        check_value(value, plan.slot_specs[slot], plan.slot_names[slot])
        slots[slot] = value
    for cn in plan.nodes:
        ins = [slots[s] for s in cn.input_slots]
        out = cn.fn(ins)
        outs = out if isinstance(out, tuple) else (out,)
        for slot, v in zip(cn.output_slots, outs):
            check_value(v, plan.slot_specs[slot], plan.slot_names[slot])
            slots[slot] = v
        for s in cn.frees:
            slots[s] = None
    return tuple(slots[s] for s in plan.output_slots)


@pytest.fixture(scope="module")
def traced_setup():
    model = convert(quicknet("small", input_size=32))
    rng = np.random.default_rng(3)
    x = rng.standard_normal((1, 32, 32, 3)).astype(np.float32)
    return model, x


class TestDisabledOverhead:
    def test_engine_run_within_budget_of_baseline(self, traced_setup):
        """Tracing-off ``Engine.run`` vs the pre-instrumentation loop.

        Each round times the baseline and the engine back to back and
        takes the round's engine/baseline ratio; the budget is checked on
        the best round.  Pairing cancels the clock-frequency and cache
        drift that dominates absolute minima on shared machines — if the
        instrumentation really cost more than the budget, *every* round
        would exceed it.  The engine side carries everything the old
        engine also did (input normalization, per-node timing, stats
        counting) plus the new disabled-tracer and disabled-event-log
        checks; the budget bounds their sum.
        """
        model, x = traced_setup
        ratios = []
        with Engine(model) as engine:
            assert engine.tracer is NULL_TRACER  # default: tracing off
            plan = engine.plan(1)
            # Warm both paths: plan compile, weight cache, arenas.
            _baseline_execute(plan, (x,))
            engine.run(x)

            for _ in range(ROUNDS):
                t0 = time.perf_counter()
                _baseline_execute(plan, (x,))
                base_s = time.perf_counter() - t0
                t0 = time.perf_counter()
                engine.run(x)
                engine_s = time.perf_counter() - t0
                ratios.append(engine_s / base_s)

        best = min(ratios)
        assert best <= OVERHEAD_BUDGET, (
            f"tracing-off Engine.run is {best:.3f}x the pre-instrumentation "
            f"baseline in its best paired round (budget {OVERHEAD_BUDGET}x); "
            f"all rounds: {[round(r, 3) for r in ratios]}"
        )

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
        """Sanity bound on the *enabled* side: tracing a run must not
        blow it up (generous 2x — it is instrumentation, not free)."""
        model, x = traced_setup
        with Engine(model) as engine:
            engine.run(x)  # warm untraced
            best_off = float("inf")
            for _ in range(ROUNDS):
                t0 = time.perf_counter()
                engine.run(x)
                best_off = min(best_off, time.perf_counter() - t0)

        tracer = Tracer()
        with Engine(model, trace=tracer) as engine:
            engine.run(x)  # warm traced
            best_on = float("inf")
            for _ in range(ROUNDS):
                t0 = time.perf_counter()
                engine.run(x)
                best_on = min(best_on, time.perf_counter() - t0)
        assert best_on <= best_off * 2.0, (
            f"enabled tracing {best_on * 1e3:.3f} ms vs "
            f"{best_off * 1e3:.3f} ms untraced"
        )
