"""Request-lifecycle marks in the trace, and the oracle over them.

The serving gateway records each request's lifecycle as zero-duration
spans ("marks") in its :class:`~repro.obs.trace.Tracer` — the same
per-thread rings as every span (their overwrite/drop semantics are
pinned in ``tests/test_obs_ring.py``).  Here: stable start-time ordering
across threads, the shared no-op tracer, the one clock marks and the
gateway's latencies share, and :func:`validate_chrome_trace`'s lifecycle
invariant over the exported trace — including seeded mutants of a real
gateway trace that it must reject.
"""

from __future__ import annotations

import copy
import json
import threading
import time

import pytest
from fake_clock import FakeClock
from test_runtime_parity import _batched_input, _binary_net

from repro.core.types import Padding
from repro.obs import (
    NULL_TRACER,
    Tracer,
    chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.export import REQUEST_MARKS, TERMINAL_MARKS, request_kinds
from repro.serving import MONOTONIC_CLOCK, Gateway, GatewayConfig, Rejected


def _mark(tracer: Tracer, name: str, t: float = 0.0, **args) -> None:
    tracer.record(name, t, 0.0, **args)


def _problems(tracer: Tracer) -> list[str]:
    return validate_chrome_trace(chrome_trace(tracer))


# -------------------------------------------------------------------- marks
def test_emit_and_collect_ordered_by_ts():
    tracer = Tracer()
    _mark(tracer, "request.accept", 2.0, request_id="m-1", model="m")
    _mark(tracer, "request.shed", 1.0, request_id="m-2", model="m",
          reason="queue_full")
    _mark(tracer, "request.complete", 3.0, request_id="m-1", model="m",
          replica=0)
    marks = tracer.spans()
    assert [s.name for s in marks] == [
        "request.shed",
        "request.accept",
        "request.complete",
    ]
    assert marks[0].args == {"request_id": "m-2", "model": "m",
                             "reason": "queue_full"}
    assert marks[2].args["replica"] == 0
    assert all(s.dur_s == 0.0 for s in marks)
    assert tracer.dropped == 0


def test_same_timestamp_keeps_emission_order():
    tracer = Tracer()
    for i in range(10):
        _mark(tracer, "replica.quarantine", 5.0, i=i)
    assert [s.args["i"] for s in tracer.spans()] == list(range(10))


def test_capacity_must_not_be_negative():
    with pytest.raises(ValueError):
        Tracer(capacity=-1)
    assert not Tracer(capacity=0).enabled  # what NULL_TRACER is


def test_per_thread_rings_merge_across_threads():
    tracer = Tracer()

    def worker(base):
        for i in range(5):
            tracer.mark("replica.quarantine", tid=base, i=i)

    threads = [
        threading.Thread(target=worker, args=(t,), daemon=True)
        for t in range(3)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(10)
    assert len(tracer.spans()) == 15
    assert tracer.dropped == 0


def test_gateway_clock_is_the_mark_clock(monkeypatch):
    """Marks and the gateway's real clock both read ``time.perf_counter``,
    so a request's ``latency_ms`` and its marks share one timebase."""
    monkeypatch.setattr(time, "perf_counter", lambda: 42.0)
    tracer = Tracer()
    tracer.mark("request.accept", request_id="m-1")
    assert MONOTONIC_CLOCK.now() == 42.0
    assert tracer.spans()[0].start_s == 42.0


def test_clear_resets_events_and_drops():
    tracer = Tracer(capacity=2)
    for i in range(5):
        tracer.mark("replica.quarantine", i=i)
    assert tracer.dropped == 3
    tracer.clear()
    assert tracer.spans() == []
    assert tracer.dropped == 0


def test_null_events_is_inert():
    """The disabled tracer records no lifecycle marks and drops none."""
    assert NULL_TRACER.enabled is False
    NULL_TRACER.mark("request.accept", request_id="x")
    assert NULL_TRACER.spans() == []
    assert NULL_TRACER.dropped == 0


def test_terminal_kinds_subset_of_vocabulary():
    assert TERMINAL_MARKS < REQUEST_MARKS


# ------------------------------------------------------------------- export
def test_trace_export_round_trips_and_validates(tmp_path):
    tracer = Tracer()
    _mark(tracer, "request.accept", 0.0, request_id="m-1", model="m",
          factor=2)
    _mark(tracer, "request.complete", 1.0, request_id="m-1", model="m",
          replica=1, latency_ms=3.25, queue_wait_ms=0.5)
    path = tmp_path / "trace.json"
    written = write_chrome_trace(tracer, path)
    obj = json.loads(path.read_text())
    assert obj == written
    assert obj["otherData"] == {"dropped": 0}
    marks = [e for e in obj["traceEvents"] if e["ph"] == "X"]
    assert [(e["name"], e["dur"]) for e in marks] == [
        ("request.accept", 0.0),
        ("request.complete", 0.0),
    ]
    assert validate_chrome_trace(obj) == []


def test_truncated_stream_skips_lifecycle_pairing():
    tracer = Tracer(capacity=2)
    _mark(tracer, "request.accept", 0.0, request_id="m-1", model="m")
    _mark(tracer, "request.complete", 1.0, request_id="m-1", model="m")
    _mark(tracer, "request.complete", 2.0, request_id="m-2", model="m")
    obj = chrome_trace(tracer)
    assert obj["otherData"]["dropped"] == 1
    # m-1's accept was overwritten, not never recorded: on a truncated
    # trace pairing is skipped, so this is legal (and the truncation is
    # visible in otherData, never silent).
    assert validate_chrome_trace(obj) == []


def test_validator_flags_lifecycle_violations():
    tracer = Tracer()
    _mark(tracer, "request.accept", request_id="a", model="m")  # no terminal
    _mark(tracer, "request.complete", request_id="b", model="m")  # no accept
    _mark(tracer, "request.accept", request_id="c", model="m")
    _mark(tracer, "request.complete", request_id="c", model="m")
    _mark(tracer, "request.failed", request_id="c", model="m")  # 2nd terminal
    _mark(tracer, "request.accept", request_id="d", model="m")
    _mark(tracer, "request.shed", request_id="d", model="m")  # shed after accept
    problems = _problems(tracer)
    assert len(problems) == 4, problems
    assert any("'a'" in p and "0 terminal" in p for p in problems)
    assert any("'b'" in p and "without request.accept" in p for p in problems)
    assert any("'c'" in p and "2 terminal" in p for p in problems)
    assert any("'d'" in p and "shed after accept" in p for p in problems)


def test_validator_bounds_queue_wait_by_latency():
    def trace(**args):
        tracer = Tracer()
        _mark(tracer, "request.accept", request_id="a", model="m")
        _mark(tracer, "request.complete", request_id="a", model="m", **args)
        return chrome_trace(tracer)

    assert validate_chrome_trace(trace(latency_ms=3.0, queue_wait_ms=0.0)) == []
    assert validate_chrome_trace(trace(latency_ms=3.0, queue_wait_ms=3.0)) == []
    assert validate_chrome_trace(trace(latency_ms=3.0)) == []  # args are open
    for bad in (
        dict(latency_ms=3.0, queue_wait_ms=3.001),  # a stage above the whole
        dict(latency_ms=3.0, queue_wait_ms=-0.001),
        dict(queue_wait_ms=1.0),  # nothing to bound it by
        dict(latency_ms=3.0, queue_wait_ms="1"),
    ):
        problems = validate_chrome_trace(trace(**bad))
        assert len(problems) == 1 and "queue_wait_ms" in problems[0]


def test_validator_flags_unknown_kind_and_bad_header():
    tracer = Tracer()
    _mark(tracer, "request.bogus", request_id="a", model="m")
    assert any("unknown request mark" in p for p in _problems(tracer))
    tracer = Tracer()
    _mark(tracer, "request.shed", model="m")  # no request id
    assert any("without a request_id" in p for p in _problems(tracer))
    assert validate_chrome_trace({}) != []
    bad = chrome_trace(Tracer())
    bad["otherData"]["dropped"] = "none"
    assert any("otherData.dropped" in p for p in validate_chrome_trace(bad))


def test_request_kinds_indexes_lifecycle_only():
    events = [
        {"name": "request.accept", "args": {"request_id": "a"}},
        {"name": "gateway.flush", "args": {"request_ids": ["a"]}},
        {"name": "plan.compile", "args": {"batch_factor": 1}},
        {"name": "request.complete", "args": {"request_id": "a"}},
        {"name": "request.shed", "args": {"request_id": "b"}},
    ]
    assert request_kinds(events) == {
        "a": ["request.accept", "request.complete"],
        "b": ["request.shed"],
    }


# ------------------------------------------------------ seeded mutants
def _served_trace(rng) -> dict:
    """The exported trace of two served requests and one unknown-model
    shed through a FakeClock gateway."""
    graph = _binary_net(rng, Padding.SAME_ONE)
    tracer = Tracer()
    config = GatewayConfig(max_batch=8, deadline_ms=0.0, replicas=1)
    gateway = Gateway({"bin": graph}, config, clock=FakeClock(), trace=tracer)
    try:
        x = _batched_input(graph, 1, rng)
        futures = [gateway.submit("bin", x) for _ in range(2)]
        futures.append(gateway.submit("nope", x))
        replies = [f.result(30.0) for f in futures]
    finally:
        gateway.close()
    assert [isinstance(r, Rejected) for r in replies] == [False, False, True]
    return chrome_trace(tracer)


def _first(events, name):
    return next(e for e in events if e["name"] == name)


def _resolve_twice(events):
    # a second resolution of a completed request's future
    events.append(dict(_first(events, "request.complete"), name="request.failed"))


def _drop_terminal(events):
    events.remove(_first(events, "request.complete"))


def _shed_after_accept(events):
    # an admitted request answered as if it had been shed at the door
    _first(events, "request.complete")["name"] = "request.shed"


def _wait_above_latency(events):
    args = _first(events, "request.complete")["args"]
    args["queue_wait_ms"] = args["latency_ms"] + 1.0


@pytest.mark.serving
@pytest.mark.parametrize(
    "mutate, problem",
    [
        (_resolve_twice, "2 terminal marks"),
        (_drop_terminal, "0 terminal marks"),
        (_shed_after_accept, "shed after accept"),
        (_wait_above_latency, "queue_wait_ms"),
    ],
    ids=["resolved-twice", "terminal-dropped", "shed-after-accept",
         "wait-above-latency"],
)
def test_seeded_lifecycle_mutants_fail_validation(rng, mutate, problem):
    obj = _served_trace(rng)
    assert validate_chrome_trace(obj) == []
    kinds = request_kinds(obj["traceEvents"])
    assert sorted(k[-1] for k in kinds.values()) == [
        "request.complete", "request.complete", "request.shed"
    ]
    mutant = copy.deepcopy(obj)
    mutate(mutant["traceEvents"])
    problems = validate_chrome_trace(mutant)
    assert any(problem in p for p in problems), problems
