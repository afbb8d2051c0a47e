"""End-to-end telemetry acceptance: lifecycle marks, latency tails, `cli serve`.

Everything runs on a FakeClock, so the latency the gateway records is
*injected* — the batching deadline is the only thing that moves virtual
time between submit and completion.  That makes the acceptance matrix
deterministic:

- a 50 ms deadline must report a p95 of exactly 50 ms, over a 10 ms
  target;
- an immediate flush (deadline 0) must report a p95 of 0 ms;
- a forced overload (tiny queue, parked worker) must shed, each shed
  request with exactly one terminal mark;
- the exported trace must validate with exactly one terminal lifecycle
  mark per request id.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from fake_clock import FakeClock
from test_runtime_parity import _batched_input, _binary_net

from repro import cli
from repro.core.types import Padding
from repro.obs import NULL_TRACER, Tracer, validate_chrome_trace
from repro.obs.export import chrome_trace, request_kinds
from repro.serving import Gateway, GatewayConfig, Rejected
from repro.serving.gateway import SHED_QUEUE_FULL, SHED_UNKNOWN_MODEL

pytestmark = pytest.mark.serving

TIMEOUT_S = 30.0


def _gateway(rng, *, deadline_ms, max_queue=64, max_batch=8, **kwargs):
    graph = _binary_net(rng, Padding.SAME_ONE)
    clock = FakeClock()
    config = GatewayConfig(
        max_batch=max_batch,
        deadline_ms=deadline_ms,
        max_queue=max_queue,
        replicas=1,
    )
    gateway = Gateway({"bin": graph}, config, clock=clock, **kwargs)
    return gateway, clock, _batched_input(graph, 1, rng)


# ------------------------------------------------------- lifecycle + stream
def test_event_stream_validates_with_one_terminal_per_request(rng):
    tracer = Tracer()
    gateway, clock, x = _gateway(rng, deadline_ms=0.0, trace=tracer)
    try:
        gateway.warmup(factors=(1,))
        futures = [gateway.submit("bin", x) for _ in range(8)]
        for f in futures:
            assert not isinstance(f.result(TIMEOUT_S), Rejected)
        obj = chrome_trace(tracer)
    finally:
        gateway.close()

    assert validate_chrome_trace(obj) == []
    events = obj["traceEvents"]
    per_request = request_kinds(events)
    assert len(per_request) == 8
    for rid, kinds in per_request.items():
        assert rid.startswith("bin-")
        # one clock: the marks order as the lifecycle does
        assert kinds == ["request.accept", "request.coalesce", "request.complete"]
    completes = [e for e in events if e["name"] == "request.complete"]
    # every completion says how long it queued (the validator bounds it)
    assert all("queue_wait_ms" in e["args"] for e in completes)
    names = {e["name"] for e in events}
    # the engine's compile and batch spans land in the same trace
    assert {"plan.compile", "gateway.flush", "plan.execute"} <= names


def test_unknown_model_sheds_with_a_request_scoped_event(rng):
    tracer = Tracer()
    gateway, clock, x = _gateway(rng, deadline_ms=0.0, trace=tracer)
    try:
        reply = gateway.submit("nope", x).result(TIMEOUT_S)
        assert isinstance(reply, Rejected)
        assert reply.reason == SHED_UNKNOWN_MODEL
        obj = chrome_trace(tracer)
    finally:
        gateway.close()
    assert validate_chrome_trace(obj) == []
    sheds = [e for e in obj["traceEvents"] if e["name"] == "request.shed"]
    assert len(sheds) == 1
    assert sheds[0]["args"]["model"] == "nope"
    assert sheds[0]["args"]["reason"] == SHED_UNKNOWN_MODEL


def test_spans_and_events_join_on_request_id(rng):
    """A request's lifecycle marks sit inside the spans that carry its id:
    the accept inside its ``gateway.submit``, the coalesce and complete
    on the replica's thread around its ``gateway.flush``."""
    tracer = Tracer()
    gateway, clock, x = _gateway(rng, deadline_ms=0.0, trace=tracer)
    try:
        assert not isinstance(
            gateway.submit("bin", x).result(TIMEOUT_S), Rejected
        )
        spans = tracer.spans()
    finally:
        gateway.close()
    marks = {s.name: s for s in spans if s.name.startswith("request.")}
    rid = marks["request.accept"].args["request_id"]
    assert {s.args["request_id"] for s in marks.values()} == {rid}
    submit_span = next(s for s in spans if s.name == "gateway.submit")
    assert submit_span.args["request_id"] == rid
    assert marks["request.accept"].path == ("gateway.submit",)
    assert submit_span.start_s <= marks["request.accept"].start_s <= submit_span.end_s
    flush_span = next(s for s in spans if s.name == "gateway.flush")
    assert rid in flush_span.args["request_ids"]
    assert flush_span.tid == marks["request.complete"].tid
    assert (
        marks["request.coalesce"].start_s
        <= flush_span.start_s
        <= flush_span.end_s
        <= marks["request.complete"].start_s
    )


# ------------------------------------------------------- injected latency
#: the p95 objective the two injected-latency cases are judged against
TARGET_P95_MS = 10.0


def _served_with_deadline(rng, deadline_ms):
    """Serve 3 requests whose latency is the (virtual) batching deadline."""
    gateway, clock, x = _gateway(rng, deadline_ms=deadline_ms)
    try:
        gateway.warmup(factors=(1,))
        futures = [gateway.submit("bin", x) for _ in range(3)]
        if deadline_ms > 0:
            # the batch (3 < max_batch) flushes only when virtual time
            # reaches the deadline: latency is injected exactly
            clock.wait_for_timed_waiters(1, TIMEOUT_S)
            clock.advance(deadline_ms / 1e3)
        for f in futures:
            assert not isinstance(f.result(TIMEOUT_S), Rejected)
        return gateway.stats()
    finally:
        gateway.close()


def test_injected_latency_breaches_p95_slo(rng):
    stats = _served_with_deadline(rng, 50.0)
    assert stats.completed == 3
    assert stats.p95_ms == 50.0 > TARGET_P95_MS


def test_fast_path_is_healthy_under_the_same_slo(rng):
    stats = _served_with_deadline(rng, 0.0)
    assert stats.completed == 3
    assert stats.p95_ms == 0.0  # zero virtual time passed


# ----------------------------------------------------------------- overload
def test_overload_sheds_with_exactly_one_terminal_event_each(rng):
    tracer = Tracer()
    # A long deadline parks the worker, so the tiny queue fills and the
    # remaining submits shed deterministically.
    gateway, clock, x = _gateway(
        rng, deadline_ms=1000.0, max_queue=2, trace=tracer
    )
    try:
        gateway.warmup(factors=(1,))
        first = gateway.submit("bin", x)
        clock.wait_for_timed_waiters(1, TIMEOUT_S)  # worker is parked
        futures = [first] + [gateway.submit("bin", x) for _ in range(9)]
        clock.advance(1.0)  # deadline: flush the two accepted requests
        replies = [f.result(TIMEOUT_S) for f in futures]
        obj = chrome_trace(tracer)
    finally:
        gateway.close()

    shed = [r for r in replies if isinstance(r, Rejected)]
    assert len(shed) == 8
    assert all(r.reason == SHED_QUEUE_FULL for r in shed)
    # the trace stays valid through the overload: every shed request
    # has exactly its one terminal mark
    assert validate_chrome_trace(obj) == []
    per_request = request_kinds(obj["traceEvents"])
    assert sum(k == ["request.shed"] for k in per_request.values()) == 8


def test_disabled_telemetry_emits_nothing(rng):
    gateway, clock, x = _gateway(rng, deadline_ms=0.0)
    try:
        assert not isinstance(
            gateway.submit("bin", x).result(TIMEOUT_S), Rejected
        )
        assert gateway.tracer is NULL_TRACER
    finally:
        gateway.close()
    assert NULL_TRACER.spans() == [] and NULL_TRACER.dropped == 0


# ------------------------------------------------------------- cli serve

_SERVE = ["serve", "--requests", "16", "--replicas", "1", "--input-size", "32"]


def test_serve_command_writes_valid_artifacts(tmp_path, capsys):
    trace_out = tmp_path / "trace.json"
    rc = cli.main(_SERVE + ["--trace-out", str(trace_out)])
    captured = capsys.readouterr()
    assert rc == 0 and captured.err == ""
    assert "served 16/16 requests" in captured.out
    assert f"wrote {trace_out}" in captured.out

    obj = json.loads(trace_out.read_text())
    assert validate_chrome_trace(obj) == []
    kinds = request_kinds(obj["traceEvents"])
    assert len(kinds) == 16
    assert all(k[-1] == "request.complete" for k in kinds.values())


def _drop_completes(text: str) -> str:
    obj = json.loads(text)
    obj["traceEvents"] = [
        e for e in obj["traceEvents"] if e["name"] != "request.complete"
    ]
    return json.dumps(obj)


@pytest.mark.parametrize(
    "damage, problem",
    [
        (lambda text: text.split("\n", 1)[1], "trace.json: not valid JSON"),
        (lambda text: text[:-3], "trace.json: not valid JSON"),
        (_drop_completes, "0 terminal marks"),
    ],
    ids=["header-dropped", "last-line-cut", "terminals-dropped"],
)
def test_serve_command_validates_the_file_it_wrote(
    tmp_path, monkeypatch, capsys, damage, problem
):
    """``--trace-out`` judges the bytes on disk, not the trace it meant
    to write: a file damaged between write and read-back exits 1."""
    import repro.obs

    write = repro.obs.write_chrome_trace

    def write_then_damage(tracer, path):
        obj = write(tracer, path)
        Path(path).write_text(damage(Path(path).read_text()))
        return obj

    monkeypatch.setattr(repro.obs, "write_chrome_trace", write_then_damage)
    rc = cli.main(_SERVE + ["--trace-out", str(tmp_path / "trace.json")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("serve: ") and problem in err


def test_serve_command_says_when_lifecycle_check_is_skipped(
    tmp_path, monkeypatch, capsys
):
    """A trace that dropped records cannot pair terminal marks: the
    command still validates the rest, exits 0 and says the lifecycle
    check was skipped."""
    import repro.obs

    monkeypatch.setattr(repro.obs, "Tracer", lambda: Tracer(capacity=8))
    rc = cli.main(_SERVE + ["--trace-out", str(tmp_path / "trace.json")])
    out = capsys.readouterr().out
    assert rc == 0
    assert " 0 dropped" not in out
    assert "request lifecycle check skipped" in out


@pytest.mark.parametrize(
    "target_ms, rc, verdict", [("0.001", 1, "breached"), ("10000", 0, "healthy")]
)
def test_serve_command_exits_1_on_slo_breach(target_ms, rc, verdict, capsys):
    assert cli.main(_SERVE + ["--slo-p95-ms", target_ms]) == rc
    out = capsys.readouterr().out
    assert f"quicknet_small: {verdict}" in out
