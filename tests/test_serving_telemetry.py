"""End-to-end telemetry acceptance: events, latency tails, `cli serve`.

Everything runs on a FakeClock, so the latency the gateway records is
*injected* — the batching deadline is the only thing that moves virtual
time between submit and completion.  That makes the acceptance matrix
deterministic:

- a 50 ms deadline must report a p95 of exactly 50 ms, over a 10 ms
  target;
- an immediate flush (deadline 0) must report a p95 of 0 ms;
- a forced overload (tiny queue, parked worker) must shed, each shed
  request with exactly one terminal event;
- the exported event stream must validate with exactly one terminal
  event per request id.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from fake_clock import FakeClock
from test_runtime_parity import _batched_input, _binary_net

from repro import cli
from repro.analysis.telemetry import validate_events
from repro.core.types import Padding
from repro.obs import EventLog, Tracer, events_to_records
from repro.obs.events import request_kinds
from repro.serving import (
    SHED_QUEUE_FULL,
    SHED_UNKNOWN_MODEL,
    Gateway,
    GatewayConfig,
    Rejected,
)

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
    log = EventLog()
    gateway, clock, x = _gateway(rng, deadline_ms=0.0, events=log)
    try:
        gateway.warmup(factors=(1,))
        futures = [gateway.submit("bin", x) for _ in range(8)]
        for f in futures:
            assert not isinstance(f.result(TIMEOUT_S), Rejected)
        records = events_to_records(log)
    finally:
        gateway.close()

    assert validate_events(records) == []
    per_request = request_kinds(records[1:])
    assert len(per_request) == 8
    for rid, kinds in per_request.items():
        assert rid.startswith("bin-")
        assert kinds[0] == "request.accept"
        assert kinds[-1] == "request.complete"
        assert sum(k == "request.complete" for k in kinds) == 1
    completes = [r for r in records[1:] if r["kind"] == "request.complete"]
    # every completion says how long it queued (validate_events bounds it)
    assert all("queue_wait_ms" in r["attrs"] for r in completes)
    kinds = {r["kind"] for r in records[1:]}
    # the engine's plan/batch events land in the same stream
    assert "plan.compile" in kinds
    assert "engine.batch" in kinds
    assert "batch.flush" in kinds


def test_unknown_model_sheds_with_a_request_scoped_event(rng):
    log = EventLog()
    gateway, clock, x = _gateway(rng, deadline_ms=0.0, events=log)
    try:
        reply = gateway.submit("nope", x).result(TIMEOUT_S)
        assert isinstance(reply, Rejected)
        assert reply.reason == SHED_UNKNOWN_MODEL
        records = events_to_records(log)
    finally:
        gateway.close()
    assert validate_events(records) == []
    sheds = [r for r in records[1:] if r["kind"] == "request.shed"]
    assert len(sheds) == 1
    assert sheds[0]["model"] == "nope"
    assert sheds[0]["attrs"]["reason"] == SHED_UNKNOWN_MODEL


def test_spans_and_events_join_on_request_id(rng):
    log = EventLog()
    tracer = Tracer()
    gateway, clock, x = _gateway(
        rng, deadline_ms=0.0, events=log, trace=tracer
    )
    try:
        assert not isinstance(
            gateway.submit("bin", x).result(TIMEOUT_S), Rejected
        )
        records = events_to_records(log)
        spans = tracer.spans()
    finally:
        gateway.close()
    accept = next(r for r in records[1:] if r["kind"] == "request.accept")
    submit_span = next(s for s in spans if s.name == "gateway.submit")
    assert submit_span.args["request_id"] == accept["request_id"]
    flush_span = next(s for s in spans if s.name == "gateway.flush")
    assert accept["request_id"] in flush_span.args["request_ids"]


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
    log = EventLog()
    # A long deadline parks the worker, so the tiny queue fills and the
    # remaining submits shed deterministically.
    gateway, clock, x = _gateway(rng, deadline_ms=1000.0, max_queue=2, events=log)
    try:
        gateway.warmup(factors=(1,))
        first = gateway.submit("bin", x)
        clock.wait_for_timed_waiters(1, TIMEOUT_S)  # worker is parked
        futures = [first] + [gateway.submit("bin", x) for _ in range(9)]
        clock.advance(1.0)  # deadline: flush the two accepted requests
        replies = [f.result(TIMEOUT_S) for f in futures]
        records = events_to_records(log)
    finally:
        gateway.close()

    shed = [r for r in replies if isinstance(r, Rejected)]
    assert len(shed) == 8
    assert all(r.reason == SHED_QUEUE_FULL for r in shed)
    # the stream stays valid through the overload: every shed request
    # has exactly its one terminal event
    assert validate_events(records) == []
    per_request = request_kinds(records[1:])
    assert sum(k == ["request.shed"] for k in per_request.values()) == 8


def test_disabled_telemetry_emits_nothing(rng):
    gateway, clock, x = _gateway(rng, deadline_ms=0.0)
    try:
        assert not isinstance(
            gateway.submit("bin", x).result(TIMEOUT_S), Rejected
        )
        assert gateway.events.events() == []
        records = events_to_records(gateway.events)
    finally:
        gateway.close()
    assert records[0]["count"] == 0


# ------------------------------------------------------------- cli serve

_SERVE = ["serve", "--requests", "16", "--replicas", "1", "--input-size", "32"]


def test_serve_command_writes_valid_artifacts(tmp_path, capsys):
    events_out = tmp_path / "events.jsonl"
    rc = cli.main(_SERVE + ["--events-out", str(events_out)])
    captured = capsys.readouterr()
    assert rc == 0 and captured.err == ""
    assert "served 16/16 requests" in captured.out
    assert f"wrote {events_out}" in captured.out

    records = [json.loads(line) for line in events_out.read_text().splitlines()]
    assert validate_events(records) == []
    kinds = request_kinds(records)
    assert len(kinds) == 16
    assert all(k[-1] == "request.complete" for k in kinds.values())


@pytest.mark.parametrize(
    "damage, problem",
    [
        (lambda text: text.split("\n", 1)[1], "header: schema is not"),
        (lambda text: text[:-3], "events.jsonl: line "),
    ],
    ids=["header-dropped", "last-line-cut"],
)
def test_serve_command_validates_the_file_it_wrote(
    tmp_path, monkeypatch, capsys, damage, problem
):
    """``--events-out`` judges the bytes on disk, not the records it meant
    to write: a file damaged between write and read-back exits 1."""
    import repro.obs

    write = repro.obs.write_events_jsonl

    def write_then_damage(log, path):
        records = write(log, path)
        Path(path).write_text(damage(Path(path).read_text()))
        return records

    monkeypatch.setattr(repro.obs, "write_events_jsonl", write_then_damage)
    rc = cli.main(_SERVE + ["--events-out", str(tmp_path / "events.jsonl")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("serve: ") and problem in err


@pytest.mark.parametrize(
    "target_ms, rc, verdict", [("0.001", 1, "breached"), ("10000", 0, "healthy")]
)
def test_serve_command_exits_1_on_slo_breach(target_ms, rc, verdict, capsys):
    assert cli.main(_SERVE + ["--slo-p95-ms", target_ms]) == rc
    out = capsys.readouterr().out
    assert f"quicknet_small: {verdict}" in out
