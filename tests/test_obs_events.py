"""The structured event log and its JSONL export.

The EventLog records into the Tracer's per-thread ring store (its
overwrite/drop semantics are pinned once for both in
``tests/test_obs_ring.py``); here: stable timestamp ordering across
threads, a shared no-op instance for the disabled path, and the
schema oracle over the exported stream.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.analysis.telemetry import validate_events
from repro.obs import (
    EVENT_KINDS,
    EVENT_SCHEMA,
    EVENT_SCHEMA_VERSION,
    NULL_EVENTS,
    TERMINAL_KINDS,
    EventLog,
    events_to_records,
    write_events_jsonl,
)
from repro.obs.events import request_kinds


class _Clock:
    """The minimal Clock protocol surface the event log uses."""

    def __init__(self, start: float = 0.0) -> None:
        self.t = start

    def now(self) -> float:
        return self.t


# ------------------------------------------------------------------ EventLog
def test_emit_and_collect_ordered_by_ts():
    clock = _Clock()
    log = EventLog(now=lambda: clock.t)
    clock.t = 2.0
    log.emit("request.accept", request_id="m-1", model="m")
    clock.t = 1.0
    log.emit("request.shed", request_id="m-2", model="m", reason="queue_full")
    clock.t = 3.0
    log.emit("request.complete", request_id="m-1", model="m", replica=0)
    events = log.events()
    assert [e.kind for e in events] == [
        "request.shed",
        "request.accept",
        "request.complete",
    ]
    assert events[0].attrs == {"reason": "queue_full"}
    assert events[2].replica == 0
    assert log.dropped == 0


def test_same_timestamp_keeps_emission_order():
    log = EventLog(now=lambda: 5.0)
    for i in range(10):
        log.emit("engine.batch", i=i)
    assert [e.attrs["i"] for e in log.events()] == list(range(10))


def test_capacity_must_not_be_negative():
    with pytest.raises(ValueError):
        EventLog(capacity=-1)
    assert not EventLog(capacity=0).enabled  # what NULL_EVENTS is


def test_per_thread_rings_merge_across_threads():
    clock = _Clock()
    log = EventLog(now=lambda: clock.t)

    def worker(base):
        for i in range(5):
            log.emit("engine.batch", tid=base, i=i)

    threads = [
        threading.Thread(target=worker, args=(t,), daemon=True)
        for t in range(3)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(10)
    assert len(log.events()) == 15
    assert log.dropped == 0


def test_use_clock_rebinds_timebase():
    log = EventLog()
    clock = _Clock(start=42.0)
    log.use_clock(clock)
    log.emit("engine.batch")
    assert log.events()[0].ts == 42.0


def test_clear_resets_events_and_drops():
    log = EventLog(capacity=2, now=lambda: 0.0)
    for i in range(5):
        log.emit("engine.batch", i=i)
    assert log.dropped == 3
    log.clear()
    assert log.events() == []
    assert log.dropped == 0


def test_null_events_is_inert():
    assert NULL_EVENTS.enabled is False
    NULL_EVENTS.emit("request.accept", request_id="x")
    NULL_EVENTS.use_clock(_Clock())
    assert NULL_EVENTS.events() == []
    assert NULL_EVENTS.dropped == 0


def test_terminal_kinds_subset_of_vocabulary():
    assert TERMINAL_KINDS < EVENT_KINDS


# ------------------------------------------------------------------- export
def test_jsonl_export_round_trips_and_validates(tmp_path):
    clock = _Clock()
    log = EventLog(now=lambda: clock.t)
    log.emit("request.accept", request_id="m-1", model="m", factor=2)
    clock.t = 1.0
    log.emit("request.complete", request_id="m-1", model="m", replica=1,
             latency_ms=3.25)
    path = tmp_path / "events.jsonl"
    records = write_events_jsonl(log, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    header = json.loads(lines[0])
    assert header == {
        "schema": EVENT_SCHEMA,
        "version": EVENT_SCHEMA_VERSION,
        "count": 2,
        "dropped": 0,
    }
    assert [json.loads(line) for line in lines] == records
    assert validate_events(records) == []


def test_truncated_stream_skips_lifecycle_pairing():
    log = EventLog(capacity=2, now=lambda: 0.0)
    log.emit("request.accept", request_id="m-1", model="m")
    log.emit("request.complete", request_id="m-1", model="m")
    log.emit("request.complete", request_id="m-2", model="m")  # overwrites
    records = events_to_records(log)
    assert records[0]["dropped"] == 1
    # m-2's accept was overwritten, not never-emitted: on a truncated
    # stream pairing is skipped, so this is legal (and the truncation is
    # visible in the header, never silent).
    assert validate_events(records) == []


def test_validator_flags_lifecycle_violations():
    log = EventLog(now=lambda: 0.0)
    log.emit("request.accept", request_id="a", model="m")  # no terminal
    log.emit("request.complete", request_id="b", model="m")  # no accept
    log.emit("request.accept", request_id="c", model="m")
    log.emit("request.complete", request_id="c", model="m")
    log.emit("request.failed", request_id="c", model="m")  # second terminal
    problems = validate_events(events_to_records(log))
    assert any("a" in p and "terminal" in p for p in problems)
    assert any("'b'" in p for p in problems)
    assert any("'c'" in p for p in problems)


def test_validator_bounds_queue_wait_by_latency():
    def stream(**attrs):
        log = EventLog(now=lambda: 0.0)
        log.emit("request.accept", request_id="a", model="m")
        log.emit("request.complete", request_id="a", model="m", **attrs)
        return events_to_records(log)

    assert validate_events(stream(latency_ms=3.0, queue_wait_ms=0.0)) == []
    assert validate_events(stream(latency_ms=3.0, queue_wait_ms=3.0)) == []
    assert validate_events(stream(latency_ms=3.0)) == []  # attrs are open
    for bad in (
        dict(latency_ms=3.0, queue_wait_ms=3.001),  # a stage above the whole
        dict(latency_ms=3.0, queue_wait_ms=-0.001),
        dict(queue_wait_ms=1.0),  # nothing to bound it by
        dict(latency_ms=3.0, queue_wait_ms="1"),
    ):
        problems = validate_events(stream(**bad))
        assert len(problems) == 1 and "queue_wait_ms" in problems[0]


def test_validator_flags_unknown_kind_and_bad_header():
    log = EventLog(now=lambda: 0.0)
    log.emit("request.accept", request_id="a", model="m")
    records = events_to_records(log)
    records[1]["kind"] = "request.bogus"
    assert any("kind" in p for p in validate_events(records))
    assert validate_events([]) != []
    bad = events_to_records(EventLog(now=lambda: 0.0))
    bad[0]["version"] = 999
    assert any("version" in p for p in validate_events(bad))


def test_request_kinds_indexes_lifecycle_only():
    records = [
        {"kind": "request.accept", "request_id": "a"},
        {"kind": "batch.flush", "request_id": None},
        {"kind": "engine.batch", "request_id": None},
        {"kind": "request.complete", "request_id": "a"},
        {"kind": "request.shed", "request_id": "b"},
    ]
    assert request_kinds(records) == {
        "a": ["request.accept", "request.complete"],
        "b": ["request.shed"],
    }
