"""The schema oracle for the events JSONL telemetry artifact.

Same contract as :func:`repro.obs.export.validate_chrome_trace`: the
validator returns a list of human-readable problem strings — empty means
valid — so tests assert ``== []`` and the CLI can print every problem at
once.

:func:`validate_events` checks the exported event stream end to end:

- the header line (schema tag, version, count, drop count);
- per-record shape and the registered event-kind vocabulary;
- non-decreasing timestamps;
- stage attribution, where a ``request.complete`` carries it:
  ``0 <= queue_wait_ms <= latency_ms`` (a stage cannot exceed the whole);
- the **lifecycle invariant**, when the stream is complete
  (``dropped == 0``): every request_id with lifecycle events has
  exactly one terminal (``complete`` | ``shed`` | ``failed``);
  ``complete``/``failed`` imply a prior ``accept``; ``shed`` excludes
  one (a shed request was never admitted).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.obs.events import (
    EVENT_KINDS,
    EVENT_SCHEMA,
    EVENT_SCHEMA_VERSION,
    TERMINAL_KINDS,
    request_kinds,
)

#: required keys of one exported event record
EVENT_FIELDS = ("ts", "kind", "request_id", "model", "replica", "attrs")


def load_events_jsonl(path: str | Path) -> list[dict[str, Any]]:
    """Read an events JSONL file back into its record list.

    Raises ``ValueError`` on unparseable lines; shape problems are the
    validator's job.
    """
    records: list[dict[str, Any]] = []
    for lineno, line in enumerate(
        Path(path).read_text().splitlines(), 1
    ):
        line = line.strip()
        if not line:
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
    return records


def _check_event_record(
    record: Any, where: str, problems: list[str]
) -> None:
    if not isinstance(record, dict):
        problems.append(f"{where}: not an object")
        return
    for field in EVENT_FIELDS:
        if field not in record:
            problems.append(f"{where}: missing field {field!r}")
    ts = record.get("ts")
    if not isinstance(ts, (int, float)) or isinstance(ts, bool):
        problems.append(f"{where}: ts is not a number")
    kind = record.get("kind")
    if not isinstance(kind, str):
        problems.append(f"{where}: kind is not a string")
    elif kind not in EVENT_KINDS:
        problems.append(f"{where}: unknown event kind {kind!r}")
    for field in ("request_id", "model"):
        value = record.get(field)
        if value is not None and not isinstance(value, str):
            problems.append(f"{where}: {field} is neither null nor a string")
    replica = record.get("replica")
    if replica is not None and not isinstance(replica, int):
        problems.append(f"{where}: replica is neither null nor an int")
    if "attrs" in record and not isinstance(record.get("attrs"), dict):
        problems.append(f"{where}: attrs is not an object")


def validate_events(records: list[dict[str, Any]]) -> list[str]:
    """Every problem in an exported event stream (header + records)."""
    problems: list[str] = []
    if not records:
        return ["empty stream: missing header record"]
    header = records[0]
    if not isinstance(header, dict) or header.get("schema") != EVENT_SCHEMA:
        return [f"header: schema is not {EVENT_SCHEMA!r}: {header!r}"]
    if header.get("version") != EVENT_SCHEMA_VERSION:
        problems.append(
            f"header: version {header.get('version')!r} != "
            f"{EVENT_SCHEMA_VERSION}"
        )
    dropped = header.get("dropped")
    if not isinstance(dropped, int) or dropped < 0:
        problems.append("header: dropped is not a non-negative int")
        dropped = None
    count = header.get("count")
    events = records[1:]
    if count != len(events):
        problems.append(
            f"header: count {count!r} != {len(events)} event records"
        )
    last_ts: float | None = None
    for i, record in enumerate(events):
        where = f"event[{i}]"
        _check_event_record(record, where, problems)
        ts = record.get("ts") if isinstance(record, dict) else None
        if isinstance(ts, (int, float)) and not isinstance(ts, bool):
            if last_ts is not None and ts < last_ts:
                problems.append(
                    f"{where}: ts {ts} decreases (prev {last_ts})"
                )
            last_ts = ts
        attrs = record.get("attrs") if isinstance(record, dict) else None
        if isinstance(attrs, dict) and "queue_wait_ms" in attrs:
            wait, total = attrs["queue_wait_ms"], attrs.get("latency_ms")
            try:
                bounded = 0 <= wait <= total
            except TypeError:  # latency_ms missing, or a non-number
                bounded = False
            if not bounded:
                problems.append(
                    f"{where}: queue_wait_ms {wait!r} outside "
                    f"[0, latency_ms {total!r}]"
                )
    if problems or dropped != 0:
        # lifecycle pairing only holds on a complete, well-formed stream
        return problems
    for rid, kinds in sorted(request_kinds(events).items()):
        terminals = [k for k in kinds if k in TERMINAL_KINDS]
        if len(terminals) != 1:
            problems.append(
                f"request {rid!r}: {len(terminals)} terminal events "
                f"(want exactly 1): {terminals}"
            )
            continue
        terminal = terminals[0]
        accepted = "request.accept" in kinds
        if terminal == "request.shed" and accepted:
            problems.append(
                f"request {rid!r}: shed after accept (shed means never "
                "admitted)"
            )
        if terminal in ("request.complete", "request.failed") and not accepted:
            problems.append(
                f"request {rid!r}: terminal {terminal!r} without "
                "request.accept"
            )
    return problems

