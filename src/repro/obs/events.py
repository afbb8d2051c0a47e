"""Structured, request-scoped events: what happened to each request.

Where spans (:mod:`repro.obs.trace`) answer *how long* something took,
events answer *what happened to one request*: the gateway mints a
``request_id`` at submit and every lifecycle transition lands a typed,
schema-versioned :class:`Event` — accept, coalesce into a batch, flush
to a replica, complete/shed/failed, replica quarantine — plus
plan-level engine events (plan compiled, batch executed).  Traces and
events join on the same ``request_id`` (it is threaded into span args
too).

Design points:

- **Per-thread ring buffers.**  Events land in the same
  :class:`~repro.obs.ring.ThreadRings` store the Tracer uses — no lock
  on the emit path; the log-wide lock (``obs.events``, rank 86) is taken
  only at ring registration and collection.  Full rings overwrite
  oldest-first and count the drop, surfaced as the
  ``obs.events.dropped`` gauge so truncation is never silent.
- **One timebase.**  Timestamps come from a ``now`` callable — the
  monotonic ``time.perf_counter`` by default, rebound to the gateway's
  :class:`~repro.serving.clock.Clock` via :meth:`EventLog.use_clock` so
  FakeClock tests get deterministic virtual timestamps and gateway +
  engine events share one axis.
- **A process-wide no-op log.**  :data:`NULL_EVENTS` is a capacity-0
  :class:`EventLog`: it answers ``enabled = False`` and allocates
  nothing; hot paths branch on it the same way they branch on
  :data:`~repro.obs.trace.NULL_TRACER`, keeping the disabled-telemetry
  overhead inside the measured 1.03x budget.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Callable, Iterable

from repro.concurrency.locks import ordered_lock
from repro.obs.ring import DEFAULT_CAPACITY, ThreadRings

#: bump when the exported event record shape changes
EVENT_SCHEMA_VERSION = 1

#: schema tag stamped on the JSONL header line and validated by
#: :func:`repro.analysis.telemetry.validate_events`
EVENT_SCHEMA = "repro.events"

#: the registered event vocabulary; the validator flags anything else
EVENT_KINDS = frozenset(
    {
        "request.accept",      # admitted to a model queue
        "request.coalesce",    # taken into a batch by a replica worker
        "request.shed",        # rejected before admission (terminal)
        "request.complete",    # answered with a result (terminal)
        "request.failed",      # answered with an error (terminal)
        "batch.flush",         # one batch dispatched to a replica
        "replica.quarantine",  # a replica crossed its failure budget
        "plan.compile",        # engine compiled a plan for a batch factor
        "engine.batch",        # engine executed one coalesced batch
    }
)

#: exactly one of these per accepted-or-shed request
TERMINAL_KINDS = frozenset(
    {"request.shed", "request.complete", "request.failed"}
)


class Event:
    """One telemetry event: monotonic ts, kind, request scope, attrs.

    ``ts`` is a reading of the owning :class:`EventLog`'s ``now``
    callable (``time.perf_counter`` or a serving ``Clock``).
    ``request_id``/``model``/``replica`` are ``None`` for events outside
    a request's scope (e.g. ``plan.compile``).
    """

    __slots__ = ("ts", "kind", "request_id", "model", "replica", "attrs")

    def __init__(
        self,
        ts: float,
        kind: str,
        request_id: str | None,
        model: str | None,
        replica: int | None,
        attrs: dict[str, Any],
    ) -> None:
        self.ts = ts
        self.kind = kind
        self.request_id = request_id
        self.model = model
        self.replica = replica
        self.attrs = attrs

    def to_dict(self) -> dict[str, Any]:
        """The exported record shape (one JSONL line)."""
        return {
            "ts": self.ts,
            "kind": self.kind,
            "request_id": self.request_id,
            "model": self.model,
            "replica": self.replica,
            "attrs": self.attrs,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Event({self.kind!r}, ts={self.ts:.6f}, "
            f"request_id={self.request_id!r}, model={self.model!r})"
        )


class EventLog(ThreadRings):
    """Thread-safe event recorder over per-thread rings (``dropped`` and
    ``clear`` are the ring store's).  With ``capacity=0`` it is the
    disabled log: ``emit`` and ``use_clock`` are no-ops."""

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        now: Callable[[], float] | None = None,
    ) -> None:
        self._now = now if now is not None else time.perf_counter
        # Bound here, not only in the base, so the static lock rules see
        # ``use_clock`` publishing under a registered lock.
        self._lock = ordered_lock("obs.events")
        super().__init__(capacity, self._lock)

    def use_clock(self, clock: Any) -> None:
        """Rebind timestamps to ``clock.now`` (a serving ``Clock``).

        The gateway calls this at construction so gateway and engine
        events share its timebase — under a FakeClock the whole stream
        is deterministic.
        """
        if not self.enabled:
            return
        with self._lock:
            self._now = clock.now

    # ------------------------------------------------------------- emission
    def emit(
        self,
        kind: str,
        *,
        request_id: str | None = None,
        model: str | None = None,
        replica: int | None = None,
        **attrs: Any,
    ) -> None:
        """Append one event to the calling thread's ring (lock-free)."""
        if not self.enabled:
            return
        self.local().append(
            Event(self._now(), kind, request_id, model, replica, attrs)
        )

    # ------------------------------------------------------------ collection
    def events(self) -> list[Event]:
        """Every retained event across all threads, ordered by timestamp.

        The sort is stable, so events a single thread emitted at the
        same (fake-)clock reading keep their emission order.
        """
        return self.collect(lambda e: e.ts)


#: the process-wide no-op log every un-instrumented code path shares
NULL_EVENTS = EventLog(capacity=0)


# ---------------------------------------------------------------- export
def events_to_records(log: EventLog) -> list[dict[str, Any]]:
    """The JSONL record list: one header line, then one line per event.

    The header carries the schema tag/version plus the drop count, so a
    consumer (and :func:`repro.analysis.telemetry.validate_events`) can
    tell a complete stream from a truncated one.
    """
    events = log.events()
    header = {
        "schema": EVENT_SCHEMA,
        "version": EVENT_SCHEMA_VERSION,
        "count": len(events),
        "dropped": log.dropped,
    }
    return [header] + [e.to_dict() for e in events]


def write_events_jsonl(
    log: EventLog, path: str | Path
) -> list[dict[str, Any]]:
    """Write the event stream as JSONL and return the records written."""
    records = events_to_records(log)
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True, default=str))
            fh.write("\n")
    return records


def request_kinds(records: Iterable[dict[str, Any]]) -> dict[str, list[str]]:
    """Per-``request_id`` lifecycle kinds, in stream order.

    A small shared helper for validators and tests: only request-scoped
    lifecycle kinds (``request.*``) are indexed.
    """
    out: dict[str, list[str]] = {}
    for record in records:
        kind = record.get("kind")
        rid = record.get("request_id")
        if rid is None or not isinstance(kind, str):
            continue
        if kind.startswith("request."):
            out.setdefault(rid, []).append(kind)
    return out
