"""Structured, request-scoped events: the serving stack's black box.

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

The module also houses the **flight recorder**: a bounded postmortem
dumper that, on trigger (shed storm, replica quarantine, a sanitizer
``LockOrderError``, or an explicit ``Gateway.dump()``), snapshots the
last N events + a metrics snapshot + active span stacks into one
versioned ``flight_<reason>.json`` artifact — rate-limited, and never
from under a lock that could invert the rank table.
"""

from __future__ import annotations

import json
import re
import time
from collections import deque
from pathlib import Path
from typing import Any, Callable, Iterable

from repro.concurrency.locks import ordered_lock
from repro.obs.ring import DEFAULT_CAPACITY, ThreadRings

#: bump when the exported event record shape changes
EVENT_SCHEMA_VERSION = 1

#: schema tag stamped on the JSONL header line and validated by
#: :func:`repro.analysis.telemetry.validate_events`
EVENT_SCHEMA = "repro.events"

#: schema tag stamped on flight-recorder dumps
FLIGHT_SCHEMA = "repro.flight"

#: bump when the flight-dump shape changes
FLIGHT_SCHEMA_VERSION = 1

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
        "gateway.dump",        # the flight recorder fired
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


# ---------------------------------------------------------- flight recorder
def _safe_reason(reason: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]", "_", reason) or "unknown"


class FlightRecorder:
    """The black box: snapshot telemetry into ``flight_<reason>.json``.

    Triggers:

    - :meth:`note_shed` — every typed ``Rejected`` lands here; a storm
      (``shed_storm_threshold`` sheds inside ``shed_storm_window_s``)
      fires a ``shed_storm`` dump.
    - :meth:`trigger` — direct triggers (``replica_quarantine``,
      ``Gateway.dump()``'s ``manual``); pass ``defer=True`` from
      contexts that hold locks (the ``LockOrderError`` hook) — the
      reason is parked and written by the next :meth:`flush_pending`
      at a safe, lock-free point.
    - rate limiting: at most one dump per ``min_interval_s`` (measured
      on the recorder's own clock); ``force=True`` bypasses it for
      explicit operator dumps.

    The recorder's sources (event log, metrics snapshot fn, tracer,
    clock) are bound by the gateway via :meth:`bind`, so tests can
    construct one with custom thresholds and hand it over.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        last_n: int = 512,
        min_interval_s: float = 1.0,
        shed_storm_threshold: int = 32,
        shed_storm_window_s: float = 1.0,
    ) -> None:
        if last_n < 1:
            raise ValueError(f"last_n must be positive, got {last_n}")
        if shed_storm_threshold < 1:
            raise ValueError(
                f"shed_storm_threshold must be positive, got "
                f"{shed_storm_threshold}"
            )
        self.directory = Path(directory)
        self._last_n = last_n
        self._min_interval_s = float(min_interval_s)
        self._threshold = shed_storm_threshold
        self._window_s = float(shed_storm_window_s)
        self._lock = ordered_lock("obs.flight")
        self._sheds: deque[float] = deque()
        self._last_dump_ts: float | None = None
        self._dumps = 0
        self._suppressed = 0
        # written lock-free from the LockOrderError hook (the erring
        # thread still holds its inverted lockset there); a benign
        # last-writer-wins race on a single attribute
        self._pending: str | None = None
        # bound by the gateway
        self._events: EventLog = NULL_EVENTS
        self._metrics_fn: Callable[[], dict[str, Any]] | None = None
        self._tracer: Any = None
        self._now: Callable[[], float] = time.perf_counter

    def bind(
        self,
        *,
        events: EventLog,
        metrics_fn: Callable[[], dict[str, Any]],
        tracer: Any = None,
        now: Callable[[], float] | None = None,
    ) -> None:
        """Attach the telemetry sources a dump snapshots (gateway calls this)."""
        self._events = events
        self._metrics_fn = metrics_fn
        self._tracer = tracer
        if now is not None:
            self._now = now

    # ------------------------------------------------------------- triggers
    def note_shed(self) -> Path | None:
        """Record one shed; fire a ``shed_storm`` dump when they cluster.

        Must be called with no ordered locks held (the gateway calls it
        from its lock-free shed paths): a firing dump walks the event
        log and the metrics snapshot.
        """
        now = self._now()
        fire = False
        with self._lock:
            self._sheds.append(now)
            cutoff = now - self._window_s
            while self._sheds and self._sheds[0] < cutoff:
                self._sheds.popleft()
            if len(self._sheds) >= self._threshold:
                fire = True
                self._sheds.clear()
        if fire:
            return self.trigger("shed_storm")
        return None

    def defer(self, reason: str) -> None:
        """Park a trigger without taking any lock (hook-safe).

        Used by the ``LockOrderError`` hook: the erring thread still
        holds its inverted lockset, so even the recorder's own lock is
        off-limits.  A plain attribute write is enough — worst case two
        racing errors collapse into one dump, which is the rate
        limiter's behavior anyway.
        """
        if self._pending is None:
            self._pending = reason

    def flush_pending(self) -> Path | None:
        """Write any parked (deferred) dump; called at safe points."""
        reason, self._pending = self._pending, None
        if reason is None:
            return None
        return self.trigger(reason)

    def trigger(self, reason: str, *, force: bool = False) -> Path | None:
        """Dump now (subject to the rate limit unless ``force``).

        Returns the artifact path, or ``None`` when rate-limited.  Must
        be called with no ordered locks held.
        """
        now = self._now()
        with self._lock:
            recent = (
                self._last_dump_ts is not None
                and now - self._last_dump_ts < self._min_interval_s
            )
            if recent and not force:
                self._suppressed += 1
                return None
            self._last_dump_ts = now
        return self._write(reason, now)

    # ------------------------------------------------------------ the dump
    @property
    def dumps(self) -> int:
        """Dumps written so far (the ``obs.flight.dumps`` gauge)."""
        with self._lock:
            return self._dumps

    @property
    def suppressed(self) -> int:
        """Triggers swallowed by the rate limiter."""
        with self._lock:
            return self._suppressed

    def _write(self, reason: str, now: float) -> Path:
        log = self._events
        if log.enabled:
            log.emit("gateway.dump", reason=reason)
        events = log.events()[-self._last_n :]
        metrics = self._metrics_fn() if self._metrics_fn is not None else {}
        tracer = self._tracer
        active: dict[str, list[str]] = {}
        recent_spans: list[dict[str, Any]] = []
        if tracer is not None:
            active = {
                str(tid): list(stack)
                for tid, stack in tracer.active_stacks().items()
            }
            recent_spans = [
                {
                    "name": s.name,
                    "start_s": s.start_s,
                    "dur_s": s.dur_s,
                    "tid": s.tid,
                    "path": list(s.path),
                    "args": s.args,
                }
                for s in tracer.spans()[-self._last_n :]
            ]
        obj = {
            "schema": FLIGHT_SCHEMA,
            "version": FLIGHT_SCHEMA_VERSION,
            "reason": reason,
            "ts": now,
            "events": [e.to_dict() for e in events],
            "dropped_events": log.dropped,
            "metrics": metrics,
            "active_spans": active,
            "recent_spans": recent_spans,
        }
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.directory / f"flight_{_safe_reason(reason)}.json"
        path.write_text(
            json.dumps(obj, indent=1, sort_keys=True, default=str) + "\n"
        )
        with self._lock:
            self._dumps += 1
        return path


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
