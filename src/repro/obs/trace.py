"""Structured spans: a thread-safe tracer for the runtime hot path.

The span taxonomy mirrors the layers a request passes through
(``gateway.submit`` → ``gateway.flush`` → ``engine.run_many`` →
``plan.execute`` → ``plan.node`` → ``kernel.bgemm``); docs/architecture.md
§9 lists every span and mark, and a test pins that list to the records
actually emitted.

Design points:

- **Per-thread ring buffers.**  Each recording thread appends to its own
  fixed-capacity ring with no lock; a full ring overwrites its oldest
  record and counts the drop, so tracing a long-running engine is
  bounded-memory and truncation is never silent.  The tracer's lock
  (``obs.trace``) is taken only when a thread's ring is first registered
  and when rings are enumerated.
- **Marks.**  A zero-duration record (:meth:`Tracer.mark`) is a point
  event: the serving gateway records each request's lifecycle
  (``request.accept`` ... one terminal ``request.complete`` |
  ``request.shed`` | ``request.failed``) as marks in the same rings and
  on the same clock as the spans around them.
- **Two clocks, one discipline.**  Span intervals are measured with the
  monotonic ``time.perf_counter`` — the same clock ``node_times`` and
  the engine's ``busy_s`` use.  A single wall-clock anchor is captured once,
  at the *recording boundary* (tracer construction), and only the
  Chrome-trace exporter maps monotonic offsets onto it; nothing on a
  compiled-plan path ever reads wall-clock time (lint rule L104).
- **Ambient activation.**  Entering an enabled span installs its tracer
  as the thread's *active tracer* for the span's dynamic extent, so
  kernels deep in ``repro.core`` can attach sub-spans without threading
  a tracer argument through every call: they ask :func:`active_tracer`
  and check ``.enabled`` — one thread-local read when tracing is off.
- **A process-wide no-op tracer.**  :data:`NULL_TRACER` is a capacity-0
  :class:`Tracer`: it answers ``enabled = False``, returns one shared
  no-op context manager from ``span()`` and allocates nothing, keeping
  the disabled hot path within the measured overhead budget (see
  ``tests/test_obs_overhead.py``).
"""

from __future__ import annotations

import threading
import time
from typing import Any

from repro.concurrency.locks import ordered_lock

#: default per-thread ring capacity (records); ~100 bytes/record
DEFAULT_CAPACITY = 65536


class SpanRecord:
    """One finished span: name, interval, thread, ancestry and attributes.

    ``start_s`` is a ``time.perf_counter`` reading; :meth:`Tracer.wall_us`
    maps it onto the tracer's wall-clock anchor at export time.  ``path``
    is the tuple of enclosing span names (outermost first), which gives
    the flamegraph its stacks and tests their nesting oracle.
    """

    __slots__ = ("name", "start_s", "dur_s", "tid", "path", "args")

    def __init__(
        self,
        name: str,
        start_s: float,
        dur_s: float,
        tid: int,
        path: tuple[str, ...],
        args: dict[str, Any],
    ) -> None:
        self.name = name
        self.start_s = start_s
        self.dur_s = dur_s
        self.tid = tid
        self.path = path
        self.args = args

    @property
    def end_s(self) -> float:
        return self.start_s + self.dur_s

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SpanRecord({self.name!r}, start={self.start_s:.6f}, "
            f"dur={self.dur_s * 1e6:.1f}us, tid={self.tid}, path={self.path})"
        )


class _Ring:
    """One thread's fixed-capacity, overwrite-oldest record ring plus its
    live span-name stack (which survives a :meth:`Tracer.clear`)."""

    __slots__ = ("tid", "capacity", "records", "head", "dropped", "stack")

    def __init__(self, tid: int, capacity: int) -> None:
        self.tid = tid
        self.capacity = capacity
        self.records: list[SpanRecord] = []
        self.head = 0  # next overwrite position once the ring is full
        self.dropped = 0
        self.stack: list[str] = []

    def append(self, record: SpanRecord) -> None:
        if len(self.records) < self.capacity:
            self.records.append(record)
        else:
            self.records[self.head] = record
            self.head = (self.head + 1) % self.capacity
            self.dropped += 1

    def ordered(self) -> list[SpanRecord]:
        """Retained records, oldest first."""
        return self.records[self.head :] + self.records[: self.head]

    def clear(self) -> None:
        self.records.clear()
        self.head = 0
        self.dropped = 0


# Thread-local active tracer; spans install their tracer here on entry so
# core kernels can attach sub-spans without an explicit tracer argument.
_ACTIVE = threading.local()


def active_tracer() -> "Tracer":
    """The tracer active on this thread (inside an enabled span), or
    :data:`NULL_TRACER`."""
    return getattr(_ACTIVE, "tracer", None) or NULL_TRACER


class Span:
    """Context manager for one live span; exposes ``dur_s`` after exit."""

    __slots__ = ("_tracer", "name", "args", "start_s", "dur_s", "_buf", "_prev")

    def __init__(
        self, tracer: "Tracer", name: str, args: dict[str, Any] | None
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.args = args
        self.start_s = 0.0
        self.dur_s = 0.0

    def __enter__(self) -> "Span":
        buf = self._tracer.local()
        buf.stack.append(self.name)
        self._buf = buf
        self._prev = getattr(_ACTIVE, "tracer", None)
        _ACTIVE.tracer = self._tracer
        self.start_s = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        end = time.perf_counter()
        self.dur_s = end - self.start_s
        buf = self._buf
        buf.stack.pop()
        _ACTIVE.tracer = self._prev
        if self.args is not None:  # None: Tracer.scope, the caller records
            buf.append(
                SpanRecord(
                    self.name, self.start_s, self.dur_s, buf.tid,
                    tuple(buf.stack), self.args,
                )
            )


class _NullSpan:
    """The shared no-op span: nothing allocated, nothing recorded."""

    __slots__ = ()
    dur_s = 0.0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Tracer:
    """Thread-safe span recorder over per-thread rings.

    With ``capacity=0`` it is the disabled tracer: ``span()`` / ``scope()``
    hand back one shared :class:`_NullSpan` — no span objects are ever
    allocated (asserted in tests) — and ``record()`` drops its argument,
    so code can use ``with tracer.span(...)`` unconditionally on warm
    paths while hot loops branch on :attr:`enabled` to skip attribute
    building too.  No ring is ever registered on a disabled tracer.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must not be negative, got {capacity}")
        self._capacity = capacity
        self.enabled = capacity > 0
        self._lock = ordered_lock("obs.trace")
        self._rings: list[_Ring] = []
        self._tls = threading.local()
        # The recording boundary: one wall-clock anchor, captured here and
        # never on a plan path.  The exporter maps every monotonic span
        # start onto it; see `wall_us`.
        self._anchor_perf = time.perf_counter()
        anchor = time.time()  # repro: allow[L104] recording-boundary anchor
        self._anchor_wall = anchor

    def local(self) -> _Ring:
        """The calling thread's ring, registered on first use."""
        ring = getattr(self._tls, "ring", None)
        if ring is None:
            ring = _Ring(threading.get_ident(), self._capacity)
            with self._lock:
                self._rings.append(ring)
            self._tls.ring = ring
        return ring

    def _snapshot(self) -> list[_Ring]:
        with self._lock:
            return list(self._rings)

    # ------------------------------------------------------------- recording
    def span(self, name: str, **args: Any) -> "Span | _NullSpan":
        """A context manager recording ``name`` around its ``with`` body."""
        if not self.enabled:
            return _NULL_SPAN
        return Span(self, name, args)

    def scope(self, name: str) -> "Span | _NullSpan":
        """A span that is not recorded: ``name`` encloses whatever is
        recorded inside it (span stack, ambient tracer), and the caller,
        who times the body itself, :meth:`record` s it afterwards —
        possibly as several spans (a fused plan node's parts)."""
        if not self.enabled:
            return _NULL_SPAN
        return Span(self, name, None)

    def record(
        self, name: str, start_s: float, dur_s: float, **args: Any
    ) -> None:
        """Record an already-measured interval as a span.

        The caller timed the work itself (with ``time.perf_counter``);
        the span is attributed to the thread's current stack.  This is
        the allocation-light form kernels use — no context-manager entry
        on the hot path, one record object per measured interval.
        """
        if not self.enabled:
            return
        buf = self.local()
        buf.append(
            SpanRecord(name, start_s, dur_s, buf.tid, tuple(buf.stack), args)
        )

    def mark(self, name: str, **args: Any) -> None:
        """Record a zero-duration span stamped now: a point event such as
        a request's ``request.accept``, on the spans' clock."""
        if not self.enabled:
            return
        self.record(name, time.perf_counter(), 0.0, **args)

    # ------------------------------------------------------------ collection
    def spans(self) -> list[SpanRecord]:
        """Every retained record across all threads, stably ordered by
        start time (a thread's records with equal starts keep their
        recording order)."""
        records: list[SpanRecord] = []
        for ring in self._snapshot():
            records.extend(ring.ordered())
        records.sort(key=lambda r: r.start_s)
        return records

    @property
    def dropped(self) -> int:
        """Records lost to overwrites, across all threads."""
        return sum(ring.dropped for ring in self._snapshot())

    def clear(self) -> None:
        """Drop every retained record and reset the drop counts."""
        for ring in self._snapshot():
            ring.clear()

    def wall_us(self, start_s: float) -> float:
        """Map a monotonic span start onto the wall-clock anchor, in µs."""
        return (self._anchor_wall + (start_s - self._anchor_perf)) * 1e6


#: the process-wide no-op tracer every un-traced code path shares
NULL_TRACER = Tracer(capacity=0)

