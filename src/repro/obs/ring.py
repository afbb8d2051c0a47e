"""Per-thread ring buffers: the bounded store under spans and events.

Each recording thread appends to its own fixed-capacity :class:`Ring`
with no lock on the append path; a full ring overwrites its oldest
record and counts the drop, so truncation is never silent.  The owner's
lock is taken only when a thread's ring is first registered and when
rings are enumerated.  The owner constructs that lock itself
(``ordered_lock("obs.trace")``) so the name stays a literal the static
lock inventory can read.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

#: default per-thread ring capacity (records); ~100 bytes/record
DEFAULT_CAPACITY = 65536


class Ring:
    """One thread's fixed-capacity, overwrite-oldest record ring."""

    __slots__ = ("tid", "capacity", "records", "head", "dropped")

    def __init__(self, tid: int, capacity: int) -> None:
        self.tid = tid
        self.capacity = capacity
        self.records: list[Any] = []
        self.head = 0  # next overwrite position once the ring is full
        self.dropped = 0

    def append(self, record: Any) -> None:
        if len(self.records) < self.capacity:
            self.records.append(record)
        else:
            self.records[self.head] = record
            self.head = (self.head + 1) % self.capacity
            self.dropped += 1

    def ordered(self) -> list[Any]:
        """Retained records, oldest first."""
        return self.records[self.head :] + self.records[: self.head]

    def clear(self) -> None:
        self.records.clear()
        self.head = 0
        self.dropped = 0


class ThreadRings:
    """One ring per recording thread, registered under the owner's ``lock``.

    ``ring_type`` is a :class:`Ring` subclass when the owner keeps more
    per-thread state beside the records (the tracer's live span stack).
    A ``capacity`` of 0 is the disabled store: ``enabled`` is False and the
    owner returns before touching a ring, so none is ever registered.
    """

    def __init__(
        self, capacity: int, lock: Any, ring_type: type[Ring] = Ring
    ) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must not be negative, got {capacity}")
        self._capacity = capacity
        self.enabled = capacity > 0
        self._lock = lock
        self._ring_type = ring_type
        self._rings: list[Ring] = []
        self._tls = threading.local()

    def local(self) -> Any:
        """The calling thread's ring, registered on first use."""
        ring = getattr(self._tls, "ring", None)
        if ring is None:
            ring = self._ring_type(threading.get_ident(), self._capacity)
            with self._lock:
                self._rings.append(ring)
            self._tls.ring = ring
        return ring

    def rings(self) -> list[Any]:
        """A snapshot of every registered ring."""
        with self._lock:
            return list(self._rings)

    def collect(self, key: Callable[[Any], Any]) -> list[Any]:
        """Every retained record across all threads, stably sorted by ``key``
        (a thread's records with equal keys keep their emission order)."""
        records: list[Any] = []
        for ring in self.rings():
            records.extend(ring.ordered())
        records.sort(key=key)
        return records

    @property
    def dropped(self) -> int:
        """Records lost to overwrites, across all threads."""
        return sum(ring.dropped for ring in self.rings())

    def clear(self) -> None:
        """Drop every retained record and reset the drop counts."""
        for ring in self.rings():
            ring.clear()
