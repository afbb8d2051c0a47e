"""Ring semantics, once, for both stores built on :mod:`repro.obs.ring`.

The :class:`~repro.obs.trace.Tracer` and the
:class:`~repro.obs.events.EventLog` record into the same per-thread ring
store, so the bounded-memory contract is pinned once and run against
both: a full ring overwrites oldest-first, every overwrite is counted,
``clear`` resets records and counts, and collection merges every
thread's ring into one key-ordered list.
"""

from __future__ import annotations

import threading

import pytest

from repro.obs import EventLog, Tracer


class _Spans:
    """Tracer adapter: item ``i`` is a span starting at ``t = i``."""

    def __init__(self, capacity: int) -> None:
        self.store = Tracer(capacity=capacity)

    def put(self, i: int) -> None:
        self.store.record(f"s{i}", float(i), 0.0)

    def items(self) -> list[int]:
        return [int(s.name[1:]) for s in self.store.spans()]


class _Events:
    """EventLog adapter: item ``i`` is an event stamped ``ts = i``."""

    def __init__(self, capacity: int) -> None:
        self._ts = 0.0
        self.store = EventLog(capacity=capacity, now=lambda: self._ts)

    def put(self, i: int) -> None:
        self._ts = float(i)
        self.store.emit("engine.batch", i=i)

    def items(self) -> list[int]:
        return [e.attrs["i"] for e in self.store.events()]


def _put_from_thread(ring, keys) -> None:
    t = threading.Thread(target=lambda: [ring.put(k) for k in keys], daemon=True)
    t.start()
    t.join(10)
    assert not t.is_alive()


@pytest.mark.parametrize("adapter", [_Spans, _Events])
def test_ring_semantics(adapter):
    ring = adapter(capacity=4)
    for i in range(10):
        ring.put(i)
    assert ring.items() == [6, 7, 8, 9]  # oldest overwritten first
    assert ring.store.dropped == 6  # and every overwrite counted

    ring.store.clear()
    assert ring.items() == [] and ring.store.dropped == 0
    ring.put(10)  # a cleared ring fills from empty again
    assert ring.items() == [10] and ring.store.dropped == 0

    # Each thread owns a ring of the full capacity; collection merges
    # them by key, not by thread, and drops add up across threads.
    ring = adapter(capacity=4)
    _put_from_thread(ring, [0, 2, 4, 6, 8, 10])  # keeps 4, 6, 8, 10
    _put_from_thread(ring, [1, 3, 5])
    assert ring.items() == [1, 3, 4, 5, 6, 8, 10]
    assert ring.store.dropped == 2
