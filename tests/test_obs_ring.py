"""Ring semantics of the tracer's per-thread store, for spans and marks.

Every span (:meth:`~repro.obs.trace.Tracer.record`) and every point event
(:meth:`~repro.obs.trace.Tracer.mark`, a request's lifecycle) lands in the
recording thread's bounded ring, so the bounded-memory contract is pinned
once and run against both: a full ring overwrites oldest-first, every
overwrite is counted, ``clear`` resets records and counts, and collection
merges every thread's ring into one start-ordered list.
"""

from __future__ import annotations

import threading
import time
import types

import pytest

from repro.obs import Tracer
from repro.obs import trace as trace_mod


class _Spans:
    """Measured spans: item ``i`` is a span starting at ``t = i``."""

    def __init__(self, capacity: int, monkeypatch) -> None:
        self.store = Tracer(capacity=capacity)

    def put(self, i: int) -> None:
        self.store.record(f"s{i}", float(i), 0.0)

    def items(self) -> list[int]:
        return [int(s.name[1:]) for s in self.store.spans()]


class _Events:
    """Point events: item ``i`` is a mark stamped ``t = i``.

    ``Tracer.mark`` reads ``time.perf_counter``; the trace module's clock
    is pinned so a mark's stamp is its key.
    """

    def __init__(self, capacity: int, monkeypatch) -> None:
        self._ts = 0.0
        monkeypatch.setattr(
            trace_mod,
            "time",
            types.SimpleNamespace(perf_counter=lambda: self._ts, time=time.time),
        )
        self.store = Tracer(capacity=capacity)

    def put(self, i: int) -> None:
        self._ts = float(i)
        self.store.mark("request.accept", i=i)

    def items(self) -> list[int]:
        return [s.args["i"] for s in self.store.spans()]


def _put_from_thread(ring, keys) -> None:
    t = threading.Thread(target=lambda: [ring.put(k) for k in keys], daemon=True)
    t.start()
    t.join(10)
    assert not t.is_alive()


@pytest.mark.parametrize("adapter", [_Spans, _Events])
def test_ring_semantics(adapter, monkeypatch):
    ring = adapter(4, monkeypatch)
    for i in range(10):
        ring.put(i)
    assert ring.items() == [6, 7, 8, 9]  # oldest overwritten first
    assert ring.store.dropped == 6  # and every overwrite counted

    ring.store.clear()
    assert ring.items() == [] and ring.store.dropped == 0
    ring.put(10)  # a cleared ring fills from empty again
    assert ring.items() == [10] and ring.store.dropped == 0

    # Each thread owns a ring of the full capacity; collection merges
    # them by start time, not by thread, and drops add up across threads.
    ring = adapter(4, monkeypatch)
    _put_from_thread(ring, [0, 2, 4, 6, 8, 10])  # keeps 4, 6, 8, 10
    _put_from_thread(ring, [1, 3, 5])
    assert ring.items() == [1, 3, 4, 5, 6, 8, 10]
    assert ring.store.dropped == 2
