"""Workspace arena: preallocated scratch buffers for the binarized hot path.

The paper's kernels (Section 3.2) follow the Ruy/TFLite memory-arena
design: all temporaries of the steady-state inference loop live in
buffers sized once, so the per-inference path performs no allocation.
This module provides the same structure for the NumPy kernels:

- :class:`Workspace` — a bag of named, grow-only scratch buffers.  A
  buffer is (re)allocated only when a request exceeds its current
  capacity; steady-state requests return views into existing storage, so
  ``np.take`` / ``np.bitwise_xor`` / popcount / accumulator writes reuse
  the same memory on every call.
- :class:`WorkspacePool` — the arena a :class:`~repro.runtime.plan
  .CompiledPlan` owns.  Plan execution may run concurrently from many
  caller threads, so buffers cannot be shared; the pool hands each
  executing thread its own :class:`Workspace`, preallocated to the
  reservations recorded at plan-compile time (the max size over the
  plan's nodes).

Thread-safety rules:

- A :class:`Workspace` belongs to exactly one executing thread; nothing
  in it is locked.
- :meth:`WorkspacePool.current` is the only cross-thread entry point and
  is internally synchronized.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Any, Callable, Iterable

import numpy as np

from repro.concurrency.locks import ordered_lock
from repro.obs.trace import active_tracer


class Workspace:
    """Named, grow-only scratch buffers owned by one executing thread.

    :meth:`take` returns a contiguous view of the requested shape/dtype
    into a flat backing array, growing the backing array only when the
    request exceeds its capacity.  The contents of a returned view are
    undefined (previous users of the same name may have written anything)
    — callers fully overwrite what they take, or zero the parts they rely
    on (see the border fill in
    :meth:`repro.core.bconv2d.BoundBConv2D.bind`).
    """

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}
        #: number of (re)allocations ever performed; a steady-state hot
        #: loop must keep this constant across calls (asserted in tests).
        self.grows = 0
        self._bound: dict[object, tuple[int, Any]] = {}

    def take(self, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        """A ``shape``/``dtype`` view of the buffer named ``name``.  A name
        has one dtype for life — another raises ``ValueError`` (two users
        alternating dtypes would reallocate the buffer on every call)."""
        dtype = np.dtype(dtype)
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is not None:
            _check_dtype(name, buf.dtype, dtype)
        if buf is None or buf.size < size:
            buf = np.empty(size, dtype)
            self._buffers[name] = buf
            self.grows += 1
        return buf[:size].reshape(shape)

    def bound(self, key: object, build: Callable[["Workspace"], Any]) -> Any:
        """``build(self)`` — views a bound kernel pre-slices from this
        arena — memoized per ``key`` while no buffer is (re)allocated.

        When :attr:`grows` has moved since, a buffer the views point into
        may have been replaced: they are rebuilt, never written through.
        ``build`` is repeated until it takes nothing new, so its result
        never straddles two generations of a buffer.
        """
        entry = self._bound.get(key)
        if entry is None or entry[0] != self.grows:
            while True:
                grows = self.grows
                views = build(self)
                if self.grows == grows:
                    break
            entry = self._bound[key] = (grows, views)
        return entry[1]

    def reserve(self, name: str, size: int, dtype) -> None:
        """Preallocate ``name`` to hold at least ``size`` elements."""
        self.take(name, (size,), dtype)

    def buffer(self, name: str) -> np.ndarray | None:
        """The backing array for ``name`` (introspection/tests)."""
        return self._buffers.get(name)

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._buffers))

    @property
    def nbytes(self) -> int:
        return sum(b.nbytes for b in self._buffers.values())


def _check_dtype(name: str, have: np.dtype, want: np.dtype) -> None:
    if have != want:
        raise ValueError(
            f"arena buffer {name!r} holds {have}; it cannot also be taken "
            f"or reserved as {want}"
        )


class WorkspacePool:
    """One :class:`Workspace` per executing thread, preallocated.

    Kernel factories call :meth:`reserve` at plan-compile time with the
    buffer sizes their node needs; reservations keep the max per name.
    The first time a thread executes the plan, :meth:`current` builds its
    workspace with every reserved buffer already allocated, so the
    steady-state path never allocates — even on a thread's first run.

    Workspaces are retained for the pool's lifetime (they back live
    views); :attr:`nbytes` reports the total arena footprint across all
    threads that have executed the plan.
    """

    def __init__(self) -> None:
        self._reservations: dict[str, tuple[int, np.dtype]] = {}
        self._local = threading.local()
        self._workspaces: list[Workspace] = []
        self._lock = ordered_lock("core.workspace.pool")

    def reserve(self, name: str, size: int, dtype) -> None:
        """Record that some node needs ``size`` elements under ``name``."""
        dtype = np.dtype(dtype)
        with self._lock:
            old = self._reservations.get(name)
            if old is not None:
                _check_dtype(name, old[1], dtype)
                if old[0] >= size:
                    return
            self._reservations[name] = (int(size), dtype)

    def current(self) -> Workspace:
        """This thread's workspace, created (preallocated) on first use."""
        tracer = active_tracer()
        t0 = time.perf_counter() if tracer.enabled else 0.0
        ws = getattr(self._local, "ws", None)
        created = ws is None
        if created:
            ws = Workspace()
            with self._lock:
                for name, (size, dtype) in self._reservations.items():
                    ws.reserve(name, size, dtype)
                self._workspaces.append(ws)
            self._local.ws = ws
        if tracer.enabled:
            tracer.record(
                "workspace.acquire",
                t0,
                time.perf_counter() - t0,
                created=created,
                nbytes=ws.nbytes,
            )
        return ws

    def workspaces(self) -> tuple[Workspace, ...]:
        with self._lock:
            return tuple(self._workspaces)

    @property
    def num_workspaces(self) -> int:
        with self._lock:
            return len(self._workspaces)

    @property
    def reserved_bytes(self) -> int:
        """Bytes one thread's workspace preallocates."""
        with self._lock:
            return sum(
                size * dtype.itemsize
                for size, dtype in self._reservations.values()
            )

    @property
    def nbytes(self) -> int:
        """Total arena bytes across every thread's workspace."""
        with self._lock:
            return sum(ws.nbytes for ws in self._workspaces)

    def reservations(self) -> Iterable[tuple[str, int, np.dtype]]:
        with self._lock:
            return tuple(
                (name, size, dtype)
                for name, (size, dtype) in sorted(self._reservations.items())
            )
