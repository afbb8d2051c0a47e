"""Workspace arena: preallocated scratch buffers for the binarized hot path.

The paper's kernels (Section 3.2) follow the Ruy/TFLite memory-arena
design: one arena per interpreter, sized once, so the per-inference path
performs no allocation.  :class:`Workspace` is that arena for the NumPy
kernels — a bag of named, grow-only scratch buffers.  A buffer is
(re)allocated only when a request exceeds its current capacity;
steady-state requests return views into existing storage.

An :class:`~repro.runtime.engine.Engine` owns one: every plan it compiles
reserves its buffers there (the max per name over all nodes of all batch
factors) and binds its kernels' views into it.

Thread-safety is exclusivity, not isolation: :attr:`Workspace.lock`
(``core.workspace``) is held for a whole run of kernels bound here
(:meth:`repro.runtime.plan.CompiledPlan.execute`) and taken by
:meth:`Workspace.reserve`, so a buffer is never replaced under a running
call.  ``take`` / ``bound`` lock nothing (the holder calls them) and
neither does ``nbytes``, so reading the footprint never waits out a run.
"""

from __future__ import annotations

import math
from typing import Any, Callable

import numpy as np

from repro.concurrency.locks import ordered_lock


class Workspace:
    """Named, grow-only scratch buffers; one per engine, used by one
    thread at a time (the holder of :attr:`lock`).

    :meth:`take` returns a contiguous view of the requested shape/dtype
    into a flat backing array, growing the backing array only when the
    request exceeds its capacity.  The contents of a returned view are
    undefined (previous users of the same name may have written anything)
    — callers fully overwrite what they take, or zero the parts they rely
    on (see the border fill in
    :meth:`repro.core.bconv2d.BoundBConv2D.bind`).
    """

    def __init__(self) -> None:
        #: held around every run of kernels bound here, and by ``reserve``
        self.lock = ordered_lock("core.workspace")
        self._buffers: dict[str, np.ndarray] = {}
        #: number of (re)allocations ever performed; a steady-state hot
        #: loop must keep this constant across calls (asserted in tests).
        self.grows = 0
        self._bound: dict[object, Any] = {}

    def take(self, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        """A ``shape``/``dtype`` view of the buffer named ``name``.  A name
        has one dtype for life — another raises ``ValueError`` (two users
        alternating dtypes would reallocate the buffer on every call)."""
        dtype = np.dtype(dtype)
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is not None and buf.dtype != dtype:
            raise ValueError(
                f"arena buffer {name!r} holds {buf.dtype}; it cannot also be "
                f"taken or reserved as {dtype}"
            )
        if buf is None or buf.size < size:
            buf = np.empty(size, dtype)
            self._buffers[name] = buf
            self.grows += 1
            # Views bound so far may point into the buffer just replaced;
            # dropping them also lets go of it.
            self._bound.clear()
        return buf[:size].reshape(shape)

    def bound(self, key: object, build: Callable[["Workspace"], Any]) -> Any:
        """``build(self)`` — views a bound kernel pre-slices from this
        arena — memoized per ``key`` while no buffer is (re)allocated.

        Any growth forgets every memoized result (a buffer its views point
        into may have been replaced): the next call rebuilds, nothing is
        written through stale views and nothing keeps the old buffer alive.
        ``build`` is repeated until it takes nothing new, so its result
        never straddles two generations of a buffer.
        """
        views = self._bound.get(key)
        if views is None:
            while True:
                grows = self.grows
                views = build(self)
                if self.grows == grows:
                    break
            self._bound[key] = views
        return views

    def reserve(self, name: str, size: int, dtype) -> None:
        """Preallocate ``name`` to hold at least ``size`` elements; waits
        for a running holder of :attr:`lock` before replacing a buffer."""
        with self.lock:
            self.take(name, (size,), dtype)

    def buffer(self, name: str) -> np.ndarray | None:
        """The backing array for ``name`` (introspection/tests)."""
        return self._buffers.get(name)

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._buffers))

    @property
    def nbytes(self) -> int:
        """Bytes held; lock-free (``list`` snapshots the dict in one step)."""
        return sum(b.nbytes for b in list(self._buffers.values()))
