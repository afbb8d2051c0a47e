"""OrderedLock: the ranked lock shim every repo lock routes through.

Production code never constructs ``threading.Lock`` directly (static
rule C001); it calls :func:`ordered_lock`/:func:`ordered_rlock` with a
name registered in :mod:`repro.concurrency.order`.  The factories have
two modes:

- **Sanitizer off** (the default): they return a *bare*
  ``threading.Lock``/``RLock`` — the steady-state runtime pays zero
  overhead for the discipline (the name is still validated against the
  rank table, so an unregistered lock fails fast either way).
- **Sanitizer on** (``REPRO_SANITIZE=1``): they return an
  :class:`OrderedLock` that, on every acquisition, checks the thread's
  current lockset against the rank table and raises a typed
  :class:`LockOrderError` on inversion — *before* blocking, so a
  would-be deadlock becomes a stack trace instead of a hang.  Every
  acquisition attempt also lands an edge in a global
  :class:`LockGraph`; :func:`check_teardown` (called by the test
  harness at session end) raises :class:`LockCycleError` if the
  recorded graph contains a cross-thread cycle — the deadlock-potential
  signal rank checking alone cannot see for equal-rank peers.

:class:`OrderedLock` implements the private ``Condition`` integration
hooks (``_release_save``/``_acquire_restore``/``_is_owned``), so
``threading.Condition(ordered_lock(...))`` works in both modes — the
serving gateway's two conditions ride the same sanitized lock.
"""

from __future__ import annotations

import os
import threading
from typing import Any

from repro.concurrency.order import LockRank, rank_of

#: environment variable that switches the runtime sanitizer on
SANITIZE_ENV = "REPRO_SANITIZE"


def sanitizer_enabled() -> bool:
    """True when ``REPRO_SANITIZE`` is set to anything but ``''``/``'0'``.

    Read at lock *construction* time: objects built inside a sanitized
    test (or a ``make sanitize`` run) carry checking locks; existing
    objects are untouched.
    """
    return os.environ.get(SANITIZE_ENV, "") not in ("", "0")


class LockOrderError(RuntimeError):
    """A rank inversion: acquiring a lock while holding a higher-ranked one.

    Raised by the sanitizer *before* the offending acquisition blocks.
    Carries the acquiring lock's name and the thread's lockset at the
    time of the attempt.
    """

    def __init__(self, message: str, *, acquiring: str, held: tuple[str, ...]):
        super().__init__(message)
        self.acquiring = acquiring
        self.held = held


class LockCycleError(RuntimeError):
    """The recorded acquisition graph contains a cycle (deadlock potential)."""

    def __init__(self, cycles: list[list[str]]):
        rendered = "; ".join(" -> ".join(c + [c[0]]) for c in cycles)
        super().__init__(
            f"lock-acquisition graph has {len(cycles)} cycle(s): {rendered}"
        )
        self.cycles = cycles


class LockGraph:
    """The sanitizer's state: per-thread locksets + the acquisition graph.

    Thread locksets live in a ``threading.local`` (no synchronization
    needed); the name-level edge set is guarded by one internal raw lock
    — the sanitizer's own mutex cannot route through :class:`OrderedLock`
    without checking itself.
    """

    def __init__(self) -> None:
        self._mu = threading.Lock()  # repro: allow[C001] the sanitizer's internal mutex cannot route through the shim it implements
        self._edges: dict[str, set[str]] = {}
        self._tls = threading.local()

    # ------------------------------------------------------------- locksets
    def _held(self) -> list["OrderedLock"]:
        held = getattr(self._tls, "held", None)
        if held is None:
            held = self._tls.held = []
        return held

    def lockset(self) -> tuple[str, ...]:
        """Names of the locks the calling thread holds, outermost first."""
        return tuple(lock.name for lock in self._held())

    def holds(self, lock: "OrderedLock") -> bool:
        return any(entry is lock for entry in self._held())

    # ----------------------------------------------------------- recording
    def on_attempt(self, lock: "OrderedLock", blocking: bool) -> None:
        """Check + record one acquisition attempt (before it can block).

        Rank inversions raise :class:`LockOrderError`; a blocking
        re-acquisition of a held non-reentrant lock (guaranteed
        self-deadlock) raises too.  Non-blocking probes of a held lock
        are tolerated silently — that is how ``Condition._is_owned``
        works against a bare Lock, and it can never deadlock.  Every
        attempt against a *different* lock lands a ``held -> acquiring``
        edge in the graph, whether or not the acquisition succeeds:
        attempted orderings are what make deadlocks possible.
        """
        held = self._held()
        edges: list[tuple[str, str]] = []
        for entry in held:
            if entry is lock:
                if lock.reentrant:
                    continue
                if not blocking:
                    continue  # Condition._is_owned-style probe
                raise LockOrderError(
                    f"thread re-acquiring non-reentrant lock {lock.name!r} "
                    "it already holds (self-deadlock)",
                    acquiring=lock.name,
                    held=self.lockset(),
                )
            if entry.name == lock.name:
                continue  # a peer instance at the same rank; no self-edge
            if entry.rank > lock.rank:
                raise LockOrderError(
                    f"rank inversion: acquiring {lock.name!r} (rank "
                    f"{lock.rank}) while holding {entry.name!r} (rank "
                    f"{entry.rank}); see repro.concurrency.order",
                    acquiring=lock.name,
                    held=self.lockset(),
                )
            edges.append((entry.name, lock.name))
        if edges:
            with self._mu:
                for src, dst in edges:
                    self._edges.setdefault(src, set()).add(dst)

    def on_acquired(self, lock: "OrderedLock") -> None:
        self._held().append(lock)

    def on_released(self, lock: "OrderedLock") -> None:
        held = self._held()
        for i in range(len(held) - 1, -1, -1):
            if held[i] is lock:
                del held[i]
                return
        raise RuntimeError(
            f"releasing lock {lock.name!r} this thread does not hold"
        )

    # ----------------------------------------------------------- the graph
    def edges(self) -> dict[str, tuple[str, ...]]:
        """A copy of the recorded acquisition graph."""
        with self._mu:
            return {src: tuple(sorted(dst)) for src, dst in self._edges.items()}

    def cycles(self) -> list[list[str]]:
        """Every distinct cycle in the recorded graph (usually empty)."""
        with self._mu:
            graph = {src: sorted(dst) for src, dst in self._edges.items()}
        found: list[list[str]] = []
        seen_keys: set[frozenset[str]] = set()
        path: list[str] = []
        on_path: set[str] = set()
        done: set[str] = set()

        def visit(node: str) -> None:
            if node in done:
                return
            path.append(node)
            on_path.add(node)
            for nxt in graph.get(node, ()):
                if nxt in on_path:
                    cycle = path[path.index(nxt):]
                    key = frozenset(cycle)
                    if key not in seen_keys:
                        seen_keys.add(key)
                        found.append(list(cycle))
                elif nxt not in done:
                    visit(nxt)
            on_path.discard(node)
            path.pop()
            done.add(node)

        for node in sorted(graph):
            visit(node)
        return found

    def check(self) -> None:
        """Raise :class:`LockCycleError` if the graph has any cycle."""
        cycles = self.cycles()
        if cycles:
            raise LockCycleError(cycles)

    def reset(self) -> None:
        """Drop the recorded edges (the calling thread's lockset too)."""
        with self._mu:
            self._edges.clear()
        self._tls.held = []


#: the process-wide graph every production OrderedLock records into
_GRAPH = LockGraph()


def global_graph() -> LockGraph:
    """The process-wide sanitizer state (``make sanitize`` checks it)."""
    return _GRAPH


def check_teardown() -> None:
    """The teardown gate: raise if the global graph recorded a cycle.

    The test harness calls this at session end when ``REPRO_SANITIZE=1``
    — a full suite run under the sanitizer proves both that no
    acquisition inverted the rank table *and* that the realized
    acquisition graph is acyclic.
    """
    _GRAPH.check()


class OrderedLock:
    """A named, ranked, sanitizing lock.

    Constructing one always checks: use the :func:`ordered_lock` /
    :func:`ordered_rlock` factories in production code so the disabled
    path stays a bare ``threading`` primitive.  ``rank=`` overrides the
    table for test fixtures only (static rule C001 rejects it in
    ``src/``); ``graph=`` isolates a fixture's state from the process
    graph.
    """

    __slots__ = ("name", "rank", "reentrant", "_inner", "_graph")

    def __init__(
        self,
        name: str,
        *,
        reentrant: bool = False,
        rank: int | None = None,
        graph: LockGraph | None = None,
    ) -> None:
        if rank is None:
            entry: LockRank = rank_of(name)
            rank = entry.rank
            reentrant = entry.reentrant
        self.name = name
        self.rank = rank
        self.reentrant = reentrant
        self._inner: Any = (
            threading.RLock() if reentrant else threading.Lock()  # repro: allow[C001] the checked primitive inside the shim itself
        )
        self._graph = graph if graph is not None else _GRAPH

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        self._graph.on_attempt(self, blocking)
        ok = self._inner.acquire(blocking, timeout)
        if ok:
            self._graph.on_acquired(self)
        return ok

    def release(self) -> None:
        self._inner.release()
        self._graph.on_released(self)

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info: Any) -> None:
        self.release()

    # ------------------------------------------- threading.Condition hooks
    # Condition(lock) lifts these from the lock when present; implementing
    # them keeps the sanitizer's lockset exact across cond.wait()'s
    # release/reacquire, and makes _is_owned() a real answer instead of
    # the acquire(False) probe used against bare Locks.
    def _release_save(self) -> None:
        if self.reentrant:
            raise NotImplementedError(
                "Condition over a reentrant OrderedLock is unsupported; "
                "pair conditions with non-reentrant locks"
            )
        self.release()

    def _acquire_restore(self, state: Any) -> None:
        self.acquire()

    def _is_owned(self) -> bool:
        return self._graph.holds(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OrderedLock({self.name!r}, rank={self.rank})"


def ordered_lock(name: str) -> Any:
    """A registered repo lock: bare ``threading.Lock`` unless sanitizing.

    The name is validated against the rank table in *both* modes, so an
    unregistered lock fails at construction even without the sanitizer.
    """
    entry = rank_of(name)
    if not sanitizer_enabled():
        if entry.reentrant:
            return threading.RLock()  # repro: allow[C001] pass-through mode of the registered factory itself
        return threading.Lock()  # repro: allow[C001] pass-through mode of the registered factory itself
    return OrderedLock(name)  # repro: allow[C001] the factory forwards its (already validated) name argument


def ordered_rlock(name: str) -> Any:
    """A registered *reentrant* repo lock (see :func:`ordered_lock`).

    The table entry must be declared ``reentrant=True`` — asking for a
    reentrant lock at a non-reentrant rank is a registration bug.
    """
    entry = rank_of(name)
    if not entry.reentrant:
        raise ValueError(
            f"lock {name!r} is registered non-reentrant in "
            "repro.concurrency.order; use ordered_lock() or fix the table"
        )
    return ordered_lock(name)  # repro: allow[C001] the factory forwards its (already validated) name argument
