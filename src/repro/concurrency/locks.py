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
  :class:`LockOrderError` unless the new lock's rank is strictly higher
  than every lock the thread holds — *before* blocking, so a would-be
  deadlock becomes a stack trace instead of a hang.  Ranks are distinct
  per name, so this one check is the whole lock-order check: every
  nesting follows one total order and no cycle can form.

:class:`OrderedLock` implements the private ``Condition`` integration
hooks (``_release_save``/``_acquire_restore``/``_is_owned``), so
``threading.Condition(ordered_lock(...))`` works in both modes — the
serving gateway's condition rides the same sanitized lock.
"""

from __future__ import annotations

import os
import threading
from typing import Any

from repro.concurrency.order import rank_of

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
    """A lock-order violation: acquiring a lock while holding one of
    equal or higher rank (or re-acquiring a held non-reentrant lock).

    Raised by the sanitizer *before* the offending acquisition blocks.
    Carries the acquiring lock's name and the thread's lockset at the
    time of the attempt.
    """

    def __init__(self, message: str, *, acquiring: str, held: tuple[str, ...]):
        super().__init__(message)
        self.acquiring = acquiring
        self.held = held


#: per-thread lockset of sanitized locks, outermost first
_TLS = threading.local()


def _held() -> list["OrderedLock"]:
    held = getattr(_TLS, "held", None)
    if held is None:
        held = _TLS.held = []
    return held


def lockset() -> tuple[str, ...]:
    """Names of the sanitized locks the calling thread holds, outermost first."""
    return tuple(lock.name for lock in _held())


class OrderedLock:
    """A named, ranked, sanitizing lock.

    Constructing one always checks: use the :func:`ordered_lock` /
    :func:`ordered_rlock` factories in production code so the disabled
    path stays a bare ``threading`` primitive.
    """

    __slots__ = ("name", "rank", "reentrant", "_inner")

    def __init__(self, name: str) -> None:
        entry = rank_of(name)
        self.name = name
        self.rank = entry.rank
        self.reentrant = entry.reentrant
        self._inner: Any = (
            threading.RLock() if self.reentrant else threading.Lock()  # repro: allow[C001] the checked primitive inside the shim itself
        )

    def _check(self, blocking: bool) -> None:
        """Check one acquisition attempt against the lockset (before it can block).

        Re-entering a held reentrant lock is allowed, and so is a
        non-blocking probe of a held non-reentrant one (how
        ``Condition._is_owned`` works against a bare Lock; it can never
        deadlock).  A blocking re-acquisition of a held non-reentrant
        lock (guaranteed self-deadlock) raises, and so does nesting
        under any held lock whose rank is not strictly lower — another
        instance of the same name included.
        """
        for entry in _held():
            if entry is self:
                if self.reentrant or not blocking:
                    continue
                raise LockOrderError(
                    f"thread re-acquiring non-reentrant lock {self.name!r} "
                    "it already holds (self-deadlock)",
                    acquiring=self.name,
                    held=lockset(),
                )
            if entry.rank >= self.rank:
                raise LockOrderError(
                    f"lock order violated: acquiring {self.name!r} (rank "
                    f"{self.rank}) while holding {entry.name!r} (rank "
                    f"{entry.rank}); ranks must strictly increase inward, "
                    "see repro.concurrency.order",
                    acquiring=self.name,
                    held=lockset(),
                )

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        self._check(blocking)
        ok = self._inner.acquire(blocking, timeout)
        if ok:
            _held().append(self)
        return ok

    def release(self) -> None:
        self._inner.release()
        held = _held()
        for i in range(len(held) - 1, -1, -1):
            if held[i] is self:
                del held[i]
                return
        raise RuntimeError(
            f"releasing lock {self.name!r} this thread does not hold"
        )

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
        return any(entry is self for entry in _held())

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
