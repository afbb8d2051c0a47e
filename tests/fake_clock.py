"""A deterministic virtual clock implementing the serving Clock protocol.

Time only moves when the test calls :meth:`FakeClock.advance`; nothing in
here ever waits on wall-clock progress (the long ``cond.wait`` timeouts
below are hang *backstops* for a buggy test, not part of normal flow).

How the timed-wait handshake stays race-free: a gateway worker calls
``clock.wait(cond, remaining)`` while holding ``cond``'s lock, so the
waiter is registered (under the fake clock's own lock) *before* the
thread parks in ``cond.wait``.  When the test later calls ``advance``,
the clock collects the expired registrations and then does
``with waiter_cond: waiter_cond.notify_all()`` — acquiring that lock
blocks until the waiter has actually parked (released it inside
``cond.wait``), so a wakeup can never be lost between registration and
parking.

Tests sequence against gateway threads with
:meth:`wait_for_timed_waiters` (a real-time poll with a short cadence),
then drive virtual time with :meth:`advance`.
"""

from __future__ import annotations

import threading
import time


class _TimedWaiter:
    __slots__ = ("cond", "deadline")

    def __init__(self, cond: threading.Condition, deadline: float) -> None:
        self.cond = cond
        self.deadline = deadline


class FakeClock:
    """Virtual time: ``now`` is a number the test moves with ``advance``."""

    def __init__(self, start: float = 0.0, safety_timeout_s: float = 30.0) -> None:
        self._lock = threading.Lock()
        self._now = float(start)
        self._safety = safety_timeout_s
        self._timed_waiters: list[_TimedWaiter] = []
        self._registrations = 0

    # ------------------------------------------------------- Clock protocol
    def now(self) -> float:
        with self._lock:
            return self._now

    def wait(self, cond: threading.Condition, timeout: float | None) -> bool:
        """Condition wait whose timeout expires only via :meth:`advance`.

        Called with ``cond``'s lock held.  An untimed wait passes through
        (the waker is a real event, not time); a timed wait registers a
        deadline so ``advance`` can deliver the timeout wake.  Either way
        the underlying real wait uses the safety timeout as a backstop.
        """
        if timeout is None:
            return cond.wait(self._safety)
        with self._lock:
            waiter = _TimedWaiter(cond, self._now + timeout)
            self._timed_waiters.append(waiter)
            self._registrations += 1
        try:
            return cond.wait(self._safety)
        finally:
            with self._lock:
                self._timed_waiters.remove(waiter)

    # ----------------------------------------------------------- test knobs
    def advance(self, seconds: float) -> int:
        """Move virtual time forward and wake everything that expired.

        Returns how many timed waits expired, so a test stepping time in
        ticks knows whether a waiter is about to act on this one.
        """
        if seconds < 0:
            raise ValueError(f"cannot advance backwards ({seconds})")
        with self._lock:
            self._now += seconds
            expired = [w.cond for w in self._timed_waiters if w.deadline <= self._now]
        # Notify outside our own lock: acquiring each waiter's condition
        # blocks until that thread is parked in cond.wait, which is what
        # makes the timeout wake race-free (see module docstring).
        for cond in expired:
            with cond:
                cond.notify_all()
        return len(expired)

    @property
    def timed_waiters(self) -> int:
        with self._lock:
            return len(self._timed_waiters)

    @property
    def registrations(self) -> int:
        """Total timed waits ever registered (a progress generation count)."""
        with self._lock:
            return self._registrations

    def wait_for(self, predicate, timeout_s: float = 10.0) -> None:
        """Real-time poll until ``predicate()`` holds (test sequencing).

        The predicate runs with NO clock lock held, so it may freely read
        gateway state that itself takes locks (no lock-order inversion
        against threads inside :meth:`wait`).
        """
        deadline = time.monotonic() + timeout_s
        while not predicate():
            if time.monotonic() >= deadline:
                raise TimeoutError("FakeClock.wait_for: predicate never held")
            time.sleep(0.002)

    def wait_for_timed_waiters(self, n: int = 1, timeout_s: float = 10.0) -> None:
        """Block until at least ``n`` timed condition waits are registered."""
        self.wait_for(lambda: self.timed_waiters >= n, timeout_s)

    def wait_for_registrations(self, n: int, timeout_s: float = 10.0) -> None:
        """Block until the lifetime registration count reaches ``n``.

        Distinguishes a *re*-registration (wake, re-check, wait again)
        from a waiter that never woke — the waiter-count alone cannot.
        """
        self.wait_for(lambda: self.registrations >= n, timeout_s)
