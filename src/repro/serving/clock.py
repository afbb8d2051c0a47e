"""The serving layer's clock seam.

Every time-dependent decision the gateway makes — deadline-based batch
flushing, latency accounting — goes through a :class:`Clock` instead of
the ``time`` module, for two reasons:

- **Determinism.**  Tests inject a fake clock (``tests/fake_clock.py``)
  whose virtual time only moves when the test says so, which makes every
  deadline/flush/timeout scenario exactly reproducible and wall-clock
  free (the repo lint's L104 no-wall-clock contract extends to
  ``serving/``; the real clock below is monotonic-only).
- **One timed-wait discipline.**  :meth:`Clock.wait` is
  ``threading.Condition.wait`` with the timeout interpreted *in clock
  time*.  A gateway worker never sleeps; it waits on the queue's
  condition with the remaining-deadline timeout, so a producer enqueue
  and a deadline expiry wake it through the same edge.
"""

from __future__ import annotations

import threading
import time
from typing import Protocol, runtime_checkable


@runtime_checkable
class Clock(Protocol):
    """Monotonic now plus condition waits measured in clock time."""

    def now(self) -> float:
        """Monotonic seconds; only differences are meaningful."""
        ...

    def wait(self, cond: threading.Condition, timeout: float | None) -> bool:
        """``cond.wait(timeout)`` with ``timeout`` in clock time.

        Must be called with ``cond``'s lock held, exactly like
        :meth:`threading.Condition.wait`.  Returns False only on a
        timeout-shaped wake; callers re-check their predicate either way.
        """
        ...


class MonotonicClock:
    """The real clock: ``time.perf_counter`` + real condition waits.

    ``perf_counter`` is the clock every span and lifecycle mark is stamped
    with, so a request's ``latency_ms`` and its marks share one timebase.
    """

    def now(self) -> float:
        return time.perf_counter()

    def wait(self, cond: threading.Condition, timeout: float | None) -> bool:
        return cond.wait(timeout)


#: the shared default clock; gateways built without an explicit clock use it
MONOTONIC_CLOCK = MonotonicClock()
