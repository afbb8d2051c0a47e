"""Concurrency discipline: the lock-order table and the runtime sanitizer.

The repo's threading invariants used to live in comments and changelogs
(the "never hold the server lock across engine execution" rule in the
gateway).  This package makes them machine-checked:

- :mod:`repro.concurrency.order` — the single source of truth for lock
  *ranks*: every lock in ``src/`` is named here, and nested acquisition
  must follow ascending rank (outermost first).
- :mod:`repro.concurrency.locks` — :class:`OrderedLock`, the shim every
  repo lock routes through (via :func:`ordered_lock`).  With
  ``REPRO_SANITIZE=1`` it keeps per-thread locksets and raises a typed
  :class:`LockOrderError` on any nesting whose rank does not strictly
  increase; disabled, the factory hands back a bare ``threading.Lock``,
  so the steady-state runtime pays nothing.

The static half lives in :mod:`repro.analysis.concurrency` (rules
C001, C003-C005): every lock is in the table and no critical section
blocks.  The order itself is checked here, at runtime only.
"""

from repro.concurrency.locks import (
    LockOrderError,
    ordered_lock,
    sanitizer_enabled,
)
from repro.concurrency.order import LOCK_RANKS, rank_of

__all__ = [
    "LOCK_RANKS",
    "LockOrderError",
    "ordered_lock",
    "rank_of",
    "sanitizer_enabled",
]
