"""The lock-order table: every lock in ``src/``, with a declared rank.

Nested lock acquisition must follow **strictly ascending rank** — a
thread that holds a lock of rank *r* may only acquire locks of rank > *r*;
no lock is reentrant, and a second instance of a held name is refused
like any other equal rank.  Ranks are distinct per name, so
every chain respects one total order and no cross-thread cycle — and
therefore no deadlock — is possible among the registered locks.

The table is the single source of truth shared by both halves of the
concurrency sanitizer:

- the **static** rules (:mod:`repro.analysis.concurrency`) reject raw
  ``threading.Lock()`` / ``RLock()`` construction in ``src/`` and names
  missing from this table (C001), and resolve ``with`` statements to
  locks (C003);
- the **runtime** shim (:mod:`repro.concurrency.locks`) enforces the
  order on real acquisitions when ``REPRO_SANITIZE=1`` — the one check
  of it.

Rank gaps of 10 leave room to slot new locks between existing layers.
The nestings each entry's rank allows are facts of the current code,
called out per entry below.
"""

from __future__ import annotations

from dataclasses import dataclass


class UnknownLockError(KeyError):
    """A lock name that is not registered in :data:`LOCK_RANKS`."""


@dataclass(frozen=True)
class LockRank:
    """One registered lock: its name and rank."""

    name: str
    rank: int
    #: where the lock lives and why it sits at this rank
    doc: str


#: the repo's lock order, outermost (lowest rank) first
LOCK_ORDER: tuple[LockRank, ...] = (
    LockRank(
        "serving.server", 30,
        "_ModelServer._lock — the per-model queue/replica state lock "
        "(its one Condition wraps it) and the model's counters; "
        "admission records tracer marks while holding it",
    ),
    LockRank(
        "runtime.engine.plan", 50,
        "Engine._plan_lock — guards the plan cache, ParamCache and the "
        "engine's counters; plan compilation reserves arena buffers and "
        "records tracer spans, so it precedes both",
    ),
    LockRank(
        "core.workspace", 60,
        "Workspace.lock — exclusive use of an engine's scratch arena: held "
        "across CompiledPlan.execute (kernels record spans under it), "
        "taken by reserve() under the plan lock at compile time",
    ),
    LockRank(
        "obs.trace", 80,
        "Tracer._lock — per-thread ring registration/collection; "
        "span and mark recording can happen under the server and plan "
        "locks",
    ),
    LockRank(
        "serving.gateway", 90,
        "Gateway._lock — guards only the unknown-model shed count: a "
        "leaf, held for one increment or one read",
    ),
)

#: name -> :class:`LockRank` lookup over :data:`LOCK_ORDER`
LOCK_RANKS: dict[str, LockRank] = {entry.name: entry for entry in LOCK_ORDER}


def rank_of(name: str) -> LockRank:
    """The registered :class:`LockRank` for ``name``.

    Raises :class:`UnknownLockError` for unregistered names — creating a
    lock the table does not know is exactly what rule C001 forbids.
    """
    try:
        return LOCK_RANKS[name]
    except KeyError:
        raise UnknownLockError(
            f"lock {name!r} is not registered in repro.concurrency.order; "
            f"add it to LOCK_ORDER with a rank (known: {sorted(LOCK_RANKS)})"
        ) from None
