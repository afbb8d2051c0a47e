"""The lock-order table: every lock in ``src/``, with a declared rank.

Nested lock acquisition must follow **ascending rank** — a thread that
holds a lock of rank *r* may only acquire locks of rank > *r* (or
re-enter the same reentrant lock).  Since every chain respects one total
order, no cross-thread cycle — and therefore no deadlock — is possible
among the registered locks.

The table is the single source of truth shared by both halves of the
concurrency sanitizer:

- the **static** rules (:mod:`repro.analysis.concurrency`) reject raw
  ``threading.Lock()`` construction in ``src/`` and names missing from
  this table (C001), and resolve ``with`` statements to locks (C003);
- the **runtime** shim (:mod:`repro.concurrency.locks`) enforces the
  order on real acquisitions when ``REPRO_SANITIZE=1`` — the one check
  of it.

Rank gaps of 10 leave room to slot new locks between existing layers.
The recorded orderings (the edges each rank pair legalizes) are facts of
the current code, called out per entry below; codifying them here is
what turned the observability PR's "plan lock before registry lock"
comment into an enforced invariant.
"""

from __future__ import annotations

from dataclasses import dataclass


class UnknownLockError(KeyError):
    """A lock name that is not registered in :data:`LOCK_RANKS`."""


@dataclass(frozen=True)
class LockRank:
    """One registered lock: its name, rank and reentrancy."""

    name: str
    rank: int
    #: True for locks backed by ``threading.RLock`` — the same thread may
    #: re-enter them, which the sanitizer allows without a rank check
    reentrant: bool
    #: where the lock lives and why it sits at this rank
    doc: str


#: the repo's lock order, outermost (lowest rank) first
LOCK_ORDER: tuple[LockRank, ...] = (
    LockRank(
        "serving.server", 30, False,
        "_ModelServer._lock — the per-model queue/replica state lock "
        "(its one Condition wraps it); admission counts metrics while "
        "holding it, so it precedes obs.metrics",
    ),
    LockRank(
        "runtime.engine.plan", 50, False,
        "Engine._plan_lock — guards the plan cache and ParamCache; plan "
        "compilation reserves arena buffers, records tracer spans and "
        "counts metrics, so it precedes all of those",
    ),
    LockRank(
        "core.workspace", 60, False,
        "Workspace.lock — exclusive use of an engine's scratch arena: held "
        "across CompiledPlan.execute (kernels record spans under it), "
        "taken by reserve() under the plan lock at compile time",
    ),
    LockRank(
        "obs.trace", 80, False,
        "Tracer._lock — per-thread ring registration/collection; "
        "span and mark recording can happen under the server and plan "
        "locks",
    ),
    LockRank(
        "obs.metrics", 90, True,
        "MetricsRegistry._lock — the innermost (leaf) lock: instruments "
        "update under code holding any of the above, and snapshot() "
        "evaluates callback gauges *outside* it precisely so no metrics "
        "-> plan edge ever forms (the rule this table codifies)",
    ),
)

#: name -> :class:`LockRank` lookup over :data:`LOCK_ORDER`
LOCK_RANKS: dict[str, LockRank] = {entry.name: entry for entry in LOCK_ORDER}

#: ``with``-item *method* patterns the static rules resolve to a lock
#: calling a method with one of these names inside a ``with`` statement
#: acquires the mapped lock (the repo's single accessor idiom is
#: ``MetricsRegistry.lock()``)
ACQUIRE_METHODS: dict[str, str] = {"lock": "obs.metrics"}


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
