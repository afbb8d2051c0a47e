"""Runtime lock-sanitizer tests: OrderedLock, LockGraph, the factories.

Each sanitized-mode test builds :class:`OrderedLock` directly with an
isolated :class:`LockGraph` — the class always checks, regardless of
``REPRO_SANITIZE`` — so these tests are deterministic in both plain and
``make sanitize`` runs.  Factory mode switching is pinned via
``monkeypatch.setenv``; the deadlock fixture runs its two threads
*sequentially* (each ordering completes, no timing races) and relies on
the graph's cycle detector, which is exactly the signal
:func:`check_teardown` gates the suite on.
"""

from __future__ import annotations

import re
import threading
from pathlib import Path

import pytest

from repro.concurrency import (
    SANITIZE_ENV,
    LOCK_RANKS,
    LockCycleError,
    LockGraph,
    LockOrderError,
    OrderedLock,
    UnknownLockError,
    ordered_lock,
    ordered_rlock,
    rank_of,
    sanitizer_enabled,
)
from repro.concurrency.order import LOCK_ORDER


# ----------------------------------------------------------- the rank table


def test_rank_table_is_a_strict_hierarchy_per_name():
    ranks = [entry.rank for entry in LOCK_RANKS.values()]
    assert len(set(LOCK_RANKS)) == len(ranks)
    assert all(isinstance(r, int) for r in ranks)
    # Exactly one reentrant entry: the metrics leaf (counters are bumped
    # from under every other lock, including from metrics callbacks).
    reentrant = [n for n, e in LOCK_RANKS.items() if e.reentrant]
    assert reentrant == ["obs.metrics"]


def test_architecture_doc_lists_every_registered_lock():
    """docs/architecture.md §13's rank table is the table, row for row."""
    doc = Path(__file__).resolve().parents[1] / "docs" / "architecture.md"
    section = doc.read_text().split("### The rank table", 1)[1]
    section = section.split("\n### ", 1)[0]
    rows = re.findall(r"^\| `([^`]+)` \| (\d+) \| (yes|no) \|", section, re.M)
    assert [(name, int(rank), flag == "yes") for name, rank, flag in rows] == [
        (entry.name, entry.rank, entry.reentrant) for entry in LOCK_ORDER
    ]


def test_rank_of_unknown_name_raises():
    with pytest.raises(UnknownLockError, match="no.such.lock"):
        rank_of("no.such.lock")


# ------------------------------------------------------------- the factories


def test_factories_are_bare_primitives_when_disabled(monkeypatch):
    monkeypatch.delenv(SANITIZE_ENV, raising=False)
    assert not sanitizer_enabled()
    # The ≤1.05x overhead contract: with the sanitizer off the factory
    # returns the raw threading primitive itself, not a wrapper.
    assert type(ordered_lock("obs.trace")) is type(threading.Lock())
    assert type(ordered_rlock("obs.metrics")) is type(threading.RLock())

    monkeypatch.setenv(SANITIZE_ENV, "0")
    assert not sanitizer_enabled()
    assert type(ordered_lock("obs.trace")) is type(threading.Lock())


def test_factories_return_ordered_locks_when_enabled(monkeypatch):
    monkeypatch.setenv(SANITIZE_ENV, "1")
    assert sanitizer_enabled()
    lock = ordered_lock("runtime.engine.plan")
    assert isinstance(lock, OrderedLock)
    assert lock.rank == rank_of("runtime.engine.plan").rank
    rlock = ordered_rlock("obs.metrics")
    assert isinstance(rlock, OrderedLock)
    assert rlock.reentrant


def test_factories_validate_names_in_both_modes(monkeypatch):
    for value in ("", "1"):
        monkeypatch.setenv(SANITIZE_ENV, value)
        with pytest.raises(UnknownLockError):
            ordered_lock("not.registered")


def test_ordered_rlock_rejects_non_reentrant_names(monkeypatch):
    # Table says obs.trace is non-reentrant; asking for an RLock there is
    # a registration bug in either mode.
    for value in ("", "1"):
        monkeypatch.setenv(SANITIZE_ENV, value)
        with pytest.raises(ValueError, match="registered non-reentrant"):
            ordered_rlock("obs.trace")


# ------------------------------------------------------ ordering enforcement


def _pair(graph):
    """An (outer, inner) pair from the real table, rank 50 < rank 90."""
    return (
        OrderedLock("runtime.engine.plan", graph=graph),
        OrderedLock("obs.metrics", graph=graph),
    )


def test_correct_order_records_an_edge():
    g = LockGraph()
    plan, metrics = _pair(g)
    with plan:
        assert g.lockset() == ("runtime.engine.plan",)
        with metrics:
            assert g.lockset() == ("runtime.engine.plan", "obs.metrics")
    assert g.lockset() == ()
    assert g.edges() == {"runtime.engine.plan": ("obs.metrics",)}
    g.check()  # two-node DAG: no cycle


def test_rank_inversion_raises_before_blocking():
    g = LockGraph()
    plan, metrics = _pair(g)
    with metrics:
        with pytest.raises(LockOrderError) as exc_info:
            plan.acquire()
    err = exc_info.value
    assert err.acquiring == "runtime.engine.plan"
    assert err.held == ("obs.metrics",)
    assert "rank inversion" in str(err)
    # The attempt never reached the inner lock: it is still free.
    assert not plan.locked()
    assert g.lockset() == ()


def test_non_reentrant_self_reacquire_raises():
    g = LockGraph()
    lock = OrderedLock("obs.trace", graph=g)
    with lock:
        with pytest.raises(LockOrderError, match="self-deadlock"):
            lock.acquire()
        # The non-blocking probe (Condition._is_owned style) is fine: no
        # raise, and the held inner lock just reports failure.
        assert lock.acquire(blocking=False) is False
    assert g.lockset() == ()


def test_reentrant_lock_reenters():
    g = LockGraph()
    metrics = OrderedLock("obs.metrics", graph=g)
    with metrics:
        with metrics:
            assert g.lockset() == ("obs.metrics", "obs.metrics")
    assert g.lockset() == ()


def test_release_of_unheld_lock_raises():
    g = LockGraph()
    lock = OrderedLock("obs.trace", graph=g)
    lock._inner.acquire()  # bypass the shim so only the graph is out of sync
    with pytest.raises(RuntimeError, match="does not hold"):
        lock.release()


def test_locksets_are_per_thread():
    g = LockGraph()
    plan, metrics = _pair(g)
    seen = {}

    def worker():
        with metrics:
            seen["worker"] = g.lockset()

    with plan:
        t = threading.Thread(target=worker)
        t.start()
        t.join()
        assert seen["worker"] == ("obs.metrics",)
        assert g.lockset() == ("runtime.engine.plan",)
    # Disjoint threads: no plan -> metrics edge was ever attempted.
    assert g.edges() == {}


# ------------------------------------------------------------ cycle detection


def test_two_thread_deadlock_fixture_is_caught():
    """The canonical AB/BA deadlock, made deterministic.

    Two equal-rank locks (rank checking is silent for peers) acquired in
    opposite orders by two threads.  Run sequentially so both orderings
    complete — the *graph* still records a -> b and b -> a, and the
    teardown check must flag the cycle.
    """
    g = LockGraph()
    a = OrderedLock("t.a", rank=50, graph=g)
    b = OrderedLock("t.b", rank=50, graph=g)

    def t1():
        with a:
            with b:
                pass

    def t2():
        with b:
            with a:
                pass

    for target in (t1, t2):
        thread = threading.Thread(target=target)
        thread.start()
        thread.join()

    assert g.edges() == {"t.a": ("t.b",), "t.b": ("t.a",)}
    with pytest.raises(LockCycleError) as exc_info:
        g.check()
    assert [sorted(c) for c in exc_info.value.cycles] == [["t.a", "t.b"]]


def test_consistent_order_fixture_is_clean():
    g = LockGraph()
    a = OrderedLock("t.a", rank=50, graph=g)
    b = OrderedLock("t.b", rank=50, graph=g)

    def worker():
        with a:
            with b:
                pass

    for _ in range(2):
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()

    assert g.edges() == {"t.a": ("t.b",)}
    g.check()


def test_three_lock_cycle_through_distinct_pairs():
    g = LockGraph()
    locks = {n: OrderedLock(f"t.{n}", rank=50, graph=g) for n in "abc"}

    def grab(first, second):
        with locks[first]:
            with locks[second]:
                pass

    for pair in (("a", "b"), ("b", "c"), ("c", "a")):
        thread = threading.Thread(target=grab, args=pair)
        thread.start()
        thread.join()

    with pytest.raises(LockCycleError):
        g.check()
    g.reset()
    assert g.edges() == {}
    g.check()


# --------------------------------------------------- Condition integration


def test_condition_over_ordered_lock_waits_and_notifies():
    g = LockGraph()
    lock = OrderedLock("serving.server", graph=g)
    cond = threading.Condition(lock)
    state = {"ready": False, "observed": None}

    def waiter():
        with cond:
            while not state["ready"]:
                cond.wait(timeout=5.0)
            # Reacquired after wait: the lockset must know.
            state["observed"] = g.lockset()

    t = threading.Thread(target=waiter)
    t.start()
    with cond:
        state["ready"] = True
        cond.notify_all()
    t.join(5.0)
    assert not t.is_alive()
    assert state["observed"] == ("serving.server",)
    assert g.lockset() == ()
    g.check()


def test_condition_wait_releases_the_sanitized_lockset():
    g = LockGraph()
    lock = OrderedLock("serving.server", graph=g)
    cond = threading.Condition(lock)
    released = {}

    def prober():
        # While the waiter is parked the lock must be genuinely free.
        released["acquired"] = lock.acquire(blocking=False)
        if released["acquired"]:
            lock.release()
        with cond:
            cond.notify_all()

    def waiter():
        with cond:
            cond.wait(timeout=5.0)

    t = threading.Thread(target=waiter)
    t.start()
    # Spin briefly until the waiter parks and releases the lock.
    for _ in range(1000):
        if not lock.locked():
            break
        threading.Event().wait(0.001)
    prober()
    t.join(5.0)
    assert not t.is_alive()


def test_condition_over_reentrant_ordered_lock_is_rejected():
    g = LockGraph()
    metrics = OrderedLock("obs.metrics", graph=g)
    cond = threading.Condition(metrics)
    with cond:
        with pytest.raises(NotImplementedError, match="reentrant"):
            cond.wait(timeout=0.01)
