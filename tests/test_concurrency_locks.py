"""Runtime lock-sanitizer tests: OrderedLock, the rank check, the factories.

Each sanitized-mode test builds :class:`OrderedLock` directly — the class
always checks, regardless of ``REPRO_SANITIZE`` — so these tests are
deterministic in both plain and ``make sanitize`` runs.  Factory mode
switching is pinned via ``monkeypatch.setenv``; the deadlock fixture runs
its two threads *sequentially* (no timing races), and the crossed
ordering raises at its first acquisition, which is the whole lock-order
check: ranks are distinct and must strictly increase inward.
"""

from __future__ import annotations

import re
import threading
from pathlib import Path

import pytest

from repro.concurrency import (
    LOCK_RANKS,
    LockOrderError,
    ordered_lock,
    ordered_rlock,
    rank_of,
    sanitizer_enabled,
)
from repro.concurrency.locks import SANITIZE_ENV, OrderedLock, lockset
from repro.concurrency.order import LOCK_ORDER, UnknownLockError


# ----------------------------------------------------------- the rank table


def test_rank_table_is_a_strict_hierarchy_per_name():
    ranks = [entry.rank for entry in LOCK_RANKS.values()]
    assert len(set(LOCK_RANKS)) == len(ranks)
    assert all(isinstance(r, int) for r in ranks)
    # Distinct ranks make the order total over names: the strict check
    # then refuses every equal-rank nesting, so no cycle can form.
    assert len(set(ranks)) == len(ranks)
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


def _pair():
    """An (outer, inner) pair from the real table, rank 50 < rank 90."""
    return OrderedLock("runtime.engine.plan"), OrderedLock("obs.metrics")


def test_correct_order_nests():
    plan, metrics = _pair()
    with plan:
        assert lockset() == ("runtime.engine.plan",)
        with metrics:
            assert lockset() == ("runtime.engine.plan", "obs.metrics")
    assert lockset() == ()


def test_rank_inversion_raises_before_blocking():
    plan, metrics = _pair()
    with metrics:
        with pytest.raises(LockOrderError) as exc_info:
            with plan:
                pass
    err = exc_info.value
    assert err.acquiring == "runtime.engine.plan"
    assert err.held == ("obs.metrics",)
    assert "ranks must strictly increase" in str(err)
    # The attempt never reached the inner lock: it is still free.
    assert not plan.locked()
    assert lockset() == ()


def test_two_instances_of_one_name_do_not_nest():
    """Equal rank is refused like an inversion: two arenas, one name."""
    first = OrderedLock("core.workspace")
    second = OrderedLock("core.workspace")
    with first:
        with pytest.raises(LockOrderError) as exc_info:
            with second:
                pass
        assert exc_info.value.held == ("core.workspace",)
        # Refused before blocking: the second arena's lock is still free.
        assert not second.locked()
        assert lockset() == ("core.workspace",)
    assert lockset() == ()


def test_non_reentrant_self_reacquire_raises():
    lock = OrderedLock("obs.trace")
    with lock:
        with pytest.raises(LockOrderError, match="self-deadlock"):
            lock.acquire()
        # The non-blocking probe (Condition._is_owned style) is fine: no
        # raise, and the held inner lock just reports failure.
        assert lock.acquire(blocking=False) is False
    assert lockset() == ()


def test_reentrant_lock_reenters():
    metrics = OrderedLock("obs.metrics")
    with metrics:
        with metrics:
            assert lockset() == ("obs.metrics", "obs.metrics")
    assert lockset() == ()


def test_release_of_unheld_lock_raises():
    lock = OrderedLock("obs.trace")
    lock._inner.acquire()  # bypass the shim so only the lockset is out of sync
    with pytest.raises(RuntimeError, match="does not hold"):
        lock.release()


def test_locksets_are_per_thread():
    plan, metrics = _pair()
    seen = {}

    def worker():
        with metrics:
            seen["worker"] = lockset()

    with plan:
        t = threading.Thread(target=worker)
        t.start()
        t.join()
        assert seen["worker"] == ("obs.metrics",)
        assert lockset() == ("runtime.engine.plan",)


def test_two_thread_deadlock_fixture_is_caught():
    """The canonical AB/BA deadlock, made deterministic.

    Two threads take the plan and arena locks in opposite orders.  Run
    sequentially so neither can hang: the first thread's ascending order
    completes, and the second raises at its first crossed acquisition,
    before blocking.
    """
    a = OrderedLock("runtime.engine.plan")
    b = OrderedLock("core.workspace")
    outcome = {}

    def grab(first, second, key):
        try:
            with first:
                with second:
                    outcome[key] = "nested"
        except LockOrderError as exc:
            outcome[key] = exc

    for args in ((a, b, "ab"), (b, a, "ba")):
        thread = threading.Thread(target=grab, args=args)
        thread.start()
        thread.join()

    assert outcome["ab"] == "nested"
    err = outcome["ba"]
    assert isinstance(err, LockOrderError)
    assert err.acquiring == "runtime.engine.plan"
    assert err.held == ("core.workspace",)
    assert not a.locked() and not b.locked()


# --------------------------------------------------- Condition integration


def test_condition_over_ordered_lock_waits_and_notifies():
    lock = OrderedLock("serving.server")
    cond = threading.Condition(lock)
    state = {"ready": False, "observed": None}

    def waiter():
        with cond:
            while not state["ready"]:
                cond.wait(timeout=5.0)
            # Reacquired after wait: the lockset must know.
            state["observed"] = lockset()

    t = threading.Thread(target=waiter)
    t.start()
    with cond:
        state["ready"] = True
        cond.notify_all()
    t.join(5.0)
    assert not t.is_alive()
    assert state["observed"] == ("serving.server",)
    assert lockset() == ()


def test_condition_wait_releases_the_sanitized_lockset():
    lock = OrderedLock("serving.server")
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
    metrics = OrderedLock("obs.metrics")
    cond = threading.Condition(metrics)
    with cond:
        with pytest.raises(NotImplementedError, match="reentrant"):
            cond.wait(timeout=0.01)
