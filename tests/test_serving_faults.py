"""Fault injection: failing and stalling replicas must stay contained.

A ``FlakyEngine`` wraps a real replica engine through the gateway's
``engine_factory`` seam and misbehaves on schedule — raising from
``run_many`` or stalling until the test releases it.  The invariants
under test: faults resolve futures with *typed* ``Rejected`` replies
(never a leaked exception, never a hang), a repeatedly failing replica
is quarantined while the rest of the pool keeps serving bit-identical
results, and the fault counters/gauges tell the true story.
"""

from __future__ import annotations

import threading
import time

import pytest
from fake_clock import FakeClock
from test_runtime_parity import (
    _batched_input,
    _binary_net,
    assert_bit_identical,
    reference_outputs,
)

from repro.core.types import Padding
from repro.runtime.engine import Engine
from repro.serving import (
    FAILED_REPLICA,
    SHED_NO_HEALTHY_REPLICA,
    Gateway,
    GatewayConfig,
    Rejected,
)

pytestmark = pytest.mark.serving

RESULT_TIMEOUT_S = 20.0


class FlakyEngine:
    """A replica engine that fails or stalls on schedule.

    - ``fail_times=N``: the first N ``run_many`` calls raise.
    - ``fail_always=True``: every call raises.
    - ``stall_release``: every call blocks until the event is set (with a
      real-time backstop so a buggy test cannot hang the worker forever).
    - ``started``: set when a call enters ``run_many`` (test sequencing).

    Everything else (plan, normalize, stats, close) delegates to the real
    engine, so the gateway cannot tell it apart from a healthy replica
    until it misbehaves.
    """

    def __init__(
        self,
        engine: Engine,
        *,
        fail_times: int = 0,
        fail_always: bool = False,
        stall_release: threading.Event | None = None,
        started: threading.Event | None = None,
    ) -> None:
        self._engine = engine
        self.fail_remaining = fail_times
        self.fail_always = fail_always
        self.stall_release = stall_release
        self.started = started
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self._engine, name)

    def run_many(self, requests):
        self.calls += 1
        if self.started is not None:
            self.started.set()
        if self.stall_release is not None:
            if not self.stall_release.wait(30.0):
                raise TimeoutError("FlakyEngine never released")
        if self.fail_always or self.fail_remaining > 0:
            self.fail_remaining -= 1
            raise RuntimeError("injected fault")
        return self._engine.run_many(requests)


def _flaky_pool(graph, config, clock, flaky_for_idx):
    """A gateway whose replica ``i`` is wrapped iff ``flaky_for_idx(i)``.

    The factory is called once per replica in index order, which is how
    the wrapper knows which replica it is becoming.
    """
    built: list[FlakyEngine | Engine] = []

    def factory(*args, **kwargs):
        engine = Engine(*args, **kwargs)
        wrapper = flaky_for_idx(len(built))
        engine = wrapper(engine) if wrapper is not None else engine
        built.append(engine)
        return engine

    gw = Gateway({"m": graph}, config, clock=clock, engine_factory=factory)
    return gw, built


def _wait_all_idle(server, timeout_s: float = 10.0) -> None:
    """Park until every healthy replica is idle (deterministic routing)."""
    deadline = time.monotonic() + timeout_s
    while True:
        with server._lock:
            healthy = sum(1 for r in server._replicas if not r.quarantined)
            if len(server._idle) == healthy:
                return
        if time.monotonic() >= deadline:
            raise TimeoutError("replicas never went idle")
        time.sleep(0.002)


@pytest.fixture
def graph(rng):
    return _binary_net(rng, Padding.SAME_ONE)


def test_failing_replica_quarantined_pool_survives(graph, rng):
    """Replica 0 always raises: it is quarantined after exactly
    ``max_replica_failures`` batches and replica 1 serves everything else,
    bit-identically."""
    clock = FakeClock()
    config = GatewayConfig(
        max_batch=1, deadline_ms=50.0, replicas=2, max_replica_failures=2,
    )
    gw, built = _flaky_pool(
        graph, config, clock,
        lambda idx: (lambda e: FlakyEngine(e, fail_always=True))
        if idx == 0 else None,
    )
    x = _batched_input(graph, 1, rng)
    expected = reference_outputs(graph, (x,), 1)
    replies = []
    try:
        server = gw.server("m")
        for _ in range(6):
            # Waiting for the pool to go idle makes round-robin routing
            # deterministic: r0, r1, r0 (quarantine), then r1 forever.
            _wait_all_idle(server)
            replies.append(gw.submit("m", x).result(RESULT_TIMEOUT_S))
        stats = gw.stats()
        snap = gw.metrics_snapshot()
    finally:
        gw.close()

    rejected = [r for r in replies if isinstance(r, Rejected)]
    served = [r for r in replies if not isinstance(r, Rejected)]
    assert len(rejected) == 2  # r0's two strikes, then it is out
    for r in rejected:
        assert r.reason == FAILED_REPLICA and "RuntimeError" in r.detail
    assert len(served) == 4
    for r in served:
        assert_bit_identical(r, expected)
    assert built[0].calls == 2  # quarantined replicas get no more traffic
    assert stats.replicas_healthy == {"m": 1}
    assert stats.failed == 2 and stats.completed == 4
    assert stats.submitted == 6 and stats.shed == 0
    assert stats.in_flight == 0
    assert snap["gateway.m.replica_failures"] == 2


def test_round_robin_placement_skips_quarantined(graph, rng):
    """Placement is a rotating cursor over idle healthy replicas: with the
    pool idle before every request, three replicas serve 0, 1, 2, 0, ...;
    once replica 1 is quarantined the rotation continues 2, 0, 2, 0 — it
    steps over the dead replica without stalling or restarting at 0."""
    clock = FakeClock()
    config = GatewayConfig(
        max_batch=1, deadline_ms=50.0, replicas=3, max_replica_failures=1,
    )
    gw, built = _flaky_pool(
        graph, config, clock,
        lambda idx: lambda e: FlakyEngine(e, fail_always=(idx == 1)),
    )
    x = _batched_input(graph, 1, rng)
    placed = []
    try:
        server = gw.server("m")
        for _ in range(7):
            _wait_all_idle(server)
            before = [e.calls for e in built]
            gw.submit("m", x).result(RESULT_TIMEOUT_S)
            placed.extend(
                idx for idx, e in enumerate(built) if e.calls != before[idx]
            )
        stats = gw.stats()
    finally:
        gw.close()
    assert placed == [0, 1, 2, 0, 2, 0, 2]
    assert stats.replicas_healthy == {"m": 2}
    assert (stats.completed, stats.failed) == (6, 1)


def test_stalled_replica_does_not_block_the_pool(graph, rng):
    """A stalled replica holds only its own batch; the other replica keeps
    serving, and the stalled request completes once released."""
    clock = FakeClock()
    started, release = threading.Event(), threading.Event()
    config = GatewayConfig(max_batch=1, deadline_ms=50.0, replicas=2)
    gw, _ = _flaky_pool(
        graph, config, clock,
        lambda idx: (
            lambda e: FlakyEngine(e, stall_release=release, started=started)
        ) if idx == 0 else None,
    )
    x = _batched_input(graph, 1, rng)
    expected = reference_outputs(graph, (x,), 1)
    try:
        f_stuck = gw.submit("m", x)  # round-robin: lands on replica 0
        assert started.wait(RESULT_TIMEOUT_S)
        f_live = gw.submit("m", x)  # replica 0 busy -> replica 1
        assert_bit_identical(f_live.result(RESULT_TIMEOUT_S), expected)
        assert not f_stuck.done()  # still parked inside replica 0
        release.set()
        assert_bit_identical(f_stuck.result(RESULT_TIMEOUT_S), expected)
        stats = gw.stats()
    finally:
        release.set()
        gw.close()
    assert stats.completed == 2 and stats.failed == 0
    assert stats.replicas_healthy == {"m": 2}


def test_dead_pool_sheds_typed_at_admission(graph, rng):
    """With the only replica quarantined, new submits shed immediately
    with ``no_healthy_replica`` — no queueing, no hang."""
    clock = FakeClock()
    config = GatewayConfig(
        max_batch=1, deadline_ms=50.0, replicas=1, max_replica_failures=1
    )
    gw, _ = _flaky_pool(
        graph, config, clock,
        lambda idx: lambda e: FlakyEngine(e, fail_always=True),
    )
    x = _batched_input(graph, 1, rng)
    try:
        first = gw.submit("m", x).result(RESULT_TIMEOUT_S)
        assert isinstance(first, Rejected) and first.reason == FAILED_REPLICA
        clock.wait_for(lambda: gw.server("m").healthy_replicas() == 0)
        second = gw.submit("m", x).result(0.5)
        assert second == Rejected("m", SHED_NO_HEALTHY_REPLICA)
        stats = gw.stats()
    finally:
        gw.close()
    assert stats.replicas_healthy == {"m": 0}
    assert stats.failed == 1 and stats.shed == 1 and stats.completed == 0
    assert stats.in_flight == 0


def test_pool_death_resolves_queued_request(graph, rng):
    """A request still queued when the last replica dies gets a typed
    reply too — nothing waits forever on a pool with nobody left to pull."""
    clock = FakeClock()
    started, release = threading.Event(), threading.Event()
    config = GatewayConfig(
        max_batch=1, deadline_ms=50.0, replicas=1, max_replica_failures=1,
        max_queue=4,
    )
    gw, _ = _flaky_pool(
        graph, config, clock,
        lambda idx: lambda e: FlakyEngine(
            e, fail_times=1, stall_release=release, started=started
        ),
    )
    x = _batched_input(graph, 1, rng)
    try:
        f_a = gw.submit("m", x)
        assert started.wait(RESULT_TIMEOUT_S)  # A holds the only replica
        f_b = gw.submit("m", x)  # queued: the only replica is occupied
        assert gw.server("m").queue_depth() == 1
        release.set()  # A's run now raises -> replica quarantined
        reply_a = f_a.result(RESULT_TIMEOUT_S)
        reply_b = f_b.result(RESULT_TIMEOUT_S)
        stats = gw.stats()
    finally:
        release.set()
        gw.close()
    assert isinstance(reply_a, Rejected) and reply_a.reason == FAILED_REPLICA
    assert isinstance(reply_b, Rejected)
    assert reply_b.reason == SHED_NO_HEALTHY_REPLICA
    assert stats.failed == 2 and stats.completed == 0 and stats.in_flight == 0


def test_transient_failures_below_threshold_recover(graph, rng):
    """Failures below the quarantine threshold keep the replica in the
    pool: once the fault clears, the same replica serves again."""
    clock = FakeClock()
    config = GatewayConfig(
        max_batch=1, deadline_ms=50.0, replicas=1, max_replica_failures=3
    )
    gw, built = _flaky_pool(
        graph, config, clock,
        lambda idx: lambda e: FlakyEngine(e, fail_times=2),
    )
    x = _batched_input(graph, 1, rng)
    expected = reference_outputs(graph, (x,), 1)
    try:
        replies = [gw.submit("m", x).result(RESULT_TIMEOUT_S) for _ in range(4)]
        stats = gw.stats()
    finally:
        gw.close()
    assert [isinstance(r, Rejected) for r in replies] == [True, True, False, False]
    for r in replies[2:]:
        assert_bit_identical(r, expected)
    assert stats.replicas_healthy == {"m": 1}  # two strikes < threshold 3
    assert stats.failed == 2 and stats.completed == 2
