"""Gateway behavior under a deterministic clock: batching, shedding, close.

Every deadline in here is virtual — the tests drive the workers through
``tests/fake_clock.FakeClock`` and never sleep on the wall clock.  The
bit-identity oracle is the same one the runtime parity suite uses:
``reference_outputs`` (concatenated per-group Executor runs).
"""

from __future__ import annotations

import importlib
import threading
from collections import deque

import numpy as np
import pytest
from fake_clock import FakeClock
from test_runtime_parity import (
    _batched_input,
    _binary_net,
    assert_bit_identical,
    reference_outputs,
)

from repro.core.types import Padding
from repro.runtime.engine import Engine, greedy_chunks
from repro.serving import (
    SHED_CLOSED,
    SHED_QUEUE_FULL,
    SHED_UNKNOWN_MODEL,
    Clock,
    Gateway,
    GatewayConfig,
    MonotonicClock,
    Rejected,
)

pytestmark = pytest.mark.serving

RESULT_TIMEOUT_S = 20.0


@pytest.fixture
def graph(rng):
    return _binary_net(rng, Padding.SAME_ONE)


def make_gateway(graph, clock, **overrides):
    defaults = dict(max_batch=4, deadline_ms=100.0, max_queue=16, replicas=1)
    defaults.update(overrides)
    return Gateway({"m": graph}, GatewayConfig(**defaults), clock=clock)


class StallEngine:
    """Engine wrapper whose run_many blocks until the test releases it."""

    def __init__(self, engine: Engine, started: threading.Event,
                 release: threading.Event) -> None:
        self._engine = engine
        self._started = started
        self._release = release

    def __getattr__(self, name):
        return getattr(self._engine, name)

    def run_many(self, requests):
        self._started.set()
        if not self._release.wait(30.0):
            raise TimeoutError("StallEngine never released")
        return self._engine.run_many(requests)


# ------------------------------------------------------------ clock seam


def test_clocks_satisfy_protocol():
    assert isinstance(MonotonicClock(), Clock)
    assert isinstance(FakeClock(), Clock)


def test_fake_clock_timed_wait_expires_on_advance():
    clock = FakeClock()
    cond = threading.Condition()
    woke = threading.Event()

    def waiter():
        with cond:
            clock.wait(cond, 2.0)
        woke.set()

    t = threading.Thread(target=waiter, daemon=True)
    t.start()
    clock.wait_for_timed_waiters(1)
    assert not woke.is_set()
    clock.advance(2.0)
    assert woke.wait(RESULT_TIMEOUT_S)
    t.join(RESULT_TIMEOUT_S)
    assert clock.timed_waiters == 0


# ------------------------------------------------- deadline vs size flush


def test_deadline_flushes_partial_batch(graph, rng):
    clock = FakeClock()
    x = _batched_input(graph, 1, rng)
    expected = reference_outputs(graph, (x,), 1)
    with make_gateway(graph, clock) as gw:
        future = gw.submit("m", x)
        # The worker armed the 100 ms deadline and is parked on it; the
        # batch is not full, so nothing may flush until time moves.
        clock.wait_for_timed_waiters(1)
        assert not future.done()
        clock.advance(0.2)
        assert_bit_identical(future.result(RESULT_TIMEOUT_S), expected)
        stats = gw.stats()
    assert stats.batch_histogram == {1: 1}
    assert (stats.submitted, stats.accepted, stats.completed) == (1, 1, 1)
    # Latency is measured on the same virtual clock: submit at t=0,
    # flushed at t=0.2 -> exactly 200 ms, which pins the percentile math.
    assert stats.p50_ms == stats.p99_ms == pytest.approx(200.0)


def test_full_batch_flushes_without_time_passing(graph, rng):
    clock = FakeClock()
    x = _batched_input(graph, 1, rng)
    expected = reference_outputs(graph, (x,), 1)
    with make_gateway(graph, clock, max_batch=2, deadline_ms=1000.0) as gw:
        futures = [gw.submit("m", x) for _ in range(2)]
        for future in futures:  # flushes on size; no advance() ever happens
            assert_bit_identical(future.result(RESULT_TIMEOUT_S), expected)
        stats = gw.stats()
    assert clock.now() == 0.0
    assert stats.batch_histogram == {2: 1}


def test_deadline_counts_from_oldest_request(graph, rng):
    clock = FakeClock()
    x = _batched_input(graph, 1, rng)
    with make_gateway(graph, clock) as gw:
        f1 = gw.submit("m", x)
        clock.wait_for_timed_waiters(1)
        generation = clock.registrations
        clock.advance(0.06)  # 60 ms into the 100 ms deadline: no expiry
        f2 = gw.submit("m", x)  # must NOT reset the deadline
        # The enqueue woke the worker; it re-armed with the REMAINING
        # 40 ms of f1's deadline (a fresh registration proves it).
        clock.wait_for_registrations(generation + 1)
        assert not f1.done() and not f2.done()
        clock.advance(0.05)  # 110 ms after f1: expired for the pair
        f1.result(RESULT_TIMEOUT_S)
        f2.result(RESULT_TIMEOUT_S)
        stats = gw.stats()
    # Both requests left in ONE batch at the oldest request's deadline.
    assert stats.batch_histogram == {2: 1}


def test_deadline_is_anchored_on_submit_time_not_on_notice(graph, rng):
    """A request that queued while the only replica was occupied has
    already spent its deadline: the replica flushes it (and everything
    behind it) the moment it comes back, with no further ``advance()``.
    Anchoring the deadline on when the queue was *noticed* instead would
    make C wait a fresh 100 ms here and this test time out."""
    clock = FakeClock()
    started, release = threading.Event(), threading.Event()
    gw = Gateway(
        {"m": graph},
        GatewayConfig(max_batch=4, deadline_ms=100.0, max_queue=16, replicas=1),
        clock=clock,
        engine_factory=lambda *a, **k: StallEngine(Engine(*a, **k), started, release),
    )
    x = _batched_input(graph, 1, rng)
    expected = reference_outputs(graph, (x,), 1)
    try:
        f_a = gw.submit("m", x)
        clock.wait_for_timed_waiters(1)
        clock.advance(0.1)
        assert started.wait(RESULT_TIMEOUT_S)  # A is inside the replica
        f_b = gw.submit("m", x)
        clock.advance(0.1)
        f_c = gw.submit("m", x)
        clock.advance(1.0)
        release.set()
        for f in (f_a, f_b, f_c):
            assert_bit_identical(f.result(RESULT_TIMEOUT_S), expected)
        stats = gw.stats()
    finally:
        release.set()
        gw.close()
    assert stats.batch_histogram == {1: 1, 2: 1}
    assert stats.queue_depth == {"m": 0}


def test_mixed_factors_coalesce_to_full_batch(graph, rng):
    clock = FakeClock()
    x2 = _batched_input(graph, 2, rng)
    x1 = _batched_input(graph, 1, rng)
    with make_gateway(graph, clock, max_batch=4) as gw:
        f_a = gw.submit("m", x2)
        f_b = gw.submit("m", x1)
        f_c = gw.submit("m", x1)
        assert_bit_identical(
            f_a.result(RESULT_TIMEOUT_S), reference_outputs(graph, (x2,), 2)
        )
        for f in (f_b, f_c):
            assert_bit_identical(
                f.result(RESULT_TIMEOUT_S), reference_outputs(graph, (x1,), 1)
            )
        stats = gw.stats()
    assert stats.batch_histogram == {4: 1}
    assert stats.mean_batch_size == pytest.approx(4.0)


def test_oversize_request_runs_alone(graph, rng):
    clock = FakeClock()
    x3 = _batched_input(graph, 3, rng)
    with make_gateway(graph, clock, max_batch=2) as gw:
        future = gw.submit("m", x3)
        assert_bit_identical(
            future.result(RESULT_TIMEOUT_S), reference_outputs(graph, (x3,), 3)
        )
        stats = gw.stats()
    assert stats.batch_histogram == {3: 1}


# ------------------------------------------ hold only when company is coming


def test_sparse_stream_flushes_without_holding(graph, rng):
    """Once ``max_batch`` arrivals came wider apart than the deadline, the
    measured rate says nobody will share the batch: the next request is
    flushed at once — virtual time never moves while it is served."""
    clock = FakeClock()
    x = _batched_input(graph, 1, rng)
    expected = reference_outputs(graph, (x,), 1)
    with make_gateway(graph, clock) as gw:  # max_batch=4, deadline 100 ms
        for _ in range(3):  # window not full yet: each one holds, as before
            future = gw.submit("m", x)
            clock.wait_for_timed_waiters(1)
            clock.advance(0.2)
            future.result(RESULT_TIMEOUT_S)
        # The 4th fills the window: 4 arrivals over 600 ms > 4 x 100 ms.
        gw.submit("m", x).result(RESULT_TIMEOUT_S)
        clock.advance(0.2)
        before = clock.now()
        future = gw.submit("m", x)
        assert_bit_identical(future.result(RESULT_TIMEOUT_S), expected)
        assert clock.now() == before  # zero advance() while it was served
        stats = gw.stats()
        snap = gw.metrics_snapshot()
    assert stats.batch_histogram == {1: 5}
    # Three cold-start holds of 200 ms, two flushes with no wait at all.
    assert snap["gateway.queue_wait_ms"]["counts"] == {200.0: 3, 0.0: 2}


def test_burst_window_still_holds_for_company(graph, rng):
    """``max_batch`` arrivals at one instant are the densest evidence there
    is: the worker parks on the deadline exactly as it always did, and
    flushes on the deadline or on size, whichever comes first."""
    clock = FakeClock()
    x = _batched_input(graph, 1, rng)
    with make_gateway(graph, clock) as gw:
        for f in [gw.submit("m", x) for _ in range(4)]:  # fills the window
            f.result(RESULT_TIMEOUT_S)
        straggler = gw.submit("m", x)
        clock.wait_for_timed_waiters(1)  # held: company is likely
        assert not straggler.done()
        clock.advance(0.1)  # ... until its deadline
        straggler.result(RESULT_TIMEOUT_S)
        for f in [gw.submit("m", x) for _ in range(4)]:  # size still wins
            f.result(RESULT_TIMEOUT_S)
        stats = gw.stats()
    assert clock.now() == pytest.approx(0.1)
    assert stats.batch_histogram == {4: 2, 1: 1}


def test_cold_start_holds_until_a_full_window_is_seen(graph, rng):
    """Fewer than ``max_batch`` arrivals are no evidence either way, so a
    fresh gateway holds each of them for the whole deadline however far
    apart they come."""
    clock = FakeClock()
    x = _batched_input(graph, 1, rng)
    with make_gateway(graph, clock) as gw:
        for _ in range(3):
            future = gw.submit("m", x)
            clock.wait_for_timed_waiters(1)
            assert not future.done()
            clock.advance(0.1)
            future.result(RESULT_TIMEOUT_S)
            clock.advance(10.0)
        stats = gw.stats()
    assert stats.batch_histogram == {1: 3}
    assert stats.p50_ms == stats.p99_ms == pytest.approx(100.0)


@pytest.mark.parametrize("seed", range(3))
def test_no_request_is_held_past_its_deadline(graph, seed):
    """Sparse stretches and bursts mixed: whatever the window says, no
    request waits in the queue longer than ``deadline_ms``.

    Virtual time is whole seconds with an 8 s deadline, so every stamp is
    exact; the test steps one second at a time and lets the worker settle
    (parked on a timed wait, or everything answered) before the next
    action, so a request is always taken at the tick its hold ended.
    """
    rng = np.random.default_rng(seed)
    x = _batched_input(graph, 1, rng)
    gaps = np.where(
        rng.random(40) < 0.6, rng.integers(0, 3, 40), rng.integers(9, 60, 40)
    )
    due = deque(int(t) for t in np.cumsum(gaps))
    clock = FakeClock()
    futures = []
    with make_gateway(graph, clock, deadline_ms=8000.0, max_queue=64) as gw:

        def settle(registrations, completed):
            # The action woke the parked worker: it either re-armed its
            # timed wait or took a batch.  Then wait for the stable state.
            clock.wait_for(
                lambda: clock.registrations > registrations
                or gw.stats().completed > completed
            )

            def stable():
                stats = gw.stats()
                queued = stats.queue_depth["m"]
                if stats.completed + queued != stats.accepted:
                    return False  # a batch is inside the replica
                return queued == 0 or clock.timed_waiters == 1

            clock.wait_for(stable)

        while due or gw.stats().in_flight:
            while due and due[0] <= clock.now():
                due.popleft()
                mark = clock.registrations, gw.stats().completed
                futures.append(gw.submit("m", x))
                settle(*mark)
            mark = clock.registrations, gw.stats().completed
            if clock.advance(1.0):
                settle(*mark)
        for f in futures:
            assert not isinstance(f.result(RESULT_TIMEOUT_S), Rejected)
        waits = gw.metrics_snapshot()["gateway.queue_wait_ms"]
    assert waits["count"] == 40
    assert waits["max"] <= 8000.0
    # The mix exercised both edges: full holds and no-wait flushes.
    assert waits["counts"].get(8000.0) and waits["counts"].get(0.0)


@pytest.mark.parametrize("seed", range(10))
def test_hold_rule_only_ever_shortens_the_deadline_hold(seed):
    """``_hold_until`` against the rule it replaced (hold until the head
    request's deadline, whatever the traffic): whenever the new rule
    holds, the old one held too."""
    from repro.serving.gateway import _hold_until

    rng = np.random.default_rng(seed)
    for _ in range(500):
        max_batch = int(rng.integers(1, 17))
        deadline_s = float(rng.choice([0.0, rng.uniform(0.0, 0.05)]))
        span = max_batch * deadline_s * float(rng.choice([0.1, 1.0, 10.0])) + 1e-3
        window = np.sort(rng.uniform(0.0, span, int(rng.integers(0, max_batch + 1))))
        t_head = float(rng.choice(window)) if len(window) else float(rng.uniform(0, span))
        now = t_head + float(rng.uniform(0.0, 2.0 * deadline_s + 1e-3))
        until = _hold_until(t_head, deque(window), max_batch, deadline_s)
        parent_until = t_head + deadline_s
        if now < until:  # new rule holds ...
            assert now < parent_until  # ... so the parent rule held
        assert until <= parent_until
        if len(window) < max_batch:  # cold start: exactly the parent rule
            assert until == parent_until
        elif now - window[0] > max_batch * deadline_s:  # mean gap too wide
            assert until <= now  # flush at once


# --------------------------------------------------- admission + shedding


def test_overload_sheds_with_bounded_queue(graph, rng):
    """Under overload the gateway sheds (typed), never grows the queue.

    max_batch=1 means every request flushes immediately with no deadline
    wait, so the FakeClock never needs advancing — the overload state is
    constructed, not raced: one request stalled inside the replica,
    ``max_queue`` queued behind it, and the next one is shed.
    """
    clock = FakeClock()
    started, release = threading.Event(), threading.Event()
    config = GatewayConfig(max_batch=1, deadline_ms=100.0, max_queue=3, replicas=1)
    gw = Gateway(
        {"m": graph},
        config,
        clock=clock,
        engine_factory=lambda *a, **k: StallEngine(Engine(*a, **k), started, release),
    )
    x = _batched_input(graph, 1, rng)
    expected = reference_outputs(graph, (x,), 1)
    try:
        f_a = gw.submit("m", x)
        assert started.wait(RESULT_TIMEOUT_S)  # A is inside the replica
        f_b = gw.submit("m", x)  # nobody idle to take it: it stays queued
        f_c = gw.submit("m", x)
        f_d = gw.submit("m", x)  # queue now holds max_queue=3
        assert gw.server("m").queue_depth() == 3
        f_e = gw.submit("m", x)  # bounced at admission
        reply = f_e.result(0.5)
        assert reply == Rejected("m", SHED_QUEUE_FULL)
        stats = gw.stats()
        assert stats.shed == 1 and stats.queue_depth["m"] == config.max_queue
        release.set()
        for f in (f_a, f_b, f_c, f_d):
            assert_bit_identical(f.result(RESULT_TIMEOUT_S), expected)
    finally:
        release.set()
        gw.close()
    stats = gw.stats()
    assert (stats.submitted, stats.accepted, stats.shed) == (5, 4, 1)
    assert (stats.completed, stats.failed, stats.in_flight) == (4, 0, 0)
    assert stats.batch_histogram == {1: 4}


def test_unknown_model_is_typed_shed(graph):
    clock = FakeClock()
    with make_gateway(graph, clock) as gw:
        reply = gw.submit("nope", np.zeros((1,), np.float32)).result(0.5)
        assert isinstance(reply, Rejected)
        assert reply.reason == SHED_UNKNOWN_MODEL and reply.model == "nope"
        stats = gw.stats()
    assert (stats.submitted, stats.shed, stats.accepted) == (1, 1, 0)


def test_submit_after_close_is_typed_shed(graph, rng):
    clock = FakeClock()
    gw = make_gateway(graph, clock)
    x = _batched_input(graph, 1, rng)
    gw.close()
    reply = gw.submit("m", x).result(0.5)
    assert isinstance(reply, Rejected) and reply.reason == SHED_CLOSED


def test_malformed_input_raises_synchronously(graph):
    clock = FakeClock()
    with make_gateway(graph, clock) as gw:
        with pytest.raises(ValueError):  # wrong arity
            gw.submit("m", np.zeros((1, 8, 8, 8), np.float32), np.zeros(3))
        with pytest.raises(ValueError):  # empty batch
            gw.submit("m", np.zeros((0, 8, 8, 8), np.float32))
        stats = gw.stats()
    assert stats.submitted == 0  # rejected before admission accounting


def test_close_drains_admitted_requests(graph, rng):
    """close() cuts the deadline short and answers everything admitted."""
    clock = FakeClock()
    x = _batched_input(graph, 1, rng)
    expected = reference_outputs(graph, (x,), 1)
    gw = make_gateway(graph, clock, max_batch=8, deadline_ms=1000.0)
    f1 = gw.submit("m", x)
    f2 = gw.submit("m", x)
    clock.wait_for_timed_waiters(1)
    gw.close()  # no advance(): the drain must not depend on time
    for f in (f1, f2):
        assert_bit_identical(f.result(RESULT_TIMEOUT_S), expected)
    stats = gw.stats()
    assert stats.completed == 2 and stats.in_flight == 0
    gw.close()  # idempotent


def _started_since(before):
    """Names of the live ``repro-*`` threads that are not in ``before``."""
    return sorted(
        t.name for t in set(threading.enumerate()) - before
        if t.name.startswith("repro-")
    )


def test_close_leaves_no_gateway_thread(graph, rng):
    """Thread inventory: a live gateway runs one worker per replica and
    nothing else, all named ``repro-*``; after ``close()`` none is left."""
    before = set(threading.enumerate())
    gw = make_gateway(graph, FakeClock(), max_batch=1, replicas=2)
    assert _started_since(before) == ["repro-gw-m-r0", "repro-gw-m-r1"]
    gw.submit("m", _batched_input(graph, 1, rng)).result(RESULT_TIMEOUT_S)
    assert len(_started_since(before)) == 2  # serving starts nothing new
    gw.close()
    assert _started_since(before) == []


def test_failed_construction_leaves_no_gateway_thread(graph):
    """A ``Gateway(...)`` that raises hands the caller nothing to close,
    so it stops what it started: an engine factory failing on a later
    model leaves no ``repro-gw-`` worker behind."""
    before = set(threading.enumerate())
    config = GatewayConfig(replicas=2)
    built = []

    def factory(model, **kwargs):
        if len(built) == config.replicas:  # model "a" is up; "b" fails
            raise RuntimeError("engine build failed")
        built.append(Engine(model, **kwargs))
        return built[-1]

    with pytest.raises(RuntimeError, match="engine build failed"):
        Gateway(
            {"a": graph, "b": graph}, config, clock=FakeClock(),
            engine_factory=factory,
        )
    assert len(built) == config.replicas
    assert _started_since(before) == []


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_deadlines_are_rejected_before_any_thread_starts(graph, bad):
    """``nan < 0`` and ``inf < 0`` are false: an unchecked ``inf`` deadline
    kills the worker inside ``Condition.wait`` (OverflowError) with the
    future unresolved, ``nan`` parks it forever.  Neither gets that far."""
    before = set(threading.enumerate())
    with pytest.raises(ValueError, match="deadline_ms"):
        Gateway({"m": graph}, GatewayConfig(deadline_ms=bad), clock=FakeClock())
    assert _started_since(before) == []


def test_concurrent_close_is_single_shot(graph, rng):
    """Racing close() calls: both return, the drain happens exactly once.

    Teardown is one phase (set closed, notify, join the workers), so
    there is nothing for two closers to interleave: both join the same
    threads and both observe a completely drained gateway.
    """
    clock = FakeClock()
    x = _batched_input(graph, 1, rng)
    expected = reference_outputs(graph, (x,), 1)
    gw = make_gateway(graph, clock, max_batch=8, deadline_ms=1000.0)
    futures = [gw.submit("m", x) for _ in range(3)]
    clock.wait_for_timed_waiters(1)  # worker parked on its deadline

    start = threading.Barrier(2)

    def closer():
        start.wait(RESULT_TIMEOUT_S)
        gw.close()

    closers = [threading.Thread(target=closer, daemon=True) for _ in range(2)]
    for t in closers:
        t.start()
    for t in closers:
        t.join(RESULT_TIMEOUT_S)
        assert not t.is_alive()  # neither racer may hang in the drain
    for f in futures:
        assert_bit_identical(f.result(RESULT_TIMEOUT_S), expected)
    stats = gw.stats()
    assert stats.completed == 3 and stats.in_flight == 0
    gw.close()  # still idempotent after the race


def test_close_concurrent_with_submit_resolves_every_future(graph, rng):
    """submit racing close: every future resolves — result or typed shed.

    Whatever the interleaving, a future handed to a caller must never
    dangle: requests admitted before the close drain to real outputs,
    requests after it come back as ``Rejected(SHED_CLOSED)``.
    """
    clock = FakeClock()
    x = _batched_input(graph, 1, rng)
    expected = reference_outputs(graph, (x,), 1)
    # deadline 0: the worker flushes without parking on the clock, so
    # the race needs no advance() choreography.
    gw = make_gateway(graph, clock, max_batch=4, deadline_ms=0.0, max_queue=64)
    futures = []
    done = threading.Event()

    def submitter():
        for _ in range(10):
            futures.append(gw.submit("m", x))
        done.set()

    t = threading.Thread(target=submitter, daemon=True)
    t.start()
    gw.close()
    assert done.wait(RESULT_TIMEOUT_S)
    t.join(RESULT_TIMEOUT_S)
    shed = 0
    for f in futures:
        reply = f.result(RESULT_TIMEOUT_S)
        if isinstance(reply, Rejected):
            assert reply.reason == SHED_CLOSED
            shed += 1
        else:
            assert_bit_identical(reply, expected)
    stats = gw.stats()
    assert stats.submitted == 10 and stats.shed == shed
    assert stats.completed == 10 - shed and stats.in_flight == 0


# ------------------------------------------------------- tracing + stats


def test_gateway_spans_nest_engine_spans(graph, rng):
    from repro.obs import chrome_trace, validate_chrome_trace
    from repro.obs.trace import Tracer

    tracer = Tracer()
    clock = FakeClock()
    x = _batched_input(graph, 1, rng)
    gw = Gateway(
        {"m": graph},
        GatewayConfig(max_batch=1, deadline_ms=100.0),
        clock=clock,
        trace=tracer,
    )
    try:
        gw.submit("m", x).result(RESULT_TIMEOUT_S)
    finally:
        gw.close()
    spans = tracer.spans()
    names = {s.name for s in spans}
    assert {"gateway.submit", "gateway.flush"} <= names
    flush_children = [s for s in spans if "gateway.flush" in s.path]
    assert any(s.name == "engine.run_many" for s in flush_children)
    assert validate_chrome_trace(chrome_trace(tracer)) == []


class BufsizeProbeEngine:
    """Engine wrapper recording the replica thread's ufunc buffer size
    after each run_many."""

    def __init__(self, engine: Engine, seen: list) -> None:
        self._engine = engine
        self._seen = seen

    def __getattr__(self, name):
        return getattr(self._engine, name)

    def run_many(self, requests):
        results = self._engine.run_many(requests)
        self._seen.append(np.getbufsize())
        return results


def test_replica_thread_keeps_its_ufunc_buffer_size(graph, rng, bgemm_bufsizes):
    # The BGEMM sets the buffer for its own call only (it is per thread):
    # the replica thread XORs under the narrow one, reduces under the
    # default one, and is left at NumPy's default afterwards.
    bgemm_mod = importlib.import_module("repro.core.bgemm")
    after = []
    gw = Gateway(
        {"m": graph},
        GatewayConfig(max_batch=1, deadline_ms=100.0),
        clock=FakeClock(),
        engine_factory=lambda *a, **k: BufsizeProbeEngine(Engine(*a, **k), after),
    )
    try:
        reply = gw.submit("m", _batched_input(graph, 1, rng)).result(RESULT_TIMEOUT_S)
    finally:
        gw.close()
    assert not isinstance(reply, Rejected)
    assert set(bgemm_bufsizes.at_xor) == {bgemm_mod._UFUNC_BUFSIZE}
    assert set(bgemm_bufsizes.at_reduce) == {bgemm_mod._REDUCE_BUFSIZE}
    assert after == [np.getbufsize()]


def test_stats_snapshot_is_consistent(graph, rng):
    clock = FakeClock()
    x = _batched_input(graph, 1, rng)
    with make_gateway(graph, clock, max_batch=1) as gw:
        for _ in range(3):
            gw.submit("m", x).result(RESULT_TIMEOUT_S)
        stats = gw.stats()
        snap = gw.metrics_snapshot()
    assert stats.submitted == stats.accepted + stats.shed
    assert stats.accepted == stats.completed + stats.failed
    assert stats.verified is True
    assert sum(stats.batch_histogram.values()) == stats.batches
    assert snap["gateway.m.accepted"] == stats.accepted
    assert snap["gateway.m.queue_depth"] == 0
    assert snap["gateway.m.replicas_healthy"] == 1


# ------------------------------------------------------ policy unit tests


def test_greedy_coalescer_chunks():
    chunks = greedy_chunks([("a", 2), ("b", 1), ("c", 2)], max_batch=4)
    assert [[x for x, _ in chunk] for chunk in chunks] == [["a", "b"], ["c"]]
    assert greedy_chunks([("x", 5)], max_batch=4) == [[("x", 5)]]


@pytest.mark.parametrize("seed", range(20))
def test_take_batch_pops_first_greedy_chunk(graph, seed):
    """The worker's incremental pop and ``greedy_chunks`` are one rule:
    for any queue and cap the popped prefix is the first greedy chunk, and
    the rest of the queue is left exactly as it was."""
    from repro.serving.gateway import _Pending

    rng = np.random.default_rng(seed)
    max_batch = int(rng.integers(1, 7))
    factors = [int(f) for f in rng.integers(1, 9, size=int(rng.integers(1, 40)))]
    with make_gateway(graph, FakeClock(), max_batch=max_batch) as gw:
        server = gw.server("m")
        pending = [_Pending((i,), f, None, 0.0) for i, f in enumerate(factors)]
        with server._lock:
            server._queue = deque(pending)
            server._queued_factor = sum(factors)
            batch = server._take_batch()
            rest = list(server._queue)
            left = server._queued_factor
            server._queue.clear()
            server._queued_factor = 0
    first = greedy_chunks([(p.request, p.factor) for p in pending], max_batch)[0]
    assert [(p.request, p.factor) for p in batch] == first
    assert rest == pending[len(first):]
    assert left == sum(factors[len(first):])


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(max_batch=0),
        dict(deadline_ms=-1.0),
        dict(max_queue=0),
        dict(replicas=0),
        dict(max_replica_failures=0),
    ],
)
def test_config_validation_rejects(kwargs):
    with pytest.raises(ValueError):
        GatewayConfig(**kwargs).validate()


# ------------------------------------------------------------------ cli


def test_serve_command_serves_a_burst(capsys):
    from repro import cli

    rc = cli.main(
        ["serve", "--requests", "8", "--replicas", "1", "--input-size", "32"]
    )
    stdout = capsys.readouterr().out
    assert rc == 0
    assert "served 8/8 requests across 1 model(s) (0 shed)" in stdout
    assert "verified: true" in stdout
    assert "gateway.accepted" in stdout
