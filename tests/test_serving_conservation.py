"""Conservation under concurrent load: nothing lost, nothing invented.

Seeded submitter threads hammer a two-model gateway with mixed batch
factors and a deliberately tiny queue (so shedding happens).  The
properties checked afterwards:

- **request conservation** — ``accepted + shed == submitted`` and every
  future resolved exactly once (a reply per accepted request, a typed
  ``Rejected`` per shed one);
- **bit identity** — every served reply equals the reference-executor
  output for its (model, factor) input, i.e. gateway batching never
  mixes, reorders or perturbs values inside a batch;
- **metric consistency** — the stats snapshot agrees with the replies
  the clients actually saw, batch-size mass equals completed factors,
  and the latency percentiles are monotone;
- **telemetry conservation** — the attached tracer's lifecycle marks
  tell the same story: zero ring-buffer drops (the ``obs.trace.dropped``
  gauge), a valid trace, and exactly one terminal mark per request.

The gateway runs on a FakeClock with ``deadline_ms=0`` (flush as soon as
a worker sees work), so no timed wait is ever armed and the whole
stress run is event-driven — zero wall-clock sleeps, any thread
interleaving, same invariants.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from fake_clock import FakeClock
from test_runtime_parity import (
    _batched_input,
    _binary_net,
    _bmaxpool_net,
    assert_bit_identical,
    reference_outputs,
)

from repro.core.types import Padding
from repro.obs import Tracer, chrome_trace, validate_chrome_trace
from repro.obs.export import TERMINAL_MARKS, request_kinds
from repro.serving import SHED_QUEUE_FULL, Gateway, GatewayConfig, Rejected

pytestmark = pytest.mark.serving

RESULT_TIMEOUT_S = 30.0
THREADS = 4
PER_THREAD = 25
FACTORS = (1, 2)


def _gateway_under_stress(rng, seed, replicas=2):
    graphs = {"bin": _binary_net(rng, Padding.SAME_ONE), "pool": _bmaxpool_net(rng)}
    # One fixed input per (model, factor): replies are comparable against
    # precomputed references no matter which thread submitted them.
    inputs = {
        (name, factor): _batched_input(graph, factor, rng)
        for name, graph in graphs.items()
        for factor in FACTORS
    }
    references = {
        key: reference_outputs(graphs[key[0]], (value,), key[1])
        for key, value in inputs.items()
    }
    config = GatewayConfig(
        max_batch=4,
        deadline_ms=0.0,  # flush immediately: no timed waits, no advance()
        max_queue=5,  # tiny on purpose: overload must shed, not queue
        replicas=replicas,  # this many pullers race each model's one queue
    )
    gateway = Gateway(graphs, config, clock=FakeClock(), trace=Tracer())
    return gateway, inputs, references


@pytest.mark.parametrize(
    "seed, replicas",
    [
        pytest.param(0, 2, id="0"),
        pytest.param(0, 3, id="0-replicas3"),
        pytest.param(1, 2, id="1", marks=pytest.mark.slow),
        pytest.param(2, 2, id="2", marks=pytest.mark.slow),
    ],
)
def test_conservation_under_concurrent_load(rng, seed, replicas):
    gateway, inputs, references = _gateway_under_stress(rng, seed, replicas)
    keys = sorted(inputs)
    barrier = threading.Barrier(THREADS)
    submissions: list[list[tuple[tuple[str, int], object]]] = [
        [] for _ in range(THREADS)
    ]
    errors: list[BaseException] = []

    def submitter(tid: int) -> None:
        thread_rng = np.random.default_rng(1000 * (seed + 1) + tid)
        try:
            barrier.wait(RESULT_TIMEOUT_S)
            for _ in range(PER_THREAD):
                key = keys[int(thread_rng.integers(len(keys)))]
                future = gateway.submit(key[0], inputs[key])
                submissions[tid].append((key, future))
        except BaseException as exc:  # pragma: no cover - diagnostic path
            errors.append(exc)

    threads = [
        threading.Thread(target=submitter, args=(tid,), daemon=True)
        for tid in range(THREADS)
    ]
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # preempt inside the pull loop, not around it
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(RESULT_TIMEOUT_S)
        assert not errors
        assert all(not t.is_alive() for t in threads)

        flat = [pair for per_thread in submissions for pair in per_thread]
        assert len(flat) == THREADS * PER_THREAD

        served = shed = 0
        for key, future in flat:
            reply = future.result(RESULT_TIMEOUT_S)  # exactly one reply each
            if isinstance(reply, Rejected):
                # The only legal shed reason here: the pool is healthy and
                # the gateway is open, so overload is the only cause.
                assert reply.reason == SHED_QUEUE_FULL
                shed += 1
            else:
                assert_bit_identical(reply, references[key])
                served += 1
        stats = gateway.stats()
        snapshot = gateway.metrics_snapshot()
        trace = chrome_trace(gateway.tracer)
    finally:
        sys.setswitchinterval(switch_interval)
        gateway.close()

    total = THREADS * PER_THREAD
    # Conservation: the gateway's books match what the clients saw.
    assert served + shed == total
    assert stats.submitted == total
    assert stats.accepted == served and stats.shed == shed
    assert stats.completed == served and stats.failed == 0
    assert stats.in_flight == 0
    assert stats.shed_by_model["bin"] + stats.shed_by_model["pool"] == shed

    # Batch mass: executed batch sizes sum to the served batch factors.
    served_factors = sum(
        key[1]
        for key, future in flat
        if not isinstance(future.result(0), Rejected)
    )
    batch_mass = sum(size * n for size, n in stats.batch_histogram.items())
    assert batch_mass == served_factors
    assert sum(stats.batch_histogram.values()) == stats.batches
    assert max(stats.batch_histogram) <= 4  # never exceeds max_batch
    assert stats.p50_ms <= stats.p95_ms <= stats.p99_ms
    assert stats.verified is True

    # Post-close the queues are empty and both pools are intact.
    assert stats.queue_depth == {"bin": 0, "pool": 0}
    assert stats.replicas_healthy == {"bin": replicas, "pool": replicas}

    # Telemetry conservation: nothing was dropped on the floor, the
    # trace is valid, and its lifecycle marks tell the same story as the
    # counters (one accept per served request, one terminal each).
    assert snapshot["obs.trace.dropped"] == 0
    assert trace["otherData"]["dropped"] == 0
    assert validate_chrome_trace(trace) == []
    per_request = request_kinds(trace["traceEvents"])
    assert len(per_request) == total
    for kinds in per_request.values():
        assert sum(k in TERMINAL_MARKS for k in kinds) == 1
    names = [e["name"] for e in trace["traceEvents"]]
    assert names.count("request.accept") == served
    assert names.count("request.complete") == served
    assert names.count("request.shed") == shed


def test_derived_totals_equal_their_parts_at_every_snapshot(rng):
    """The ``gateway.*`` totals are sums over one registry snapshot, so
    *while traffic is running* every ``metrics_snapshot()`` satisfies:
    each total is the sum of its per-model parts (unknown-model sheds are
    the one outcome no model owns), ``submitted == accepted + shed``, and
    ``completed + failed <= accepted``."""
    gateway, inputs, _ = _gateway_under_stress(rng, seed=0)
    keys = sorted(inputs)
    models = gateway.models
    violations: list[str] = []
    snapshots = 0
    stop = threading.Event()

    def check(snap) -> None:
        def parts(key):
            return [snap[f"gateway.{name}.{key}"] for name in models]

        unknown = snap["gateway.shed_unknown_model"]
        for key in ("accepted", "completed", "failed", "batches"):
            if snap[f"gateway.{key}"] != sum(parts(key)):
                violations.append(f"{key}: total != sum of parts")
        if snap["gateway.shed"] != sum(parts("shed")) + unknown:
            violations.append("shed: total != parts + unknown-model sheds")
        for key in ("batch_size", "latency_ms"):
            total, per_model = snap[f"gateway.{key}"], parts(key)
            merged: dict = {}
            for part in per_model:
                for value, n in part["counts"].items():
                    merged[value] = merged.get(value, 0) + n
            if total["counts"] != merged or total["count"] != sum(
                part["count"] for part in per_model
            ):
                violations.append(f"{key}: histogram != merged parts")
        if snap["gateway.batch_size"]["count"] != snap["gateway.batches"]:
            violations.append("batch_size mass != batches")
        if snap["gateway.submitted"] != snap["gateway.accepted"] + snap["gateway.shed"]:
            violations.append("submitted != accepted + shed")
        if snap["gateway.completed"] + snap["gateway.failed"] > snap["gateway.accepted"]:
            violations.append("completed + failed > accepted")

    def snapshotter() -> None:
        nonlocal snapshots
        while not stop.is_set():
            check(gateway.metrics_snapshot())
            snapshots += 1

    def submitter(tid: int) -> list:
        thread_rng = np.random.default_rng(tid)
        futures = []
        for i in range(PER_THREAD):
            if i % 5 == 4:
                futures.append(gateway.submit("nope", inputs[keys[0]]))
                continue
            key = keys[int(thread_rng.integers(len(keys)))]
            futures.append(gateway.submit(key[0], inputs[key]))
        return futures

    results: list[list] = [[] for _ in range(THREADS)]
    threads = [
        threading.Thread(
            target=lambda tid=tid: results[tid].extend(submitter(tid)), daemon=True
        )
        for tid in range(THREADS)
    ]
    watcher = threading.Thread(target=snapshotter, daemon=True)
    try:
        watcher.start()
        for t in threads:
            t.start()
        for t in threads:
            t.join(RESULT_TIMEOUT_S)
        replies = [f.result(RESULT_TIMEOUT_S) for fs in results for f in fs]
        stop.set()
        watcher.join(RESULT_TIMEOUT_S)
        final = gateway.metrics_snapshot()
    finally:
        stop.set()
        gateway.close()

    assert not violations, violations[:3]
    assert snapshots > 0
    check(final)
    assert not violations, violations[:3]
    unknown = THREADS * (PER_THREAD // 5)
    assert final["gateway.shed_unknown_model"] == unknown
    assert final["gateway.submitted"] == len(replies) == THREADS * PER_THREAD
    assert final["gateway.shed"] == sum(isinstance(r, Rejected) for r in replies)
    assert final["gateway.completed"] == len(replies) - final["gateway.shed"]


def test_second_seed_changes_mix_not_invariants(rng):
    """A different seed produces a different traffic mix (sanity that the
    fuzz is actually seeded), while the same conservation law holds —
    covered by the parametrized cells above; here we just pin the seeded
    submitter streams themselves."""
    a = np.random.default_rng(1000)
    b = np.random.default_rng(1000)
    c = np.random.default_rng(2000)
    draws_a = [int(a.integers(4)) for _ in range(50)]
    draws_b = [int(b.integers(4)) for _ in range(50)]
    draws_c = [int(c.integers(4)) for _ in range(50)]
    assert draws_a == draws_b
    assert draws_a != draws_c
