"""Concurrency and coalescing stress tests for the runtime Engine.

Complements :mod:`test_runtime_parity`: the parity suite proves one call is
bit-exact; these tests prove the *engine machinery* keeps that property
under concurrent callers and arbitrary request/coalescing geometries
(ragged tails, oversize requests).
"""

from __future__ import annotations

import contextlib
import dataclasses
import sys
import threading

import numpy as np
import pytest

from repro.converter import convert
from repro.core.types import Padding
from repro.runtime import Engine, compile_plan
from repro.zoo import build_model
from test_runtime_parity import (
    _batched_input,
    _binary_net,
    assert_bit_identical,
    reference_outputs,
)

FACTORS = (1, 2, 3)


@contextlib.contextmanager
def _switching_threads_often():
    """Switch threads mid-kernel, often, for the body's duration."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def _run_all(threads) -> None:
    threads = list(threads)
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)


@pytest.fixture(scope="module")
def shared_case():
    """One graph plus a precomputed (input, reference) per batch factor."""
    rng = np.random.default_rng(7)
    graph = _binary_net(rng, Padding.SAME_ONE)
    cases = {}
    for factor in FACTORS:
        x = _batched_input(graph, factor, rng)
        cases[factor] = (x, reference_outputs(graph, (x,), factor))
    return graph, cases


class TestThreadSafety:
    def test_shared_engine_across_threads(self, shared_case):
        """8 threads hammer one Engine with mixed shapes via run/run_many;
        every result must stay bit-identical to its reference."""
        graph, cases = shared_case
        num_client_threads = 8
        iterations = 6
        errors: list[BaseException] = []
        barrier = threading.Barrier(num_client_threads)

        def client(tid: int) -> None:
            try:
                barrier.wait()  # maximize overlap
                for i in range(iterations):
                    factor = FACTORS[(tid + i) % len(FACTORS)]
                    x, expected = cases[factor]
                    if (tid + i) % 2 == 0:
                        assert_bit_identical(engine.run(x), expected)
                    else:
                        other = FACTORS[(tid + i + 1) % len(FACTORS)]
                        results = engine.run_many([x, cases[other][0]])
                        assert_bit_identical(results[0], expected)
                        assert_bit_identical(results[1], cases[other][1])
            except BaseException as exc:  # surface in the main thread
                errors.append(exc)

        with Engine(graph, max_batch_size=4) as engine:
            threads = [
                threading.Thread(target=client, args=(tid,))
                for tid in range(num_client_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            stats = engine.stats()

        if errors:
            raise errors[0]
        expected_requests = 0
        for tid in range(num_client_threads):
            for i in range(iterations):
                expected_requests += 2 if (tid + i) % 2 == 1 else 1
        assert stats.requests == expected_requests
        assert stats.samples == sum(
            size * n for size, n in stats.batch_histogram.items()
        )


    def test_eight_threads_on_one_fused_plan(self):
        """One compiled plan of fused blocks, eight threads, no engine in
        between: they take turns in the plan's one arena — bound once,
        never grown — and every reply equals the oracle."""
        model = convert(build_model("quicknet_small", input_size=32))
        plan = compile_plan(model.graph)
        assert plan.fused_blocks == 16
        arena = plan.workspace
        grows, nbytes = arena.grows, arena.nbytes
        rng = np.random.default_rng(11)
        xs = [_batched_input(model.graph, 1, rng) for _ in range(4)]
        refs = [reference_outputs(model.graph, (x,), 1) for x in xs]
        num_threads, iterations = 8, 12
        errors: list[BaseException] = []
        barrier = threading.Barrier(num_threads)

        def client(tid: int) -> None:
            try:
                barrier.wait(timeout=30)
                for i in range(iterations):
                    k = (tid + i) % len(xs)
                    assert_bit_identical(plan.execute((xs[k],))[0], refs[k])
            except BaseException as exc:  # surface in the main thread
                errors.append(exc)

        with _switching_threads_often():
            _run_all(
                threading.Thread(target=client, args=(tid,))
                for tid in range(num_threads)
            )
        if errors:
            raise errors[0]
        assert plan.workspace is arena  # one arena, not one per thread
        assert (arena.grows, arena.nbytes) == (grows, nbytes)

    def test_compiling_larger_plans_under_a_running_one(self):
        """One thread loops ``run`` at factor 1 while another compiles and
        runs factors 2 … 8 in the same engine: every compile replaces
        buffers the running plan is bound to, never under a call."""
        model = convert(build_model("quicknet_small", input_size=32))
        rng = np.random.default_rng(13)
        inputs = {k: _batched_input(model.graph, k, rng) for k in range(1, 9)}
        refs = {k: reference_outputs(model.graph, (x,), k) for k, x in inputs.items()}
        errors: list[BaseException] = []
        compiled_all = threading.Event()

        def runner() -> None:
            try:
                while not compiled_all.is_set():
                    assert_bit_identical(engine.run(inputs[1]), refs[1])
                assert_bit_identical(engine.run(inputs[1]), refs[1])
            except BaseException as exc:  # surface in the main thread
                errors.append(exc)

        def compiler() -> None:
            try:
                for k in range(2, 9):
                    assert_bit_identical(engine.run(inputs[k]), refs[k])
            except BaseException as exc:
                errors.append(exc)
            finally:
                compiled_all.set()

        with _switching_threads_often(), Engine(model) as engine:
            engine.run(inputs[1])  # bound before the first growth
            _run_all([threading.Thread(target=runner), threading.Thread(target=compiler)])
            stats = engine.stats()
        if errors:
            raise errors[0]
        assert stats.plan_cache_misses == 8
        alone = [compile_plan(model.graph, k).workspace.nbytes for k in range(1, 9)]
        assert max(alone) <= stats.workspace_bytes < sum(alone) / 4

    def test_stats_do_not_wait_for_a_running_plan(self, shared_case):
        """``stats()`` reads the arena's size without its lock: it returns
        while another thread is parked inside ``plan.execute``."""
        graph, cases = shared_case
        x, expected = cases[1]
        inside, release = threading.Event(), threading.Event()
        results: list = []
        with Engine(graph) as engine:
            plan = engine.plan(1)
            first = plan.nodes[0]

            def parked(*args):  # (ins) or, for a fused block, (ins, marks)
                inside.set()
                assert release.wait(timeout=30)
                return first.fn(*args)

            nodes = (dataclasses.replace(first, fn=parked), *plan.nodes[1:])
            slow_plan = dataclasses.replace(plan, nodes=nodes)
            thread = threading.Thread(
                target=lambda: results.append(slow_plan.execute((x,)))
            )
            thread.start()
            try:
                assert inside.wait(timeout=30)
                assert not plan.workspace.lock.acquire(blocking=False)  # held
                stats = engine.stats()
                assert stats.workspace_bytes == plan.workspace.nbytes > 0
            finally:
                release.set()
                thread.join(timeout=30)
        assert not thread.is_alive()
        assert_bit_identical(results[0][0], expected)


class TestCoalescingFuzz:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_request_streams(self, shared_case, seed):
        """Random request sizes and batch caps: results per request must
        match the per-request references however the stream is chunked."""
        graph, cases = shared_case
        rng = np.random.default_rng(seed)
        max_batch_size = int(rng.integers(1, 5))
        sizes = [int(rng.integers(1, len(FACTORS) + 1)) for _ in range(12)]
        with Engine(graph, max_batch_size=max_batch_size) as engine:
            results = engine.run_many([cases[k][0] for k in sizes])
            stats = engine.stats()
        for k, result in zip(sizes, results):
            assert_bit_identical(result, cases[k][1])
        # Coalescing invariants: every request accounted for, and no
        # micro-batch exceeds the cap, an oversize request included.
        assert stats.requests == len(sizes)
        assert stats.samples == sum(sizes)
        assert max(stats.batch_histogram) <= max_batch_size

    def test_oversize_request_is_split(self, shared_case):
        graph, cases = shared_case
        x, expected = cases[3]
        with Engine(graph, max_batch_size=2) as engine:
            [result] = engine.run_many([x])
            assert_bit_identical(result, expected)
            assert engine.stats().batch_histogram == {2: 1, 1: 1}

    def test_ragged_tail_forms_final_microbatch(self, shared_case):
        graph, cases = shared_case
        sizes = [2, 2, 1]  # cap 4 -> chunks [2, 2] and ragged [1]
        with Engine(graph, max_batch_size=4) as engine:
            results = engine.run_many([cases[k][0] for k in sizes])
            stats = engine.stats()
        for k, result in zip(sizes, results):
            assert_bit_identical(result, cases[k][1])
        assert stats.batch_histogram == {4: 1, 1: 1}
