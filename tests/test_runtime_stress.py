"""Concurrency and coalescing stress tests for the runtime Engine.

Complements :mod:`test_runtime_parity`: the parity suite proves one call is
bit-exact; these tests prove the *engine machinery* keeps that property
under concurrent callers and arbitrary request/coalescing geometries
(ragged tails, oversize requests).
"""

from __future__ import annotations

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
        between: each thread binds the kernels to its own arena on its
        first call and every reply equals the oracle."""
        model = convert(build_model("quicknet_small", input_size=32), in_place=True)
        plan = compile_plan(model.graph)
        assert plan.fused_blocks == 16
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

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads mid-kernel, often
        try:
            threads = [
                threading.Thread(target=client, args=(tid,))
                for tid in range(num_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        if errors:
            raise errors[0]
        assert plan.workspace.num_workspaces == num_threads


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
        # Coalescing invariants: every request accounted for, no micro-batch
        # exceeds the cap unless a single request was itself oversize.
        assert stats.requests == len(sizes)
        assert stats.samples == sum(sizes)
        for size, count in stats.batch_histogram.items():
            assert size <= max_batch_size or size in sizes

    def test_oversize_request_runs_alone(self, shared_case):
        graph, cases = shared_case
        x, expected = cases[3]
        with Engine(graph, max_batch_size=2) as engine:
            [result] = engine.run_many([x])
            assert_bit_identical(result, expected)
            assert engine.stats().batch_histogram == {3: 1}

    def test_ragged_tail_forms_final_microbatch(self, shared_case):
        graph, cases = shared_case
        sizes = [2, 2, 1]  # cap 4 -> chunks [2, 2] and ragged [1]
        with Engine(graph, max_batch_size=4) as engine:
            results = engine.run_many([cases[k][0] for k in sizes])
            stats = engine.stats()
        for k, result in zip(sizes, results):
            assert_bit_identical(result, cases[k][1])
        assert stats.batch_histogram == {4: 1, 1: 1}
