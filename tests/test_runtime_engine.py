"""Unit tests for the runtime layer's machinery.

Parity is covered by :mod:`test_runtime_parity`; this module locks down the
surrounding behavior: plan/param caching, statistics, input validation
and spec rebatching.
"""

from __future__ import annotations

import pathlib
import subprocess
import sys
import textwrap
import threading
import tracemalloc

import numpy as np
import pytest
from test_runtime_parity import (
    SYNTHETIC_GRAPHS,
    _batched_input,
    assert_bit_identical,
    reference_outputs,
)

from repro import cli
from repro.converter import convert
from repro.core.bitpack import PackedTensor
from repro.core.types import Padding
from repro.graph.builder import GraphBuilder
from repro.graph.ir import Graph, GraphError, TensorSpec
from repro.runtime import Engine, ParamCache, compile_plan, rebatched_specs
from repro.zoo import build_model


def _small_net(rng):
    b = GraphBuilder((1, 6, 6, 3))
    x = b.conv2d(b.input, rng.standard_normal((3, 3, 3, 4)).astype(np.float32))
    x = b.relu(x)
    x = b.global_avgpool(x)
    x = b.dense(x, rng.standard_normal((4, 3)).astype(np.float32))
    return b.finish(x)


def _two_input_net(rng):
    g = Graph("two_inputs")
    a = g.add_input("a", TensorSpec((1, 4)))
    b = g.add_input("b", TensorSpec((1, 4)))
    n = g.add_node("add", [a, b], [TensorSpec((1, 4))])
    g.outputs = [n.outputs[0]]
    g.verify()
    return g


class TestEngineConstruction:
    def test_accepts_graph_and_converted_model(self, rng):
        g = _small_net(rng)
        assert Engine(g).graph is g
        model = convert(_small_net(rng))
        assert Engine(model).graph is model.graph

    def test_rejects_non_graph(self):
        with pytest.raises(TypeError, match="Graph"):
            Engine(42)

    def test_rejects_bad_knobs(self, rng):
        g = _small_net(rng)
        with pytest.raises(ValueError, match="max_batch_size"):
            Engine(g, max_batch_size=0)

    def test_rejects_graph_without_inputs(self):
        with pytest.raises((ValueError, GraphError)):
            Engine(Graph("empty"))


class TestInputValidation:
    def test_wrong_input_count(self, rng):
        with Engine(_small_net(rng)) as engine:
            with pytest.raises(ValueError, match="inputs"):
                engine.run()

    def test_wrong_input_shape(self, rng):
        with Engine(_small_net(rng)) as engine:
            with pytest.raises(GraphError, match="shape"):
                engine.run(np.zeros((1, 5, 5, 3), np.float32))

    def test_non_divisible_batch(self, rng):
        b = GraphBuilder((2, 4))
        out = b.relu(b.input)
        with Engine(b.finish(out)) as engine:
            with pytest.raises(ValueError, match="multiple"):
                engine.run(np.zeros((3, 4), np.float32))

    def test_inconsistent_batch_factors(self, rng):
        with Engine(_two_input_net(rng)) as engine:
            with pytest.raises(ValueError, match="inconsistent"):
                engine.run(
                    np.zeros((2, 4), np.float32), np.zeros((3, 4), np.float32)
                )

    def test_empty_batch(self, rng):
        with Engine(_small_net(rng)) as engine:
            with pytest.raises(ValueError, match="empty"):
                engine.run(np.zeros((0, 6, 6, 3), np.float32))


class TestCaching:
    def test_plan_cache_counters(self, rng):
        x = rng.standard_normal((1, 6, 6, 3)).astype(np.float32)
        with Engine(_small_net(rng)) as engine:
            engine.run(x)
            engine.run(x)
            engine.run(np.concatenate([x, x]))
            stats = engine.stats()
        assert stats.plan_cache_misses == 2  # factors 1 and 2
        assert stats.plan_cache_hits == 1
        assert stats.plan_cache_hit_rate == pytest.approx(1 / 3)
        # Every compiled plan passed the dataflow analyses.
        assert stats.verified is True

    def test_a_compile_that_raises_is_not_a_miss(self, rng):
        """Nothing was cached, so nothing is counted: a bad factor and a
        graph that cannot rebatch both used to leave ``misses == 1``."""
        with Engine(_small_net(rng)) as engine:
            with pytest.raises(ValueError, match="batch_factor must be positive"):
                engine.plan(0)
            assert engine.stats().plan_cache_misses == 0
            engine.plan(1)
            engine.plan(1)
            stats = engine.stats()
        assert (stats.plan_cache_misses, stats.plan_cache_hits) == (1, 1)

        g = Graph("scalar")
        out = g.add_node("relu", [g.add_input("a", TensorSpec(()))], [TensorSpec(())])
        g.outputs = [out.outputs[0]]
        with Engine(g) as engine:
            with pytest.raises(GraphError, match="no batch dimension"):
                engine.plan(2)
            stats = engine.stats()
        assert (stats.plan_cache_misses, stats.plan_cache_hits) == (0, 0)

    def test_param_cache_shared_across_plans(self, rng):
        model = convert(_binarized_net(rng))
        x = rng.standard_normal((1, 6, 6, 8)).astype(np.float32)
        with Engine(model) as engine:
            engine.run(x)
            misses_after_first = engine.stats().param_cache_misses
            assert misses_after_first > 0
            # A new batch factor compiles a new plan, but every derived
            # weight (packed filters, thresholds, ...) comes from the cache.
            engine.run(np.concatenate([x, x]))
            stats = engine.stats()
        assert stats.param_cache_misses == misses_after_first
        assert stats.param_cache_hits >= misses_after_first

    def test_standalone_param_cache_counts(self, rng):
        cache = ParamCache()
        built = []
        node = _small_net(rng).nodes[0]

        def build():
            built.append(1)
            return "payload"

        assert cache.get(node, "k", build) == "payload"
        assert cache.get(node, "k", build) == "payload"
        assert len(built) == 1
        assert (cache.hits, cache.misses) == (1, 1)
        assert len(cache) == 1


def _binarized_net(rng):
    b = GraphBuilder((1, 6, 6, 8))
    x = b.binarize(b.input)
    x = b.conv2d(
        x, rng.standard_normal((3, 3, 8, 8)).astype(np.float32),
        binary_weights=True, padding=Padding.SAME_ONE,
    )
    x = b.global_avgpool(x)
    return b.finish(x)


class TestStats:
    def test_counters_and_rates(self, rng):
        x = rng.standard_normal((2, 6, 6, 3)).astype(np.float32)
        with Engine(_small_net(rng)) as engine:
            engine.run(x)
            engine.run(x)
            stats = engine.stats()
        assert stats.requests == 2
        assert stats.samples == 4
        assert stats.batches == 2
        assert stats.batch_histogram == {2: 2}
        assert stats.mean_batch_size == 2.0
        assert stats.busy_s > 0
        assert stats.throughput_samples_per_s > 0


def _rows(value, start, stop):
    """Rows ``start:stop`` of an input or output (``PackedTensor`` too)."""
    if isinstance(value, tuple):
        return tuple(_rows(v, start, stop) for v in value)
    if isinstance(value, PackedTensor):
        return PackedTensor(bits=value.bits[start:stop], channels=value.channels)
    return value[start:stop]


class TestTheBound:
    """``max_batch_size`` bounds an engine whatever its requests' sizes:
    ``run`` and ``run_many`` slice a larger request into pieces of at most
    that size, so no plan, and no arena, outgrows the bound."""

    MAX = 8
    POOL = 200

    @pytest.mark.parametrize(
        "graph_name", ["binary_same_one", "float_base2", "packed_input", "two_inputs"]
    )
    def test_no_request_grows_the_engine(self, graph_name, rng):
        graph = (
            _two_input_net(rng) if graph_name == "two_inputs"
            else SYNTHETIC_GRAPHS[graph_name](rng)
        )
        bases = [graph.tensors[t].shape[0] for t in graph.inputs]
        out_base = graph.tensors[graph.outputs[0]].shape[0]
        pool = tuple(_batched_input(graph, self.POOL, rng, t) for t in graph.inputs)
        expected = reference_outputs(graph, pool, self.POOL)  # per image

        def request(start, factor):
            """``factor`` groups from group ``start`` on, and what they give."""
            inputs = tuple(
                _rows(v, start * b, (start + factor) * b) for v, b in zip(pool, bases)
            )
            return inputs, _rows(expected, start * out_base, (start + factor) * out_base)

        with Engine(graph, max_batch_size=self.MAX) as engine:
            for factor in range(1, self.MAX + 1):
                inputs, want = request(0, factor)
                assert_bit_identical(engine.run(*inputs), want)
            arena = engine.stats().workspace_bytes

            factors = list(range(1, 3 * self.MAX + 1)) + [self.POOL]
            for factor in factors:
                inputs, want = request(self.POOL - factor, factor)
                assert_bit_identical(engine.run(*inputs), want)
            # small and oversized requests mixed, each from its own offset
            mix = [3, 1, 2 * self.MAX + 5, 2, self.MAX, self.POOL, 1, 3 * self.MAX]
            cases = [request((7 * i) % (self.POOL - f + 1), f) for i, f in enumerate(mix)]
            results = engine.run_many([inputs for inputs, _ in cases])
            for result, (_, want) in zip(results, cases):
                assert_bit_identical(result, want)
            stats = engine.stats()

        assert stats.plan_cache_misses <= self.MAX
        assert max(stats.batch_histogram) <= self.MAX
        assert stats.workspace_bytes == arena
        assert stats.requests == self.MAX + len(factors) + len(mix)
        assert stats.samples == sum(range(1, self.MAX + 1)) + sum(factors) + sum(mix)

    def test_a_plan_above_the_bound_is_refused(self, rng):
        with Engine(_small_net(rng), max_batch_size=self.MAX) as engine:
            with pytest.raises(ValueError, match="max_batch_size 8"):
                engine.plan(self.MAX + 1)
            engine.plan(self.MAX)
            assert engine.stats().plan_cache_misses == 1


class _CountedPlan:
    """Delegates to a plan and notes each execution's batch factor."""

    def __init__(self, plan, executes):
        self._plan, self._executes = plan, executes

    def __getattr__(self, name):
        return getattr(self._plan, name)

    def execute(self, *args, **kwargs):
        self._executes.append(self._plan.batch_factor)
        return self._plan.execute(*args, **kwargs)


class _CallRecordingEngine(Engine):
    """Overrides the public entry points the way a timing proxy does: one
    record per public call, holding the plan executions made inside it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls: list[tuple[str, list[int]]] = []
        self._executes: list[int] = []

    def plan(self, batch_factor=1):
        return _CountedPlan(super().plan(batch_factor), self._executes)

    def _record(self, name, call, *args):
        self._executes = []
        out = call(*args)
        self.calls.append((name, self._executes))
        return out

    def run(self, *inputs):
        return self._record("run", super().run, *inputs)

    def run_many(self, requests):
        return self._record("run_many", super().run_many, requests)


def test_each_public_call_is_recorded_once_with_its_executions(rng):
    """Neither entry point calls the other, so a subclass that wraps both
    records exactly one call per public call, oversized requests included."""
    x = rng.standard_normal((1, 6, 6, 3)).astype(np.float32)
    with _CallRecordingEngine(_small_net(rng), max_batch_size=4) as engine:
        engine.run(x)
        engine.run(np.concatenate([x] * 10))
        engine.run_many([x, x])
        engine.run_many([np.concatenate([x] * 9), x, x])
    assert engine.calls == [
        ("run", [1]),
        ("run", [4, 4, 2]),
        ("run_many", [2]),
        ("run_many", [4, 4, 3]),
    ]


class TestThreadInventory:
    def test_engine_owns_no_threads(self, rng):
        """The engine is synchronous: ``run``/``run_many`` execute on the
        caller and leave no thread behind, open or closed (asynchronous
        batching lives in the serving gateway, nowhere else)."""
        x = rng.standard_normal((1, 6, 6, 3)).astype(np.float32)
        before = set(threading.enumerate())
        with Engine(_small_net(rng), max_batch_size=2) as engine:
            engine.run(x)
            engine.run_many([x, x, x])
            assert set(threading.enumerate()) <= before
        assert set(threading.enumerate()) <= before
        assert not hasattr(engine, "submit")


class TestRebatchedSpecs:
    def test_factor_one_is_identity(self, rng):
        g = _small_net(rng)
        assert rebatched_specs(g, 1) == dict(g.tensors)

    def test_lead_dims_scale(self, rng):
        g = _small_net(rng)
        specs = rebatched_specs(g, 3)
        for name, base in g.tensors.items():
            assert specs[name].shape == (base.shape[0] * 3,) + base.shape[1:]
            assert specs[name].dtype == base.dtype

    def test_reshape_attr_scales(self, rng):
        b = GraphBuilder((1, 4, 4, 2))
        out = b.reshape(b.input, (1, 32))
        g = b.finish(out)
        specs = rebatched_specs(g, 5)
        assert specs[g.outputs[0]].shape == (5, 32)

    def test_invalid_factor_rejected(self, rng):
        with pytest.raises(ValueError):
            rebatched_specs(_small_net(rng), 0)


class TestCompilePlan:
    def test_unknown_op_rejected(self):
        g = Graph("mystery")
        x = g.add_input("x", TensorSpec((1, 4)))
        n = g.add_node("warp_drive", [x], [TensorSpec((1, 4))])
        g.outputs = [n.outputs[0]]
        with pytest.raises(GraphError, match="no kernel"):
            compile_plan(g)

    def test_invalid_args_rejected(self, rng):
        g = _small_net(rng)
        with pytest.raises(ValueError):
            compile_plan(g, batch_factor=0)

    def test_works_on_unconverted_training_graph(self, rng):
        """Plans are not restricted to converted inference graphs."""
        from repro.graph.executor import Executor

        g = _binarized_net(rng)
        x = rng.standard_normal((1, 6, 6, 8)).astype(np.float32)
        expected = Executor(g).run(x)
        with Engine(g) as engine:
            out = engine.run(x)
        assert np.array_equal(out, expected) and out.dtype == expected.dtype


class TestCli:
    def test_benchmark_device_model_path_unchanged(self, capsys):
        rc = cli.main(["benchmark", "--model", "quicknet_small"])
        assert rc == 0
        assert "pixel1" in capsys.readouterr().out


class TestBlasThreads:
    """``import repro`` pins BLAS to one thread unless the caller chose."""

    VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

    def _environ_after_import(self, **exported):
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        # A finder that reports the variable at the moment NumPy is first
        # imported: set any later, OpenBLAS has already sized its pool.
        code = textwrap.dedent(f"""
            import os, sys
            class AtNumpyImport:
                def find_spec(self, name, path=None, target=None):
                    if name == "numpy":
                        print(os.environ.get("OPENBLAS_NUM_THREADS"))
            sys.meta_path.insert(0, AtNumpyImport())
            import repro
            print(*[os.environ[v] for v in {self.VARS!r}])
        """)
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin", **exported},
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split()

    def test_defaults_to_one_thread_before_numpy_loads(self):
        assert self._environ_after_import() == ["1", "1", "1", "1"]

    def test_an_exported_value_wins(self):
        got = self._environ_after_import(OPENBLAS_NUM_THREADS="2")
        assert got == ["2", "2", "1", "1"]


#: bytes a warm ``Engine.run`` of QuickNet-small may hold above its start at
#: its peak, per input size: the request's own tensors (each node's fresh
#: output while its input is alive), nothing per call in the kernels.
#: Measured 34.9 KB / 1006 KB with every float op bound (0.079 / 3.63 MB
#: when conv2d, depthwise and pooling still padded and gathered into fresh
#: arrays on every call); the bounds leave ~20 % for NumPy versions.
STEADY_STATE_PEAK_BYTES = {32: 42_000, 224: 1_200_000}


@pytest.mark.parametrize("size", sorted(STEADY_STATE_PEAK_BYTES))
def test_warm_run_peak_allocation_is_pinned(size):
    """``tracemalloc`` peak above the start of a warm ``Engine.run``:
    counted in bytes, so it cannot flake on a slow host."""
    model = convert(build_model("quicknet_small", input_size=size))
    x = np.random.default_rng(3).standard_normal((1, size, size, 3)).astype(np.float32)
    with Engine(model) as engine:
        engine.run(x)
        engine.run(x)
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            engine.run(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak - start <= STEADY_STATE_PEAK_BYTES[size], peak - start
