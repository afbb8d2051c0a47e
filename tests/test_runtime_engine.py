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

from repro import cli
from repro.converter import convert
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
