"""End-to-end converter tests: numerics preserved, optimizations applied."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from copy_contract import assert_copy_contract, snapshot
from hypothesis import given, settings
from test_fuzz_converter import random_network

from repro.converter import convert
from repro.core.types import Padding
from repro.graph.builder import GraphBuilder
from repro.graph.executor import Executor
from repro.graph.ir import Graph, TensorSpec
from repro.graph.passes import PASSES, run_passes
from repro.graph.serialization import save_model
from repro.kernels.batchnorm import BatchNormParams
from repro.zoo import MODEL_REGISTRY, build_model


def _bn(rng, c):
    return BatchNormParams(
        gamma=rng.uniform(0.5, 1.5, c).astype(np.float32),
        beta=rng.standard_normal(c).astype(np.float32),
        mean=rng.standard_normal(c).astype(np.float32),
        variance=rng.uniform(0.2, 1.5, c).astype(np.float32),
    )


def _residual_net(rng):
    """Stem conv + two binary residual layers + bmaxpool pattern + head."""
    b = GraphBuilder((1, 12, 12, 8), name="toy_residual")
    x = b.conv2d(b.input, rng.standard_normal((3, 3, 8, 16)).astype(np.float32))
    x = b.batch_norm(x, _bn(rng, 16))
    for _ in range(2):
        h = b.binarize(x)
        h = b.conv2d(
            h, rng.choice([-1.0, 1.0], (3, 3, 16, 16)).astype(np.float32),
            padding=Padding.SAME_ONE, binary_weights=True,
        )
        h = b.relu(h)
        h = b.batch_norm(h, _bn(rng, 16))
        x = b.add(h, x)
    p = b.maxpool2d(x, 2, 2)
    q = b.binarize(p)
    q = b.conv2d(
        q, rng.choice([-1.0, 1.0], (3, 3, 16, 16)).astype(np.float32),
        padding=Padding.SAME_ONE, binary_weights=True,
    )
    g = b.global_avgpool(q)
    out = b.dense(g, rng.standard_normal((16, 10)).astype(np.float32))
    return b.finish(out)


class TestNumericalEquivalence:
    def test_residual_net_exact(self, rng):
        g = _residual_net(rng)
        x = rng.standard_normal((1, 12, 12, 8)).astype(np.float32)
        before = Executor(g).run(x)
        model = convert(g)
        after = Executor(model.graph).run(x)
        np.testing.assert_allclose(after, before, rtol=1e-4, atol=1e-4)

    def test_chain_net_exact(self, rng):
        """No shortcuts: the whole binary chain exchanges bitpacked data and
        stays exactly equal to the emulation (integer arithmetic)."""
        b = GraphBuilder((1, 8, 8, 8))
        x = b.input
        for i in range(3):
            h = b.binarize(x)
            h = b.conv2d(
                h, rng.choice([-1.0, 1.0], (3, 3, 8, 8)).astype(np.float32),
                padding=Padding.SAME_ONE, binary_weights=True,
            )
            h = b.batch_norm(h, _bn(rng, 8))
            x = h
        g = b.finish(b.global_avgpool(x))
        inp = rng.standard_normal((1, 8, 8, 8)).astype(np.float32)
        before = Executor(g).run(inp)
        model = convert(g)
        after = Executor(model.graph).run(inp)
        np.testing.assert_allclose(after, before, rtol=1e-4, atol=1e-4)
        # middle convs write bitpacked output
        out_types = [
            n.attr("output_type") for n in model.graph.ops_by_type("lce_bconv2d")
        ]
        assert out_types[:2] == ["bitpacked", "bitpacked"]


class TestOptimizationsApplied:
    def test_converted_op_mix(self, rng):
        model = convert(_residual_net(rng))
        ops = {n.op for n in model.graph.nodes}
        assert "lce_bconv2d" in ops
        assert "lce_bmaxpool2d" in ops
        assert "binarize" not in ops
        assert "batch_norm" not in ops
        assert "relu" not in ops  # fused

    def test_report_counts(self, rng):
        g = _residual_net(rng)
        model = convert(g)
        assert model.report.nodes_before == len(g)
        assert model.report.nodes_after == len(model.graph)
        assert model.report.nodes_after < model.report.nodes_before
        assert model.report.weight_compression > 1.0

    def test_pass_changes_recorded(self, rng):
        model = convert(_residual_net(rng))
        assert model.report.pass_changes["binarize_convs"] == 1
        assert model.report.pass_changes["fuse_output_transform"] == 1
        assert model.report.pass_changes["bmaxpool_swap"] == 1
        assert set(model.report.pass_changes.values()) <= {0, 1}

    def test_idempotent(self, rng):
        model = convert(_residual_net(rng))
        again = convert(model.graph)
        assert len(again.graph) == len(model.graph)


class TestOneSweep:
    """Each pass runs once: a second sweep over a converted graph finds
    nothing left to do, and ``convert`` validates once per pass."""

    @pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
    def test_second_sweep_changes_nothing_on_the_zoo(self, name, tmp_path):
        size = 64 if name in ("binary_alexnet", "xnornet") else 32  # smallest that builds
        converted = convert(build_model(name, input_size=size)).graph
        save_model(converted, tmp_path / "once.lce")
        assert set(run_passes(converted).values()) == {0}
        save_model(converted, tmp_path / "twice.lce")
        assert (tmp_path / "twice.lce").read_bytes() == (tmp_path / "once.lce").read_bytes()

    def test_convert_validates_once_on_entry_and_once_per_pass(self, monkeypatch):
        graph = build_model("quicknet_small", input_size=32)
        calls = []
        validate = Graph.validate
        monkeypatch.setattr(Graph, "validate", lambda g: calls.append(g) or validate(g))
        convert(graph)
        assert len(calls) == len(PASSES) + 1


class TestCopyContract:
    """``convert`` runs on ``Graph.copy()``: it never mutates its input, and
    the arrays it keeps are shared with the input read-only."""

    def test_quicknet_small(self):
        g = build_model("quicknet_small", input_size=32)
        before = snapshot(g)
        nodes_before = [(n.name, n.op, list(n.inputs)) for n in g.nodes]
        model = convert(g)
        assert [(n.name, n.op, list(n.inputs)) for n in g.nodes] == nodes_before
        # The classifier's dense weights and bias pass through unchanged.
        assert assert_copy_contract(before, g, model.graph) >= 2

    def test_residual_net(self, rng):
        g = _residual_net(rng)
        before = snapshot(g)
        model = convert(g)
        assert len(g) == model.report.nodes_before
        assert assert_copy_contract(before, g, model.graph) >= 1

    @settings(max_examples=5, deadline=None)
    @given(case=random_network())
    def test_fuzzed(self, case):
        graph, _ = case
        before = snapshot(graph)
        assert_copy_contract(before, graph, convert(graph).graph)

    def test_convert_traces_far_less_than_the_weights(self):
        # The 48 MB of float weights do not depend on the input size; a
        # deep copy of them peaks ~54 MB above the baseline.
        tracemalloc.start()
        try:
            g = build_model("quicknet_small", input_size=32)
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            model = convert(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.param_nbytes() > 40e6
        assert model.graph.param_nbytes() < 10e6
        assert peak - base <= 12e6, f"convert peaked {(peak - base) / 1e6:.1f} MB"


class TestGraphCopy:
    def test_carries_every_field(self, rng):
        g = _residual_net(rng)
        c = g.copy()
        assert set(vars(c)) == set(vars(Graph()))
        assert (c.name, c.inputs, c.outputs, c.tensors, c._counter) == (
            g.name, g.inputs, g.outputs, g.tensors, g._counter
        )
        assert [n.name for n in c.nodes] == [n.name for n in g.nodes]

    def test_fresh_names_do_not_collide(self, rng):
        g = _residual_net(rng)
        c = g.copy()
        out = c.outputs[0]
        for n in g.nodes:  # a reused name would raise GraphError
            c.add_node(n.op, [out], [c.tensors[out]])
        c.verify()
        assert len(g) < len(c)

    def test_structure_is_private(self, rng):
        g = _residual_net(rng)
        c = g.copy()
        node = c.nodes[0]
        node.inputs.append("x")
        node.attrs["fused"] = True
        node.params["extra"] = np.zeros(1, np.float32)
        c.tensors["t"] = TensorSpec((1,))
        c.outputs.append("t")
        orig = g.nodes[0]
        assert "x" not in orig.inputs
        assert "fused" not in orig.attrs and "extra" not in orig.params
        assert "t" not in g.tensors and "t" not in g.outputs

    def test_arrays_are_shared_read_only(self, rng):
        g = _residual_net(rng)
        c = g.copy()
        for n, m in zip(g.nodes, c.nodes):
            for key, value in n.params.items():
                if isinstance(value, np.ndarray):
                    view = m.params[key]
                    assert np.shares_memory(view, value)
                    assert not view.flags.writeable and value.flags.writeable
                    with pytest.raises(ValueError):
                        view[...] = 0
                else:
                    assert m.params[key] is value


class TestPureFloatGraphUntouched:
    def test_float_net_passes_through(self, rng):
        b = GraphBuilder((1, 8, 8, 3))
        x = b.conv2d(b.input, rng.standard_normal((3, 3, 3, 8)).astype(np.float32))
        x = b.global_avgpool(x)
        g = b.finish(x)
        model = convert(g)
        assert {n.op for n in model.graph.nodes} == {"conv2d", "global_avgpool"}
