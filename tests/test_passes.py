"""Tests for the individual converter passes.

Each pass is tested structurally (the rewrite happened) and numerically
(executor output unchanged) — the converter's contract.
"""

from __future__ import annotations

import numpy as np

from repro.core.types import Activation, Padding
from repro.graph.builder import GraphBuilder
from repro.graph.executor import Executor
from repro.graph.ir import Graph, TensorSpec
from repro.graph.passes import PASSES, run_passes
from repro.graph.passes.binarize_convs import binarize_convs
from repro.graph.passes.bitpacked_chain import bitpacked_chain
from repro.graph.passes.bmaxpool_swap import bmaxpool_swap
from repro.graph.passes.canonicalize import canonicalize
from repro.graph.passes.dce import dce
from repro.graph.passes.dedupe_quantize import dedupe_quantize
from repro.graph.passes.fuse_output_transform import fuse_output_transform
from repro.graph.serialization import save_model
from repro.kernels.batchnorm import BatchNormParams


def _rand_bn(rng, c):
    return BatchNormParams(
        gamma=rng.uniform(0.5, 1.5, c).astype(np.float32),
        beta=rng.standard_normal(c).astype(np.float32),
        mean=rng.standard_normal(c).astype(np.float32),
        variance=rng.uniform(0.2, 1.5, c).astype(np.float32),
    )


def _assert_equivalent(graph_before: Graph, graph_after: Graph, rng, atol=1e-4):
    spec = graph_before.tensors[graph_before.inputs[0]]
    x = rng.standard_normal(spec.shape).astype(np.float32)
    before = Executor(graph_before).run(x)
    after = Executor(graph_after).run(x)
    np.testing.assert_allclose(after, before, rtol=1e-4, atol=atol)


def _copy(graph: Graph) -> Graph:
    import copy

    return copy.deepcopy(graph)


class TestCanonicalize:
    def test_removes_noop_reshape(self, rng):
        b = GraphBuilder((1, 2, 2, 4))
        x = b.reshape(b.input, (1, 2, 2, 4))
        x = b.relu(x)
        g = b.finish(x)
        assert canonicalize(g)
        g.verify()
        assert not g.ops_by_type("reshape")

    def test_keeps_real_reshape(self, rng):
        b = GraphBuilder((1, 2, 2, 4))
        x = b.reshape(b.input, (1, 16))
        g = b.finish(x)
        assert not canonicalize(g)
        assert g.ops_by_type("reshape")


class TestBinarizeConvs:
    def _graph(self, rng, padding=Padding.SAME_ONE):
        b = GraphBuilder((1, 6, 6, 8))
        h = b.binarize(b.input)
        h = b.conv2d(
            h, rng.choice([-1.0, 1.0], (3, 3, 8, 4)).astype(np.float32),
            padding=padding, binary_weights=True,
        )
        return b.finish(h)

    def test_rewrites_pattern(self, rng):
        g = self._graph(rng)
        before = _copy(g)
        assert binarize_convs(g)
        dce(g)
        g.verify()
        assert len(g.ops_by_type("lce_bconv2d")) == 1
        assert len(g.ops_by_type("lce_quantize")) == 1
        assert not g.ops_by_type("conv2d")
        assert not g.ops_by_type("binarize")
        _assert_equivalent(before, g, rng)

    def test_packs_weights_32x(self, rng):
        g = self._graph(rng)
        float_bytes = g.ops_by_type("conv2d")[0].params["weights"].nbytes
        binarize_convs(g)
        packed_bytes = g.ops_by_type("lce_bconv2d")[0].params["filter_bits"].nbytes
        # 8 input channels pad to one 64-bit word: 8x here, 32x at >=64ch.
        assert packed_bytes < float_bytes

    def test_zero_padding_gets_correction(self, rng):
        """The correction is the bound kernel's own: the converter attaches
        no table, and the converted graph stays equivalent."""
        g = self._graph(rng, padding=Padding.SAME_ZERO)
        before = _copy(g)
        binarize_convs(g)
        dce(g)
        node = g.ops_by_type("lce_bconv2d")[0]
        assert set(node.params) == {"filter_bits"}
        _assert_equivalent(before, g, rng)

    def test_leaves_float_convs_alone(self, rng):
        b = GraphBuilder((1, 6, 6, 8))
        h = b.conv2d(b.input, rng.standard_normal((3, 3, 8, 4)).astype(np.float32))
        g = b.finish(h)
        assert not binarize_convs(g)

    def test_leaves_unbinarized_input_alone(self, rng):
        # binary weights but no preceding binarize op: stays emulated.
        b = GraphBuilder((1, 6, 6, 8))
        h = b.conv2d(
            b.input, rng.standard_normal((3, 3, 8, 4)).astype(np.float32),
            binary_weights=True,
        )
        g = b.finish(h)
        assert not binarize_convs(g)


class TestFuseActivation:
    def test_fuses_relu_into_float_conv(self, rng):
        b = GraphBuilder((1, 6, 6, 3))
        h = b.conv2d(b.input, rng.standard_normal((3, 3, 3, 4)).astype(np.float32))
        h = b.relu(h)
        g = b.finish(h)
        before = _copy(g)
        assert fuse_output_transform(g)
        assert not g.ops_by_type("relu")
        assert Activation(g.ops_by_type("conv2d")[0].attrs["activation"]) is Activation.RELU
        _assert_equivalent(before, g, rng)

    def test_no_fuse_when_relu_has_other_consumer(self, rng):
        b = GraphBuilder((1, 6, 6, 3))
        h = b.conv2d(b.input, rng.standard_normal((3, 3, 3, 4)).astype(np.float32))
        r = b.relu(h)
        out = b.add(h, r)  # conv output used twice
        g = b.finish(out)
        assert not fuse_output_transform(g)

    def test_no_fuse_into_already_activated(self, rng):
        b = GraphBuilder((1, 6, 6, 3))
        h = b.conv2d(
            b.input, rng.standard_normal((3, 3, 3, 4)).astype(np.float32),
            activation=Activation.RELU6,
        )
        h = b.relu(h)
        g = b.finish(h)
        assert not fuse_output_transform(g)

    def test_no_fuse_when_output_is_graph_output(self, rng):
        b = GraphBuilder((1, 6, 6, 3))
        h = b.conv2d(b.input, rng.standard_normal((3, 3, 3, 4)).astype(np.float32))
        r = b.relu(h)
        g = b.finish(h, r)  # conv output itself is a graph output
        assert not fuse_output_transform(g)


class TestFuseBatchnorm:
    def test_folds_into_float_conv(self, rng):
        b = GraphBuilder((1, 6, 6, 3))
        h = b.conv2d(b.input, rng.standard_normal((3, 3, 3, 4)).astype(np.float32))
        h = b.batch_norm(h, _rand_bn(rng, 4))
        g = b.finish(h)
        before = _copy(g)
        assert fuse_output_transform(g)
        assert not g.ops_by_type("batch_norm")
        _assert_equivalent(before, g, rng)

    def test_folds_into_dense(self, rng):
        b = GraphBuilder((1, 8))
        h = b.dense(b.input, rng.standard_normal((8, 4)).astype(np.float32))
        h = b.batch_norm(h, _rand_bn(rng, 4))
        g = b.finish(h)
        before = _copy(g)
        assert fuse_output_transform(g)
        _assert_equivalent(before, g, rng)

    def test_folds_into_depthwise(self, rng):
        b = GraphBuilder((1, 6, 6, 4))
        h = b.depthwise_conv2d(b.input, rng.standard_normal((3, 3, 4)).astype(np.float32))
        h = b.batch_norm(h, _rand_bn(rng, 4))
        g = b.finish(h)
        before = _copy(g)
        assert fuse_output_transform(g)
        _assert_equivalent(before, g, rng)

    def test_does_not_fold_through_activation(self, rng):
        b = GraphBuilder((1, 6, 6, 3))
        h = b.conv2d(
            b.input, rng.standard_normal((3, 3, 3, 4)).astype(np.float32),
            activation=Activation.RELU,
        )
        h = b.batch_norm(h, _rand_bn(rng, 4))
        g = b.finish(h)
        assert not fuse_output_transform(g)

    def _bconv_graph(self, rng, with_relu_before_bn: bool):
        b = GraphBuilder((1, 6, 6, 8))
        h = b.binarize(b.input)
        h = b.conv2d(
            h, rng.choice([-1.0, 1.0], (3, 3, 8, 4)).astype(np.float32),
            padding=Padding.SAME_ONE, binary_weights=True,
        )
        if with_relu_before_bn:
            h = b.relu(h)
        h = b.batch_norm(h, _rand_bn(rng, 4))
        return b.finish(h)

    def test_bconv_bn_becomes_multiplier(self, rng):
        g = self._bconv_graph(rng, with_relu_before_bn=False)
        before = _copy(g)
        binarize_convs(g)
        assert fuse_output_transform(g)
        dce(g)
        node = g.ops_by_type("lce_bconv2d")[0]
        assert "multiplier" in node.params and "bias" in node.params
        _assert_equivalent(before, g, rng)

    def test_bconv_relu_bn_records_order(self, rng):
        """QuickNet's conv -> ReLU -> BN fuses with the scale after the act."""
        g = self._bconv_graph(rng, with_relu_before_bn=True)
        before = _copy(g)
        binarize_convs(g)
        assert fuse_output_transform(g)
        dce(g)
        assert not g.ops_by_type("relu") and not g.ops_by_type("batch_norm")
        node = g.ops_by_type("lce_bconv2d")[0]
        assert Activation(node.attrs["activation"]) is Activation.RELU
        assert node.attrs["scale_before_activation"] is False
        _assert_equivalent(before, g, rng)

    def test_consecutive_bns_compose(self, rng):
        g = self._bconv_graph(rng, with_relu_before_bn=False)
        # append a second BN
        last = g.outputs[0]
        n = g.add_node(
            "batch_norm", [last], [TensorSpec(g.tensors[last].shape)],
            params={"bn": _rand_bn(rng, 4)},
        )
        g.outputs = [n.outputs[0]]
        before = _copy(g)
        binarize_convs(g)
        assert fuse_output_transform(g)
        dce(g)
        assert not g.ops_by_type("batch_norm")
        _assert_equivalent(before, g, rng, atol=1e-3)


class TestBMaxPoolSwap:
    def test_swaps(self, rng):
        b = GraphBuilder((1, 8, 8, 8))
        p = b.maxpool2d(b.input, 2, 2)
        h = b.binarize(p)
        h = b.conv2d(
            h, rng.choice([-1.0, 1.0], (3, 3, 8, 4)).astype(np.float32),
            padding=Padding.SAME_ONE, binary_weights=True,
        )
        g = b.finish(h)
        before = _copy(g)
        binarize_convs(g)
        dce(g)  # drop the dead emulation binarize so the pool has one consumer
        assert bmaxpool_swap(g)
        dce(g)
        g.verify()
        assert g.ops_by_type("lce_bmaxpool2d")
        assert not g.ops_by_type("maxpool2d")
        _assert_equivalent(before, g, rng)

    def test_no_swap_when_pool_output_also_used_in_float(self, rng):
        b = GraphBuilder((1, 8, 8, 8))
        p = b.maxpool2d(b.input, 2, 2)
        h = b.binarize(p)
        h = b.conv2d(
            h, rng.choice([-1.0, 1.0], (3, 3, 8, 8)).astype(np.float32),
            padding=Padding.SAME_ONE, binary_weights=True,
        )
        out = b.add(h, p)  # float use of the pooled tensor
        g = b.finish(out)
        binarize_convs(g)
        dce(g)
        assert not bmaxpool_swap(g)


class TestDedupeQuantize:
    def test_merges(self, rng):
        b = GraphBuilder((1, 6, 6, 8))
        h = b.binarize(b.input)
        w = rng.choice([-1.0, 1.0], (3, 3, 8, 8)).astype(np.float32)
        c1 = b.conv2d(h, w, padding=Padding.SAME_ONE, binary_weights=True)
        c2 = b.conv2d(h, w, padding=Padding.SAME_ONE, binary_weights=True)
        out = b.add(c1, c2)
        g = b.finish(out)
        before = _copy(g)
        binarize_convs(g)
        assert len(g.ops_by_type("lce_quantize")) == 2
        assert dedupe_quantize(g)
        dce(g)
        assert len(g.ops_by_type("lce_quantize")) == 1
        _assert_equivalent(before, g, rng)


class TestBitpackedChain:
    def _chain(self, rng):
        b = GraphBuilder((1, 6, 6, 8))
        h = b.binarize(b.input)
        w1 = rng.choice([-1.0, 1.0], (3, 3, 8, 8)).astype(np.float32)
        h = b.conv2d(h, w1, padding=Padding.SAME_ONE, binary_weights=True)
        h = b.batch_norm(h, _rand_bn(rng, 8))
        h = b.binarize(h)
        w2 = rng.choice([-1.0, 1.0], (3, 3, 8, 4)).astype(np.float32)
        h = b.conv2d(h, w2, padding=Padding.SAME_ONE, binary_weights=True)
        return b.finish(h)

    def test_first_conv_writes_bitpacked(self, rng):
        g = self._chain(rng)
        before = _copy(g)
        binarize_convs(g)
        dce(g)  # drop dead emulation binarize nodes
        fuse_output_transform(g)
        assert bitpacked_chain(g)
        dce(g)
        g.verify()
        convs = g.ops_by_type("lce_bconv2d")
        assert convs[0].attrs["output_type"] == "bitpacked"
        assert "threshold" in convs[0].params
        assert "multiplier" not in convs[0].params
        assert len(g.ops_by_type("lce_quantize")) == 1  # only the input one
        _assert_equivalent(before, g, rng)

    def test_residual_blocks_chain(self, rng):
        """A shortcut consumer keeps the intermediate in float."""
        b = GraphBuilder((1, 6, 6, 8))
        h0 = b.binarize(b.input)
        w = rng.choice([-1.0, 1.0], (3, 3, 8, 8)).astype(np.float32)
        h = b.conv2d(h0, w, padding=Padding.SAME_ONE, binary_weights=True)
        h2 = b.binarize(h)
        h2 = b.conv2d(h2, w, padding=Padding.SAME_ONE, binary_weights=True)
        out = b.add(h2, h)  # h feeds both the next conv and a shortcut
        g = b.finish(out)
        binarize_convs(g)
        dce(g)
        assert not bitpacked_chain(g)


class TestDCE:
    def test_removes_dead_chain(self, rng):
        b = GraphBuilder((1, 4, 4, 4))
        live = b.relu(b.input)
        dead = b.relu(b.input)
        dead = b.relu(dead)
        g = b.finish(live)
        assert dce(g)
        assert len(g) == 1

    def test_keeps_outputs(self, rng):
        b = GraphBuilder((1, 4, 4, 4))
        x = b.relu(b.input)
        g = b.finish(x)
        assert not dce(g)


class TestRunPasses:
    def test_runs_each_pass_once(self, rng):
        b = GraphBuilder((1, 4, 4, 4))
        x = b.relu(b.input)
        g = b.finish(x)
        calls = []

        def counting(graph):
            calls.append(1)
            return False

        assert run_passes(g, (("dce", dce), ("counting", counting))) == {
            "dce": 0, "counting": 0,
        }
        assert calls == [1]

    def test_reports_changes(self, rng):
        b = GraphBuilder((1, 4, 4, 4))
        live = b.relu(b.input)
        b.relu(b.input)  # dead
        g = b.finish(live)
        assert run_passes(g, (("dce", dce),))["dce"] == 1

    def test_each_pass_listed_once(self):
        names = [name for name, _ in PASSES]
        assert len(set(names)) == len(names)
        assert len({fn for _, fn in PASSES}) == len(PASSES)

    def test_bn_act_orders_fuse_in_one_sweep(self, rng):
        """conv -> BN -> act and conv -> act -> BN both fuse completely, and
        a second sweep finds nothing left to do."""
        b = GraphBuilder((1, 6, 6, 8))
        h = b.binarize(b.input)
        w = rng.choice([-1.0, 1.0], (3, 3, 8, 8)).astype(np.float32)
        h = b.conv2d(h, w, padding=Padding.SAME_ONE, binary_weights=True)
        h = b.batch_norm(h, _rand_bn(rng, 8))
        h = b.relu(h)
        h = b.binarize(h)
        h = b.conv2d(h, w, padding=Padding.SAME_ONE, binary_weights=True)
        h = b.relu(h)
        h = b.batch_norm(h, _rand_bn(rng, 8))
        g = b.finish(b.global_avgpool(h))
        before = _copy(g)
        run_passes(g)
        assert not g.ops_by_type("batch_norm") and not g.ops_by_type("relu")
        first, second = g.ops_by_type("lce_bconv2d")
        assert first.attrs["output_type"] == "bitpacked"
        assert second.attrs["scale_before_activation"] is False
        _assert_equivalent(before, g, rng)
        assert set(run_passes(g).values()) == {0}

    def test_pool_feeding_two_bconvs_swaps_in_one_sweep(self, rng, tmp_path):
        """A MaxPool read by two binarized convs moves behind binarization
        in a single sweep, its new quantize merged with the one a third
        conv already reads; a second sweep changes nothing."""
        b = GraphBuilder((1, 8, 8, 8))
        h = b.relu(b.input)
        p = b.maxpool2d(h, 2, 2)
        w = rng.choice([-1.0, 1.0], (3, 3, 8, 8)).astype(np.float32)
        c1 = b.conv2d(b.binarize(p), w, padding=Padding.SAME_ONE, binary_weights=True)
        c2 = b.conv2d(b.binarize(p), w, padding=Padding.SAME_ONE, binary_weights=True)
        c3 = b.conv2d(b.binarize(h), w, padding=Padding.SAME_ONE, binary_weights=True)
        g = b.finish(b.add(b.add(c1, c2), b.maxpool2d(c3, 2, 2)))
        before = _copy(g)
        changes = run_passes(g)
        assert changes["bmaxpool_swap"] == changes["dedupe_quantize"] == 1
        assert len(g.ops_by_type("maxpool2d")) == 1  # the float one after c3
        assert len(g.ops_by_type("lce_bmaxpool2d")) == 1
        assert len(g.ops_by_type("lce_quantize")) == 1
        _assert_equivalent(before, g, rng)
        save_model(g, tmp_path / "once.lce")
        assert set(run_passes(g).values()) == {0}
        save_model(g, tmp_path / "twice.lce")
        assert (tmp_path / "once.lce").read_bytes() == (tmp_path / "twice.lce").read_bytes()
