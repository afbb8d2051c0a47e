"""Edge-case tests for converter passes and executor corner cases."""

from __future__ import annotations

import numpy as np

from repro.converter import convert
from repro.core.types import Activation, Padding
from repro.graph.builder import GraphBuilder
from repro.graph.executor import Executor
from repro.graph.passes.fuse_output_transform import fuse_output_transform
from repro.kernels.batchnorm import BatchNormParams


def _bn(rng, c):
    return BatchNormParams(
        gamma=rng.uniform(0.5, 1.5, c).astype(np.float32),
        beta=rng.standard_normal(c).astype(np.float32),
        mean=rng.standard_normal(c).astype(np.float32),
        variance=rng.uniform(0.3, 1.5, c).astype(np.float32),
    )


class TestBitpackedChainEdges:
    def test_not_applied_when_conv_is_graph_output(self, rng):
        b = GraphBuilder((1, 6, 6, 8))
        h = b.binarize(b.input)
        h = b.conv2d(
            h, rng.choice([-1.0, 1.0], (3, 3, 8, 8)).astype(np.float32),
            padding=Padding.SAME_ONE, binary_weights=True,
        )
        h2 = b.binarize(h)
        h2 = b.conv2d(
            h2, rng.choice([-1.0, 1.0], (3, 3, 8, 8)).astype(np.float32),
            padding=Padding.SAME_ONE, binary_weights=True,
        )
        # the *intermediate* float value is also a graph output
        g = b.finish(h2, h)
        model = convert(g)
        first = model.graph.ops_by_type("lce_bconv2d")[0]
        assert first.attr("output_type") == "float"

    def test_negative_multiplier_chain_exact(self, rng):
        """BN with negative gammas flips threshold direction; the chain
        must still be bit-exact."""
        b = GraphBuilder((1, 6, 6, 8))
        h = b.binarize(b.input)
        h = b.conv2d(
            h, rng.choice([-1.0, 1.0], (3, 3, 8, 8)).astype(np.float32),
            padding=Padding.SAME_ONE, binary_weights=True,
        )
        bn = BatchNormParams(
            gamma=np.where(rng.random(8) < 0.5, -1.0, 1.0).astype(np.float32)
            * rng.uniform(0.5, 1.5, 8).astype(np.float32),
            beta=rng.standard_normal(8).astype(np.float32),
            mean=np.zeros(8, np.float32),
            variance=np.ones(8, np.float32),
        )
        h = b.batch_norm(h, bn)
        h = b.binarize(h)
        h = b.conv2d(
            h, rng.choice([-1.0, 1.0], (3, 3, 8, 8)).astype(np.float32),
            padding=Padding.SAME_ONE, binary_weights=True,
        )
        g = b.finish(b.global_avgpool(h))
        x = rng.standard_normal((1, 6, 6, 8)).astype(np.float32)
        before = Executor(g).run(x)
        model = convert(g)
        chained = [
            n for n in model.graph.ops_by_type("lce_bconv2d")
            if n.attr("output_type") == "bitpacked"
        ]
        assert chained, "chain fusion should fire despite negative gammas"
        assert bool(chained[0].params["threshold_flip"].any())
        after = Executor(model.graph).run(x)
        np.testing.assert_allclose(after, before, rtol=1e-4, atol=1e-4)


class TestFuseBatchnormEdges:
    def test_bn_after_scaled_activated_bconv_stays(self, rng):
        """act already fused with an affine before it: a further BN is not
        representable and must remain standalone (correctness over zeal)."""
        b = GraphBuilder((1, 6, 6, 8))
        h = b.binarize(b.input)
        h = b.conv2d(
            h, rng.choice([-1.0, 1.0], (3, 3, 8, 8)).astype(np.float32),
            padding=Padding.SAME_ONE, binary_weights=True,
        )
        h = b.batch_norm(h, _bn(rng, 8))   # fuses as multiplier/bias
        h = b.relu(h)                       # fuses as activation (order True)
        h = b.batch_norm(h, _bn(rng, 8))   # NOT representable
        g = b.finish(h)
        x = rng.standard_normal((1, 6, 6, 8)).astype(np.float32)
        before = Executor(g).run(x)
        model = convert(g)
        assert len(model.graph.ops_by_type("batch_norm")) == 1
        after = Executor(model.graph).run(x)
        np.testing.assert_allclose(after, before, rtol=1e-4, atol=1e-4)

    def test_bn_with_fanout_input_not_fused(self, rng):
        b = GraphBuilder((1, 6, 6, 4))
        c = b.conv2d(b.input, rng.standard_normal((3, 3, 4, 4)).astype(np.float32))
        bn = b.batch_norm(c, _bn(rng, 4))
        g = b.finish(b.add(bn, c))  # conv output used twice
        assert not fuse_output_transform(g)


class TestFuseActivationEdges:
    def test_relu6_fuses(self, rng):
        b = GraphBuilder((1, 4, 4, 2))
        h = b.conv2d(b.input, rng.standard_normal((3, 3, 2, 2)).astype(np.float32))
        h = b.relu6(h)
        g = b.finish(h)
        assert fuse_output_transform(g)
        assert Activation(g.ops_by_type("conv2d")[0].attrs["activation"]) is Activation.RELU6

    def test_softmax_never_fuses(self, rng):
        b = GraphBuilder((1, 4))
        h = b.dense(b.input, rng.standard_normal((4, 4)).astype(np.float32))
        h = b.softmax(h)
        g = b.finish(h)
        assert not fuse_output_transform(g)


class TestStridedChain:
    def test_strided_bconv_chain_exact(self, rng):
        """Downsampling bconv feeding a binarization still chains and
        stays exact (threshold path under stride-2 geometry)."""
        b = GraphBuilder((1, 8, 8, 8))
        h = b.binarize(b.input)
        h = b.conv2d(
            h, rng.choice([-1.0, 1.0], (3, 3, 8, 16)).astype(np.float32),
            stride=2, padding=Padding.SAME_ONE, binary_weights=True,
        )
        h = b.batch_norm(h, _bn(rng, 16))
        h = b.binarize(h)
        h = b.conv2d(
            h, rng.choice([-1.0, 1.0], (3, 3, 16, 16)).astype(np.float32),
            padding=Padding.SAME_ONE, binary_weights=True,
        )
        g = b.finish(b.global_avgpool(h))
        x = rng.standard_normal((1, 8, 8, 8)).astype(np.float32)
        before = Executor(g).run(x)
        model = convert(g)
        after = Executor(model.graph).run(x)
        np.testing.assert_allclose(after, before, rtol=1e-4, atol=1e-4)


class TestZeroPaddedChain:
    def test_zero_padded_bconv_chains_with_correction(self, rng):
        b = GraphBuilder((1, 6, 6, 8))
        h = b.binarize(b.input)
        h = b.conv2d(
            h, rng.choice([-1.0, 1.0], (3, 3, 8, 8)).astype(np.float32),
            padding=Padding.SAME_ZERO, binary_weights=True,
        )
        h = b.batch_norm(h, _bn(rng, 8))
        h = b.binarize(h)
        h = b.conv2d(
            h, rng.choice([-1.0, 1.0], (3, 3, 8, 8)).astype(np.float32),
            padding=Padding.SAME_ZERO, binary_weights=True,
        )
        g = b.finish(b.global_avgpool(h))
        x = rng.standard_normal((1, 6, 6, 8)).astype(np.float32)
        before = Executor(g).run(x)
        model = convert(g)
        first = model.graph.ops_by_type("lce_bconv2d")[0]
        assert first.attr("output_type") == "bitpacked"
        assert first.attr("padding") is Padding.SAME_ZERO
        assert "padding_correction" not in first.params
        after = Executor(model.graph).run(x)
        np.testing.assert_allclose(after, before, rtol=1e-4, atol=1e-4)


class TestExecutorLiveness:
    def test_tensor_that_is_output_and_consumed_survives(self, rng):
        b = GraphBuilder((1, 4))
        a = b.relu(b.input)
        c = b.relu(a)
        g = b.finish(a, c)  # `a` is both consumed and a graph output
        out_a, out_c = Executor(g).run(
            rng.standard_normal((1, 4)).astype(np.float32)
        )
        assert np.array_equal(out_c, np.maximum(out_a, 0))
