"""Tests for the graph builder and executor."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.types import Padding
from repro.graph.builder import GraphBuilder
from repro.graph.executor import Executor
from repro.graph.ir import GraphError, TensorSpec
from repro.kernels.batchnorm import BatchNormParams


class TestBuilder:
    def test_builds_verified_graph(self, rng):
        b = GraphBuilder((1, 8, 8, 3))
        x = b.conv2d(b.input, rng.standard_normal((3, 3, 3, 8)).astype(np.float32))
        x = b.relu(x)
        g = b.finish(x)
        g.verify()
        assert len(g) == 2

    def test_spec_tracking(self, rng):
        b = GraphBuilder((1, 8, 8, 3))
        x = b.conv2d(
            b.input, rng.standard_normal((3, 3, 3, 8)).astype(np.float32), stride=2
        )
        assert b.spec(x).shape == (1, 4, 4, 8)

    def test_shape_errors_surface_at_build_time(self, rng):
        b = GraphBuilder((1, 8, 8, 3))
        with pytest.raises(GraphError):
            b.conv2d(b.input, rng.standard_normal((3, 3, 5, 8)).astype(np.float32))

    def test_all_builder_methods(self, rng):
        """One graph touching every builder op."""
        b = GraphBuilder((1, 8, 8, 4))
        w = rng.standard_normal((3, 3, 4, 4)).astype(np.float32)
        x = b.conv2d(b.input, w)
        x = b.batch_norm(x, BatchNormParams.identity(4))
        x = b.relu6(x)
        y = b.binarize(x)
        y = b.conv2d(y, w, binary_weights=True, padding=Padding.SAME_ONE)
        x = b.add(x, y)
        x = b.mul(x, x)
        x = b.sigmoid(x)
        d = b.depthwise_conv2d(x, rng.standard_normal((3, 3, 4)).astype(np.float32))
        p = b.maxpool2d(d, 2, 2)
        q = b.avgpool2d(p, 2, 2)
        c = b.concat([q, q])
        r = b.reshape(c, (1, 2 * 2 * 8))
        g = b.global_avgpool(p)
        out = b.dense(g, rng.standard_normal((4, 10)).astype(np.float32))
        out = b.softmax(out)
        graph = b.finish(out, r)
        graph.verify()
        assert len(graph.outputs) == 2


class TestExecutor:
    def _toy(self, rng):
        b = GraphBuilder((1, 6, 6, 3))
        w = rng.standard_normal((3, 3, 3, 4)).astype(np.float32)
        x = b.conv2d(b.input, w)
        x = b.relu(x)
        x = b.global_avgpool(x)
        return b.finish(x), w

    def test_runs(self, rng):
        g, w = self._toy(rng)
        x = rng.standard_normal((1, 6, 6, 3)).astype(np.float32)
        out = Executor(g).run(x)
        from repro.kernels import conv2d_float, global_avgpool, relu

        expected = global_avgpool(relu(conv2d_float(x, w)))
        np.testing.assert_allclose(out, expected, rtol=1e-5)

    def test_wrong_input_count(self, rng):
        g, _ = self._toy(rng)
        with pytest.raises(ValueError):
            Executor(g).run()

    def test_wrong_input_shape(self, rng):
        g, _ = self._toy(rng)
        with pytest.raises(GraphError):
            Executor(g).run(np.zeros((1, 5, 5, 3), np.float32))

    def test_record_values(self, rng):
        g, _ = self._toy(rng)
        ex = Executor(g, record_values=True)
        ex.run(rng.standard_normal((1, 6, 6, 3)).astype(np.float32))
        # input + all three intermediates retained
        assert len(ex.values) == 4

    def test_multiple_outputs(self, rng):
        b = GraphBuilder((1, 4))
        w = rng.standard_normal((4, 4)).astype(np.float32)
        a = b.dense(b.input, w)
        c = b.relu(a)
        g = b.finish(a, c)
        out_a, out_c = Executor(g).run(rng.standard_normal((1, 4)).astype(np.float32))
        np.testing.assert_allclose(np.maximum(out_a, 0), out_c)

    def test_unknown_op_rejected(self, rng):
        from repro.graph.ir import Graph

        g = Graph()
        g.add_input("x", TensorSpec((1, 4)))
        n = g.add_node("warp_drive", ["x"], [TensorSpec((1, 4))])
        g.outputs = [n.outputs[0]]
        with pytest.raises(GraphError, match="no kernel"):
            Executor(g).run(np.zeros((1, 4), np.float32))

    def test_list_input_is_converted_before_kernels(self, rng):
        """Regression: a Python-list input must reach kernels as an ndarray.

        The executor used to validate ``np.asarray(value)`` but then store
        the raw list, so the first kernel call crashed on a missing ndarray
        attribute even though the spec check had passed.
        """
        g, _ = self._toy(rng)
        x = rng.standard_normal((1, 6, 6, 3)).astype(np.float32)
        from_list = Executor(g).run(x.tolist())
        from_array = Executor(g).run(x)
        assert np.array_equal(from_list, from_array)
        assert from_list.dtype == from_array.dtype

    def test_sigmoid_saturates_without_overflow_warning(self):
        """exp(-x) overflows for x << 0; the kernel returns the limit 0
        quietly and keeps float32."""
        import warnings

        b = GraphBuilder((3,))
        g = b.finish(b.sigmoid(b.input))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = Executor(g).run(np.array([-1000.0, 0.0, 1000.0], np.float32))
        assert out.dtype == np.float32
        assert np.array_equal(out, np.array([0.0, 0.5, 1.0], np.float32))

    def test_binarized_conv_training_emulation(self, rng):
        """conv2d(binary_weights=True) binarizes its latent weights."""
        b = GraphBuilder((1, 4, 4, 8))
        w = rng.standard_normal((3, 3, 8, 4)).astype(np.float32)
        x = b.binarize(b.input)
        x = b.conv2d(x, w, binary_weights=True, padding=Padding.SAME_ONE)
        g = b.finish(x)
        inp = rng.standard_normal((1, 4, 4, 8)).astype(np.float32)
        out = Executor(g).run(inp)
        from repro.core.bconv2d import BConv2DParams, bconv2d, pack_filters
        from repro.core.bitpack import pack_bits

        expected = bconv2d(
            pack_bits(inp), pack_filters(w),
            BConv2DParams(3, 3, 8, 4, padding=Padding.SAME_ONE),
        )
        assert np.array_equal(out, expected)
