"""Tests for per-op shape/dtype inference."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.types import Padding
from repro.graph.ir import GraphError, TensorSpec
from repro.kernels.batchnorm import BatchNormParams
from repro.ops import infer_output_specs
from repro.ops.registry import op_names


def _infer(op, specs, attrs=None, params=None):
    return infer_output_specs(op, specs, attrs or {}, params or {})


class TestElementwise:
    def test_same_shape_ops(self):
        spec = TensorSpec((1, 4, 4, 8))
        for op in ("relu", "relu6", "softmax", "sigmoid", "binarize", "identity"):
            assert _infer(op, [spec]) == [spec]

    def test_add_same_shapes(self):
        spec = TensorSpec((1, 4, 4, 8))
        assert _infer("add", [spec, spec])[0].shape == (1, 4, 4, 8)

    def test_mul_broadcast(self):
        a = TensorSpec((1, 4, 4, 8))
        b = TensorSpec((1, 1, 1, 8))
        assert _infer("mul", [a, b])[0].shape == (1, 4, 4, 8)

    def test_add_incompatible_rejected(self):
        with pytest.raises(GraphError):
            _infer("add", [TensorSpec((1, 4)), TensorSpec((1, 3))])

    def test_add_wrong_arity(self):
        with pytest.raises(GraphError):
            _infer("add", [TensorSpec((1, 4))])

    def test_batch_norm_channel_check(self):
        spec = TensorSpec((1, 4, 4, 8))
        assert _infer("batch_norm", [spec], params={"bn": BatchNormParams.identity(8)})
        with pytest.raises(GraphError):
            _infer("batch_norm", [spec], params={"bn": BatchNormParams.identity(4)})


class TestShapeOps:
    def test_concat(self):
        a = TensorSpec((1, 2, 2, 3))
        b = TensorSpec((1, 2, 2, 5))
        assert _infer("concat", [a, b], {"axis": -1})[0].shape == (1, 2, 2, 8)

    def test_concat_mismatch(self):
        with pytest.raises(GraphError):
            _infer("concat", [TensorSpec((1, 2, 2, 3)), TensorSpec((1, 3, 2, 5))])

    def test_reshape(self):
        assert _infer("reshape", [TensorSpec((1, 4, 4, 2))], {"shape": (1, 32)})[
            0
        ].shape == (1, 32)

    def test_reshape_element_count_check(self):
        with pytest.raises(GraphError):
            _infer("reshape", [TensorSpec((1, 4))], {"shape": (1, 5)})


class TestConvOps:
    def test_conv2d(self):
        spec = TensorSpec((2, 8, 8, 3))
        w = np.zeros((3, 3, 3, 16), np.float32)
        out = _infer(
            "conv2d", [spec], {"stride": 2, "padding": Padding.SAME_ZERO},
            {"weights": w},
        )
        assert out[0].shape == (2, 4, 4, 16)

    def test_conv2d_channel_mismatch(self):
        with pytest.raises(GraphError):
            _infer(
                "conv2d", [TensorSpec((1, 8, 8, 4))], {},
                {"weights": np.zeros((3, 3, 3, 16), np.float32)},
            )

    def test_depthwise(self):
        out = _infer(
            "depthwise_conv2d", [TensorSpec((1, 8, 8, 4))], {"stride": 2},
            {"weights": np.zeros((3, 3, 4), np.float32)},
        )
        assert out[0].shape == (1, 4, 4, 4)

    def test_dense(self):
        out = _infer(
            "dense", [TensorSpec((2, 16))], {}, {"weights": np.zeros((16, 10))}
        )
        assert out[0].shape == (2, 10)

    def test_conv_rejects_non_nhwc(self):
        with pytest.raises(GraphError):
            _infer("conv2d", [TensorSpec((8, 8, 3))], {}, {"weights": np.zeros((3, 3, 3, 4))})


class TestPoolOps:
    def test_maxpool_default_stride(self):
        out = _infer("maxpool2d", [TensorSpec((1, 8, 8, 4))], {"pool_h": 2, "pool_w": 2, "stride": None})
        assert out[0].shape == (1, 4, 4, 4)

    def test_global_avgpool(self):
        out = _infer("global_avgpool", [TensorSpec((2, 7, 7, 512))])
        assert out[0].shape == (2, 512)


class TestLceOps:
    def test_quantize_dtype_flip(self):
        out = _infer("lce_quantize", [TensorSpec((1, 4, 4, 64))])
        assert out[0].dtype == "bitpacked"
        with pytest.raises(GraphError):
            _infer("lce_quantize", [TensorSpec((1, 4, 4, 64), "bitpacked")])

    def test_dequantize(self):
        out = _infer("lce_dequantize", [TensorSpec((1, 4, 4, 64), "bitpacked")])
        assert out[0].dtype == "float32"
        with pytest.raises(GraphError):
            _infer("lce_dequantize", [TensorSpec((1, 4, 4, 64))])

    def _bconv_attrs(self, output_type="float"):
        return {
            "kernel_h": 3, "kernel_w": 3, "in_channels": 64, "out_channels": 128,
            "stride": 1, "padding": Padding.SAME_ONE, "output_type": output_type,
        }

    def test_bconv_float_output(self):
        out = _infer(
            "lce_bconv2d", [TensorSpec((1, 8, 8, 64), "bitpacked")],
            self._bconv_attrs(),
        )
        assert out[0] == TensorSpec((1, 8, 8, 128), "float32")

    def test_bconv_bitpacked_output(self):
        out = _infer(
            "lce_bconv2d", [TensorSpec((1, 8, 8, 64), "bitpacked")],
            self._bconv_attrs("bitpacked"),
        )
        assert out[0].dtype == "bitpacked"

    def test_bconv_rejects_float_input(self):
        with pytest.raises(GraphError):
            _infer("lce_bconv2d", [TensorSpec((1, 8, 8, 64))], self._bconv_attrs())

    def test_bconv_channel_mismatch(self):
        with pytest.raises(GraphError):
            _infer(
                "lce_bconv2d", [TensorSpec((1, 8, 8, 32), "bitpacked")],
                self._bconv_attrs(),
            )

    def test_bmaxpool_requires_bitpacked(self):
        out = _infer(
            "lce_bmaxpool2d", [TensorSpec((1, 8, 8, 64), "bitpacked")],
            {"pool_h": 2, "pool_w": 2, "stride": None},
        )
        assert out[0].dtype == "bitpacked"
        with pytest.raises(GraphError):
            _infer("lce_bmaxpool2d", [TensorSpec((1, 8, 8, 64))], {"pool_h": 2, "pool_w": 2})


class TestRegistry:
    def test_unknown_op_rejected(self):
        with pytest.raises(GraphError):
            _infer("warp_drive", [TensorSpec((1,))])

    def test_supported_ops_nonempty_and_sorted(self):
        ops = op_names()
        assert "lce_bconv2d" in ops
        assert list(ops) == sorted(ops)
