"""Tests for the float32 / int8 substrate convolutions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.types import Activation, Padding
from repro.graph.builder import GraphBuilder
from repro.graph.executor import Executor
from repro.kernels.conv2d import conv2d_float, conv2d_int8
from repro.kernels.depthwise import blur_kernel, depthwise_conv2d_float
from repro.kernels.quantization import (
    QuantParams,
    dequantize,
    quantize,
    quantize_weights_per_channel,
)
from repro.zoo.common import antialiased_maxpool


class TestConv2DFloat:
    def test_identity_kernel(self, rng):
        x = rng.standard_normal((1, 5, 5, 3)).astype(np.float32)
        w = np.zeros((1, 1, 3, 3), np.float32)
        for c in range(3):
            w[0, 0, c, c] = 1.0
        np.testing.assert_allclose(conv2d_float(x, w), x, rtol=1e-6)

    def test_averaging_kernel(self):
        x = np.ones((1, 4, 4, 1), np.float32)
        w = np.full((3, 3, 1, 1), 1.0 / 9.0, np.float32)
        out = conv2d_float(x, w, padding=Padding.VALID)
        np.testing.assert_allclose(out, np.ones((1, 2, 2, 1)), rtol=1e-6)

    def test_bias_and_activation(self, rng):
        x = rng.standard_normal((1, 4, 4, 2)).astype(np.float32)
        w = rng.standard_normal((3, 3, 2, 2)).astype(np.float32)
        b = np.array([100.0, -100.0], np.float32)
        out = conv2d_float(x, w, bias=b, activation=Activation.RELU)
        assert np.all(out[..., 0] > 0)
        assert np.all(out[..., 1] == 0)

    def test_stride_output_shape(self, rng):
        x = rng.standard_normal((2, 9, 9, 3)).astype(np.float32)
        w = rng.standard_normal((3, 3, 3, 4)).astype(np.float32)
        assert conv2d_float(x, w, stride=2).shape == (2, 5, 5, 4)

    def test_one_padding_differs_from_zero_padding(self, rng):
        x = rng.standard_normal((1, 4, 4, 2)).astype(np.float32)
        w = np.ones((3, 3, 2, 1), np.float32)
        zero = conv2d_float(x, w, padding=Padding.SAME_ZERO)
        one = conv2d_float(x, w, padding=Padding.SAME_ONE)
        assert not np.allclose(zero, one)  # borders differ
        np.testing.assert_allclose(zero[0, 1:-1, 1:-1], one[0, 1:-1, 1:-1], rtol=1e-5)

    @pytest.mark.parametrize("n", [1, 3, 8])
    @pytest.mark.parametrize(
        "hw,cin,cout,k,stride",
        [
            (32, 3, 16, 3, 2),  # the QuickNet stem at 32x32
            (8, 16, 32, 1, 1),  # a transition block's pointwise conv
            (2, 64, 256, 1, 1),
            (9, 5, 7, 3, 1),  # odd everything
        ],
    )
    def test_a_batch_equals_its_images_run_alone(
        self, rng, hw, cin, cout, k, stride, n
    ):
        # Float BLAS rounds differently per row count, so the kernel issues
        # one (pixels, K) @ (K, C_out) per image whatever the batch.
        x = rng.standard_normal((n, hw, hw, cin)).astype(np.float32)
        w = rng.standard_normal((k, k, cin, cout)).astype(np.float32)
        b = rng.standard_normal(cout).astype(np.float32)
        got = conv2d_float(x, w, b, stride=stride, activation=Activation.RELU)
        alone = [
            conv2d_float(x[i : i + 1], w, b, stride=stride, activation=Activation.RELU)
            for i in range(n)
        ]
        assert got.dtype == np.float32 and got.flags.c_contiguous
        assert np.array_equal(got, np.concatenate(alone))

    def test_rejects_channel_mismatch(self, rng):
        with pytest.raises(ValueError):
            conv2d_float(
                rng.standard_normal((1, 4, 4, 2)).astype(np.float32),
                rng.standard_normal((3, 3, 3, 4)).astype(np.float32),
            )


class TestConv2DInt8:
    def test_tracks_float_conv(self, rng):
        x = rng.standard_normal((1, 8, 8, 6)).astype(np.float32)
        w = rng.standard_normal((3, 3, 6, 4)).astype(np.float32)
        ref = conv2d_float(x, w)
        in_p = QuantParams.from_range(float(x.min()), float(x.max()))
        out_p = QuantParams.from_range(float(ref.min()), float(ref.max()))
        wq, scales = quantize_weights_per_channel(w)
        got = dequantize(
            conv2d_int8(quantize(x, in_p), wq, in_p, scales, out_p), out_p
        )
        rel_err = np.abs(got - ref).max() / (np.abs(ref).max() + 1e-9)
        assert rel_err < 0.05

    def test_output_is_int8(self, rng):
        x = rng.standard_normal((1, 4, 4, 2)).astype(np.float32)
        w = rng.standard_normal((3, 3, 2, 2)).astype(np.float32)
        in_p = QuantParams.from_range(-3, 3)
        wq, scales = quantize_weights_per_channel(w)
        out = conv2d_int8(quantize(x, in_p), wq, in_p, scales, QuantParams(0.1))
        assert out.dtype == np.int8

    def test_bias_applied_at_accumulator_scale(self, rng):
        x = np.zeros((1, 3, 3, 1), np.float32)
        w = np.ones((1, 1, 1, 1), np.float32)
        in_p = QuantParams.from_range(-1, 1)
        wq, scales = quantize_weights_per_channel(w)
        out_p = QuantParams(in_p.scale * scales[0])
        bias_q = np.array([7], np.int64)
        out = conv2d_int8(
            quantize(x, in_p), wq, in_p, scales, out_p, bias_q=bias_q
        )
        assert np.all(out == 7)

    def test_rejects_non_int8(self, rng):
        with pytest.raises(TypeError):
            conv2d_int8(
                np.zeros((1, 3, 3, 1), np.float32),
                np.zeros((1, 1, 1, 1), np.int8),
                QuantParams(0.1), np.ones(1), QuantParams(0.1),
            )


class TestDepthwise:
    def test_matches_grouped_dense_conv(self, rng):
        x = rng.standard_normal((1, 6, 6, 3)).astype(np.float32)
        dw = rng.standard_normal((3, 3, 3)).astype(np.float32)
        # Equivalent dense conv with block-diagonal weights.
        w = np.zeros((3, 3, 3, 3), np.float32)
        for c in range(3):
            w[:, :, c, c] = dw[:, :, c]
        np.testing.assert_allclose(
            depthwise_conv2d_float(x, dw), conv2d_float(x, w), rtol=1e-4, atol=1e-5
        )

    def test_stride(self, rng):
        x = rng.standard_normal((1, 8, 8, 4)).astype(np.float32)
        dw = rng.standard_normal((3, 3, 4)).astype(np.float32)
        assert depthwise_conv2d_float(x, dw, stride=2).shape == (1, 4, 4, 4)

    def test_rejects_channel_mismatch(self, rng):
        with pytest.raises(ValueError):
            depthwise_conv2d_float(
                rng.standard_normal((1, 4, 4, 2)).astype(np.float32),
                rng.standard_normal((3, 3, 3)).astype(np.float32),
            )


def blur_pool(x: np.ndarray) -> np.ndarray:
    """The zoo's antialiased 3x3 max pool, run on ``x`` by the Executor."""
    b = GraphBuilder(x.shape)
    out = antialiased_maxpool(b, b.input, x.shape[-1])
    return Executor(b.finish(out)).run(x)


class TestBlurPool:
    def test_blur_kernel_normalized(self):
        for size in (1, 2, 3, 5):
            k = blur_kernel(size)
            assert k.shape == (size, size)
            np.testing.assert_allclose(k.sum(), 1.0, rtol=1e-6)

    def test_blur_kernel_3_is_binomial(self):
        np.testing.assert_allclose(
            blur_kernel(3), np.outer([1, 2, 1], [1, 2, 1]) / 16.0
        )

    def test_constant_input_preserved_in_interior(self):
        x = np.full((1, 8, 8, 2), 5.0, np.float32)
        out = blur_pool(x)
        assert out.shape == (1, 4, 4, 2)
        np.testing.assert_allclose(out[0, 1:-1, 1:-1], 5.0, rtol=1e-5)

    def test_antialiasing_reduces_shift_variance(self, rng):
        """Blur pooling output varies less under a 1px input shift than a
        plain strided max pool (Zhang 2019's motivation)."""
        from repro.kernels.pool import maxpool2d

        x = rng.standard_normal((1, 17, 17, 4)).astype(np.float32)
        a, b = x[:, :16, :16], x[:, 1:, 1:]
        blur_delta = np.abs(blur_pool(a) - blur_pool(b)).mean()
        pool_delta = np.abs(maxpool2d(a, 2, 2) - maxpool2d(b, 2, 2)).mean()
        assert blur_delta < pool_delta

    def test_blur_kernel_rejects_bad_size(self):
        with pytest.raises(ValueError):
            blur_kernel(0)
