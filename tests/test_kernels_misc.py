"""Tests for pooling, batch norm, dense, and elementwise kernels."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.core.im2col import conv_geometry, pad_spatial, windows
from repro.core.types import Activation, Padding
from repro.kernels.arithmetic import add, concat, mul, relu, relu6, softmax
from repro.kernels.batchnorm import (
    BatchNormParams,
    batch_norm,
    fold_into_conv,
    fold_to_multiplier_bias,
)
from repro.kernels.conv2d import conv2d_float
from repro.kernels.dense import dense_float, dense_int8
from repro.kernels.pool import avgpool2d, global_avgpool, maxpool2d
from repro.kernels.quantization import QuantParams, quantize, quantize_weights_per_channel


class TestPooling:
    def test_maxpool_brute_force(self, rng):
        x = rng.standard_normal((1, 4, 4, 2)).astype(np.float32)
        out = maxpool2d(x, 2, 2)
        for i in range(2):
            for j in range(2):
                expected = x[0, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2].max(axis=(0, 1))
                assert np.array_equal(out[0, i, j], expected)

    @pytest.mark.parametrize("padding", [Padding.VALID, Padding.SAME_ZERO])
    def test_float32_input_is_read_only_to_the_kernels(self, rng, padding):
        # No defensive copy of an already-float32 input (astype(copy=False)
        # then a pad that may return the array itself) — so the kernels
        # must never write to what they were handed.
        from repro.kernels.depthwise import depthwise_conv2d_float

        x = rng.standard_normal((1, 5, 5, 2)).astype(np.float32)
        before = x.copy()
        x.setflags(write=False)
        w = rng.standard_normal((3, 3, 2)).astype(np.float32)
        outs = [
            maxpool2d(x, 2, 2, stride=2, padding=padding),
            avgpool2d(x, 2, 2, stride=2, padding=padding),
            depthwise_conv2d_float(x, w, padding=padding),
        ]
        assert np.array_equal(x, before)
        for out in outs:
            assert out.dtype == np.float32
            assert not np.shares_memory(out, x)

    @given(
        n=st.integers(1, 2),
        h=st.integers(1, 9),
        w=st.integers(1, 9),
        c=st.sampled_from([1, 3, 16]),
        pool_h=st.integers(1, 3),
        pool_w=st.integers(1, 3),
        stride=st.sampled_from([None, 1, 2, 3]),
        padding=st.sampled_from([Padding.VALID, Padding.SAME_ZERO]),
        specials=st.sampled_from([(), (np.nan,), (-np.inf,), (np.nan, -np.inf, np.inf)]),
        dtype=st.sampled_from([np.float32, np.float64]),
        seed=st.integers(0, 2**16),
    )
    def test_maxpool_equals_the_window_gather(
        self, n, h, w, c, pool_h, pool_w, stride, padding, specials, dtype, seed
    ):
        """The running maximum over strided slices against the maximum over
        the taps of the window view: same values (NaN and -inf included),
        same dtype, same shape, for even and odd sizes."""
        assume(padding is not Padding.VALID or (h >= pool_h and w >= pool_w))
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, h, w, c)).astype(dtype)
        for value in specials:
            x[rng.random(x.shape) < 0.2] = value
        got = maxpool2d(x, pool_h, pool_w, stride=stride, padding=padding)

        step = stride or max(pool_h, pool_w)
        geom = conv_geometry(h, w, pool_h, pool_w, step, 1, padding)
        padded = pad_spatial(x.astype(np.float32), geom.pads, -np.inf)
        expected = windows(
            padded, pool_h, pool_w, step, 1, geom.out_h, geom.out_w
        ).max(axis=(3, 4))
        assert got.dtype == expected.dtype == np.float32
        assert got.shape == expected.shape
        assert np.array_equal(got, expected, equal_nan=True)
        assert not np.shares_memory(got, x)

    def test_maxpool_same_padding_ignores_pad(self):
        x = np.full((1, 3, 3, 1), -7.0, np.float32)
        out = maxpool2d(x, 2, 2, stride=2, padding=Padding.SAME_ZERO)
        assert np.all(out == -7.0)  # -inf padding never wins

    def test_avgpool_brute_force(self, rng):
        x = rng.standard_normal((1, 4, 4, 3)).astype(np.float32)
        out = avgpool2d(x, 2, 2)
        expected = x.reshape(1, 2, 2, 2, 2, 3).mean(axis=(2, 4))
        np.testing.assert_allclose(out, expected.astype(np.float32), rtol=1e-5)

    @given(
        n=st.integers(1, 2),
        h=st.integers(1, 9),
        w=st.integers(1, 9),
        c=st.sampled_from([1, 3, 16]),
        pool_h=st.integers(1, 3),
        pool_w=st.integers(1, 3),
        stride=st.sampled_from([None, 1, 2, 3]),
        padding=st.sampled_from([Padding.VALID, Padding.SAME_ZERO]),
        specials=st.sampled_from(
            [(), (np.nan,), (np.inf,), (-np.inf,), (np.nan, -np.inf, np.inf)]
        ),
        dtype=st.sampled_from([np.float32, np.float64]),
        seed=st.integers(0, 2**16),
    )
    def test_avgpool_equals_the_window_gather(
        self, n, h, w, c, pool_h, pool_w, stride, padding, specials, dtype, seed
    ):
        """The mean over each window's input elements, gathered through the
        window view with a validity mask: a NaN or an infinity in a window
        reaches its mean (inf + -inf is NaN), padding never does.  Finite
        inputs keep the bits of the NaN-marker formula this replaced."""
        assume(padding is not Padding.VALID or (h >= pool_h and w >= pool_w))
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, h, w, c)).astype(dtype)
        for value in specials:
            x[rng.random(x.shape) < 0.2] = value
        step = stride or max(pool_h, pool_w)
        geom = conv_geometry(h, w, pool_h, pool_w, step, 1, padding)

        def gather(plane):
            return windows(plane, pool_h, pool_w, step, 1, geom.out_h, geom.out_w)

        taps = gather(pad_spatial(x.astype(np.float32), geom.pads, 0.0))
        valid = gather(pad_spatial(np.ones((1, h, w, 1), bool), geom.pads, False))
        with np.errstate(invalid="ignore"):  # inf + -inf is NaN, as it should be
            got = avgpool2d(x, pool_h, pool_w, stride=stride, padding=padding)
            total = np.where(valid, taps, 0).sum(axis=(3, 4), dtype=np.float64)
        expected = (total / valid.sum(axis=(3, 4))).astype(np.float32)
        assert got.dtype == np.float32 and got.shape == expected.shape
        np.testing.assert_allclose(got, expected, rtol=1e-5, atol=1e-6)
        assert np.array_equal(np.isnan(got), np.isnan(expected))
        if not specials:
            marked = pad_spatial(x.astype(np.float32), geom.pads, np.nan)
            old = np.nanmean(
                gather(marked).reshape(n, geom.out_h * geom.out_w, -1, c), axis=2
            ).reshape(got.shape)
            assert np.array_equal(got.view(np.uint32), old.view(np.uint32))

    def test_avgpool_keeps_a_nan(self):
        # The NaN padding marker made np.nanmean drop real NaNs: this was 1.0.
        x = np.array([1.0, np.nan, 1.0, 1.0], np.float32).reshape(1, 2, 2, 1)
        assert np.isnan(avgpool2d(x, 2, 2)).all()
        x[0, 0, 1, 0] = np.inf
        assert avgpool2d(x, 2, 2).ravel().tolist() == [np.inf]

    def test_avgpool_same_counts_valid_only(self):
        # TF semantics: the average at the border divides by the number of
        # valid elements, not the window size.
        x = np.ones((1, 3, 3, 1), np.float32)
        out = avgpool2d(x, 2, 2, stride=2, padding=Padding.SAME_ZERO)
        np.testing.assert_allclose(out, 1.0)

    def test_global_avgpool(self, rng):
        # The non-square map tells a divisor of H * W from W * W or H * H.
        for shape in [(2, 5, 5, 3), (2, 5, 3, 3)]:
            x = rng.standard_normal(shape).astype(np.float32)
            np.testing.assert_allclose(
                global_avgpool(x), x.mean(axis=(1, 2)), rtol=1e-6
            )

    def test_pool_rejects_non_4d(self, rng):
        with pytest.raises(ValueError):
            maxpool2d(rng.standard_normal((4, 4, 2)), 2, 2)
        with pytest.raises(ValueError):
            avgpool2d(rng.standard_normal((4, 4, 2)), 2, 2)
        with pytest.raises(ValueError):
            global_avgpool(rng.standard_normal((4, 4)))


class TestBatchNorm:
    def _bn(self, rng, c):
        return BatchNormParams(
            gamma=rng.uniform(0.5, 1.5, c).astype(np.float32),
            beta=rng.standard_normal(c).astype(np.float32),
            mean=rng.standard_normal(c).astype(np.float32),
            variance=rng.uniform(0.1, 2.0, c).astype(np.float32),
        )

    def test_matches_definition(self, rng):
        bn = self._bn(rng, 4)
        x = rng.standard_normal((2, 3, 3, 4)).astype(np.float32)
        expected = bn.gamma * (x - bn.mean) / np.sqrt(bn.variance + bn.epsilon) + bn.beta
        np.testing.assert_allclose(batch_norm(x, bn), expected, rtol=1e-4, atol=1e-5)

    def test_identity_params(self, rng):
        x = rng.standard_normal((1, 2, 2, 3)).astype(np.float32)
        out = batch_norm(x, BatchNormParams.identity(3))
        np.testing.assert_allclose(out, x, rtol=1e-3, atol=1e-4)

    def test_fold_to_multiplier_bias(self, rng):
        bn = self._bn(rng, 5)
        x = rng.standard_normal((3, 5)).astype(np.float32)
        m, b = fold_to_multiplier_bias(bn)
        np.testing.assert_allclose(x * m + b, batch_norm(x, bn), rtol=1e-5, atol=1e-6)

    def test_fold_into_conv_equivalence(self, rng):
        bn = self._bn(rng, 4)
        x = rng.standard_normal((1, 6, 6, 3)).astype(np.float32)
        w = rng.standard_normal((3, 3, 3, 4)).astype(np.float32)
        bias = rng.standard_normal(4).astype(np.float32)
        expected = batch_norm(conv2d_float(x, w, bias), bn)
        fw, fb = fold_into_conv(w, bias, bn)
        np.testing.assert_allclose(
            conv2d_float(x, fw, fb), expected, rtol=1e-3, atol=1e-4
        )

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            BatchNormParams(
                gamma=np.ones(3), beta=np.ones(4), mean=np.zeros(3), variance=np.ones(3)
            )

    def test_rejects_negative_variance(self):
        with pytest.raises(ValueError):
            BatchNormParams(
                gamma=np.ones(2), beta=np.zeros(2), mean=np.zeros(2),
                variance=np.array([1.0, -0.1]),
            )


class TestDense:
    def test_matmul(self, rng):
        x = rng.standard_normal((4, 6)).astype(np.float32)
        w = rng.standard_normal((6, 3)).astype(np.float32)
        b = rng.standard_normal(3).astype(np.float32)
        np.testing.assert_allclose(dense_float(x, w, b), x @ w + b, rtol=1e-5)

    def test_activation(self, rng):
        x = rng.standard_normal((4, 6)).astype(np.float32)
        w = rng.standard_normal((6, 3)).astype(np.float32)
        out = dense_float(x, w, activation=Activation.RELU)
        assert np.all(out >= 0)

    def test_rejects_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            dense_float(rng.standard_normal((4, 5)), rng.standard_normal((6, 3)))

    @pytest.mark.parametrize("n", [1, 3, 8])
    @pytest.mark.parametrize("features,classes", [(512, 1000), (16, 5)])
    def test_a_batch_equals_its_rows_run_alone(self, rng, features, classes, n):
        # One (1, in) @ (in, out) product per row: a single GEMM over all
        # rows rounds a row differently depending on what it is batched with.
        x = rng.standard_normal((n, features)).astype(np.float32)
        w = rng.standard_normal((features, classes)).astype(np.float32)
        b = rng.standard_normal(classes).astype(np.float32)
        got = dense_float(x, w, b)
        alone = [dense_float(x[i : i + 1], w, b) for i in range(n)]
        assert got.dtype == np.float32 and got.shape == (n, classes)
        assert np.array_equal(got, np.concatenate(alone))
        assert np.array_equal(dense_float(x[0], w, b), got[0])  # 1-D input

    def test_int8_tracks_float(self, rng):
        x = rng.standard_normal((8, 32)).astype(np.float32)
        w = rng.standard_normal((32, 10)).astype(np.float32)
        ref = dense_float(x, w)
        in_p = QuantParams.from_range(float(x.min()), float(x.max()))
        out_p = QuantParams.from_range(float(ref.min()), float(ref.max()))
        wq, scales = quantize_weights_per_channel(w)
        from repro.kernels.quantization import dequantize

        got = dequantize(dense_int8(quantize(x, in_p), wq, in_p, scales, out_p), out_p)
        rel = np.abs(got - ref).max() / np.abs(ref).max()
        assert rel < 0.05

    def test_int8_rejects_float(self, rng):
        with pytest.raises(TypeError):
            dense_int8(
                rng.standard_normal((2, 4)).astype(np.float32),
                np.zeros((4, 2), np.int8),
                QuantParams(0.1), np.ones(2), QuantParams(0.1),
            )


class TestArithmetic:
    def test_add_mul(self, rng):
        a = rng.standard_normal((2, 3)).astype(np.float32)
        b = rng.standard_normal((2, 3)).astype(np.float32)
        np.testing.assert_allclose(add(a, b), a + b)
        np.testing.assert_allclose(mul(a, b), a * b)

    def test_relu_family(self):
        x = np.array([-2.0, 0.0, 3.0, 10.0], np.float32)
        assert np.array_equal(relu(x), [0, 0, 3, 10])
        assert np.array_equal(relu6(x), [0, 0, 3, 6])

    def test_softmax_properties(self, rng):
        x = rng.standard_normal((4, 7)).astype(np.float32) * 10
        p = softmax(x)
        np.testing.assert_allclose(p.sum(axis=-1), 1.0, rtol=1e-5)
        assert np.all(p >= 0)

    def test_softmax_stability(self):
        x = np.array([[1000.0, 1000.0]], np.float32)
        p = softmax(x)
        np.testing.assert_allclose(p, [[0.5, 0.5]])

    def test_concat(self, rng):
        a = rng.standard_normal((1, 2, 2, 3)).astype(np.float32)
        b = rng.standard_normal((1, 2, 2, 5)).astype(np.float32)
        assert concat([a, b]).shape == (1, 2, 2, 8)

    def test_concat_rejects_empty(self):
        with pytest.raises(ValueError):
            concat([])
