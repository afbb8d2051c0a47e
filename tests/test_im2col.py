"""Tests for repro.core.im2col: geometry and patch extraction."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bitpack import pack_bits, unpack_bits
from repro.core.im2col import (
    conv_geometry,
    effective_kernel,
    im2col_float,
    im2col_packed,
    pad_spatial,
    padded_tap_mask,
    windows,
)
from repro.core.types import Padding


class TestEffectiveKernel:
    def test_no_dilation(self):
        assert effective_kernel(3, 1) == 3

    def test_dilation(self):
        assert effective_kernel(3, 2) == 5
        assert effective_kernel(5, 3) == 13


class TestConvGeometry:
    def test_same_stride1(self):
        g = conv_geometry(8, 8, 3, 3, 1, 1, Padding.SAME_ZERO)
        assert (g.out_h, g.out_w) == (8, 8)
        assert (g.pad_top, g.pad_bottom, g.pad_left, g.pad_right) == (1, 1, 1, 1)

    def test_same_stride2(self):
        g = conv_geometry(7, 7, 3, 3, 2, 1, Padding.SAME_ONE)
        assert (g.out_h, g.out_w) == (4, 4)

    def test_valid(self):
        g = conv_geometry(8, 8, 3, 3, 1, 1, Padding.VALID)
        assert (g.out_h, g.out_w) == (6, 6)
        assert g.pad_top == g.pad_left == 0

    def test_valid_with_stride(self):
        g = conv_geometry(9, 9, 3, 3, 2, 1, Padding.VALID)
        assert (g.out_h, g.out_w) == (4, 4)

    def test_asymmetric_same_padding(self):
        # TF puts the extra pad at the bottom/right.
        g = conv_geometry(8, 8, 2, 2, 1, 1, Padding.SAME_ZERO)
        assert (g.pad_top, g.pad_bottom) == (0, 1)

    def test_valid_too_small_raises(self):
        with pytest.raises(ValueError):
            conv_geometry(2, 2, 3, 3, 1, 1, Padding.VALID)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            conv_geometry(0, 8, 3, 3, 1, 1, Padding.VALID)

    def test_dilated_same(self):
        g = conv_geometry(8, 8, 3, 3, 1, 2, Padding.SAME_ZERO)
        assert (g.out_h, g.out_w) == (8, 8)
        assert g.pad_top + g.pad_bottom == 4


ALL_ONES = 0xFFFFFFFFFFFFFFFF


class TestPadSpatial:
    """``pad_spatial`` is ``np.pad`` on the H/W axes, value- and dtype-exact."""

    @staticmethod
    def _np_pad(x, pads, value):
        top, bottom, left, right = pads
        return np.pad(
            x, ((0, 0), (top, bottom), (left, right), (0, 0)),
            constant_values=value,
        )

    @staticmethod
    def _assert_same(got, expected):
        assert got.dtype == expected.dtype
        assert got.shape == expected.shape
        # byte comparison: nan pads and negative zeros must match too
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("value", [0.0, 1.0, -np.inf, np.nan])
    @pytest.mark.parametrize("pads", [(1, 1, 1, 1), (0, 1, 0, 1), (2, 0, 0, 3)])
    def test_float32_matches_np_pad(self, rng, pads, value):
        x = rng.standard_normal((2, 5, 4, 3)).astype(np.float32)
        self._assert_same(pad_spatial(x, pads, value), self._np_pad(x, pads, value))

    @pytest.mark.parametrize("value", [0, np.uint64(ALL_ONES), ALL_ONES])
    @pytest.mark.parametrize("pads", [(1, 1, 1, 1), (0, 1, 0, 1)])
    def test_uint64_matches_np_pad(self, rng, pads, value):
        x = rng.integers(0, 1 << 63, size=(2, 5, 4, 2), dtype=np.uint64)
        self._assert_same(pad_spatial(x, pads, value), self._np_pad(x, pads, value))

    @pytest.mark.parametrize("in_size", [7, 8])
    def test_asymmetric_same_pads_at_stride_two(self, rng, in_size):
        geom = conv_geometry(in_size, in_size, 3, 3, 2, 1, Padding.SAME_ONE)
        assert geom.pads == (
            geom.pad_top, geom.pad_bottom, geom.pad_left, geom.pad_right
        )
        if in_size % 2 == 0:
            assert geom.pad_top != geom.pad_bottom  # TF puts the odd pad last
        x = rng.standard_normal((1, in_size, in_size, 2)).astype(np.float32)
        self._assert_same(
            pad_spatial(x, geom.pads, 1.0), self._np_pad(x, geom.pads, 1.0)
        )

    def test_no_pads_returns_the_input_itself(self, rng):
        x = rng.standard_normal((1, 3, 3, 1)).astype(np.float32)
        assert pad_spatial(x, (0, 0, 0, 0), 5.0) is x

    def test_input_is_not_written(self, rng):
        x = rng.standard_normal((1, 3, 3, 1)).astype(np.float32)
        x.setflags(write=False)
        padded = pad_spatial(x, (1, 0, 0, 1), 0.0)
        assert not np.shares_memory(padded, x)


def _gathered(padded, kh, kw, stride, dilation, out_h, out_w):
    """The index-gather ``(N, pixels, taps, C)`` window tensor that
    :func:`windows` replaced, kept here as the reference."""
    oy, ox = np.meshgrid(np.arange(out_h), np.arange(out_w), indexing="ij")
    ky, kx = np.meshgrid(np.arange(kh), np.arange(kw), indexing="ij")
    rows = oy.reshape(-1, 1) * stride + ky.reshape(1, -1) * dilation
    cols = ox.reshape(-1, 1) * stride + kx.reshape(1, -1) * dilation
    return padded[:, rows, cols, :]


PADDINGS = [Padding.VALID, Padding.SAME_ZERO, Padding.SAME_ONE]


class TestWindows:
    @pytest.mark.parametrize("padding", PADDINGS)
    @pytest.mark.parametrize("dilation", [1, 2])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_matches_four_loops(self, rng, stride, dilation, padding):
        n, h, w, c, kh, kw = 2, 9, 7, 3, 3, 2  # non-square input and kernel
        x = rng.standard_normal((n, h, w, c)).astype(np.float32)
        geom = conv_geometry(h, w, kh, kw, stride, dilation, padding)
        padded = pad_spatial(x, geom.pads, 1.0 if padding is Padding.SAME_ONE else 0.0)
        view = windows(padded, kh, kw, stride, dilation, geom.out_h, geom.out_w)
        assert view.shape == (n, geom.out_h, geom.out_w, kh, kw, c)
        assert not view.flags.writeable
        assert np.shares_memory(view, padded)  # a view, nothing copied
        for y in range(geom.out_h):
            for xx in range(geom.out_w):
                for ky in range(kh):
                    for kx in range(kw):
                        assert np.array_equal(
                            view[:, y, xx, ky, kx],
                            padded[:, y * stride + ky * dilation,
                                   xx * stride + kx * dilation],
                        )

    def test_follows_the_strides_of_a_sliced_input(self, rng):
        base = rng.standard_normal((1, 8, 8, 6)).astype(np.float32)
        padded = base[:, ::2, 1:, ::3]  # non-contiguous on every axis
        view = windows(padded, 2, 2, 1, 1, 3, 6)
        assert np.array_equal(
            view.reshape(1, 18, 4, 2), _gathered(padded, 2, 2, 1, 1, 3, 6)
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(out_h=7),  # one row too many for a 3-tap kernel on 8 rows
            dict(out_w=7),
            dict(stride=2, out_h=4),
            dict(dilation=4),
        ],
    )
    def test_rejects_a_tap_outside_the_input(self, kwargs):
        args = dict(kernel_h=3, kernel_w=3, stride=1, dilation=1, out_h=6, out_w=6)
        padded = np.zeros((1, 8, 8, 1), np.float32)
        windows(padded, **args)  # the largest legal reach
        with pytest.raises(ValueError, match="outside"):
            windows(padded, **{**args, **kwargs})

    def test_rejects_non_positive_parameters_and_non_nhwc(self):
        padded = np.zeros((1, 8, 8, 1), np.float32)
        for bad in (dict(stride=0), dict(dilation=-1), dict(out_h=0), dict(kernel_w=0)):
            args = dict(kernel_h=3, kernel_w=3, stride=1, dilation=1, out_h=6, out_w=6)
            with pytest.raises(ValueError, match="positive"):
                windows(padded, **{**args, **bad})
        with pytest.raises(ValueError, match="NHWC"):
            windows(padded[0], 3, 3, 1, 1, 6, 6)


class TestIm2ColEqualsTheGather:
    """Both im2cols return exactly what the index gather returned — same
    values, same dtype, C-contiguous — on the grid the GEMM tests use."""

    GRID = [
        # (shape, kh, kw, stride, dilation)
        ((2, 6, 7, 3), 3, 3, 1, 1),
        ((2, 6, 7, 3), 3, 3, 2, 1),
        ((1, 9, 9, 2), 3, 3, 1, 2),
        ((2, 8, 8, 5), 3, 3, 1, 1),
        ((2, 5, 4, 70), 1, 1, 1, 1),  # the reshape-only fast path
        ((2, 5, 4, 70), 1, 1, 2, 1),
        ((1, 7, 5, 4), 2, 3, 3, 1),
    ]

    @pytest.mark.parametrize("padding", PADDINGS)
    @pytest.mark.parametrize("shape,kh,kw,stride,dilation", GRID)
    def test_float(self, rng, shape, kh, kw, stride, dilation, padding):
        x = rng.standard_normal(shape).astype(np.float32)
        patches, geom = im2col_float(x, kh, kw, stride, dilation, padding, 1.0)
        padded = pad_spatial(x, geom.pads, 1.0)
        expected = _gathered(padded, kh, kw, stride, dilation, geom.out_h, geom.out_w)
        assert patches.dtype == np.float32 and patches.flags.c_contiguous
        assert np.array_equal(patches, expected.reshape(patches.shape))

    @pytest.mark.parametrize("padding", PADDINGS)
    @pytest.mark.parametrize("shape,kh,kw,stride,dilation", GRID)
    def test_packed(self, rng, shape, kh, kw, stride, dilation, padding):
        x = pack_bits(rng.standard_normal(shape).astype(np.float32))
        patches, geom = im2col_packed(x, kh, kw, stride, dilation, padding)
        padded = pad_spatial(x.bits, geom.pads, 0)
        expected = _gathered(padded, kh, kw, stride, dilation, geom.out_h, geom.out_w)
        assert patches.dtype == np.uint64 and patches.flags.c_contiguous
        assert np.array_equal(patches, expected.reshape(patches.shape))

    def test_float_accepts_a_non_contiguous_input(self, rng):
        x = rng.standard_normal((2, 6, 6, 8)).astype(np.float32)[..., ::2]
        for k in (1, 3):
            patches, geom = im2col_float(x, k, k, 1, 1, Padding.SAME_ZERO)
            expected = _gathered(
                pad_spatial(x, geom.pads, 0.0), k, k, 1, 1, geom.out_h, geom.out_w
            )
            assert patches.flags.c_contiguous
            assert np.array_equal(patches, expected.reshape(patches.shape))


def _brute_force_conv(x, w, stride, dilation, padding, pad_value):
    """O(everything) float convolution used as ground truth."""
    n, h, ww, cin = x.shape
    kh, kw, _, cout = w.shape
    geom = conv_geometry(h, ww, kh, kw, stride, dilation, padding)
    xp = np.pad(
        x,
        ((0, 0), (geom.pad_top, geom.pad_bottom), (geom.pad_left, geom.pad_right), (0, 0)),
        constant_values=pad_value,
    )
    out = np.zeros((n, geom.out_h, geom.out_w, cout), np.float64)
    for b in range(n):
        for oy in range(geom.out_h):
            for ox in range(geom.out_w):
                for ky in range(kh):
                    for kx in range(kw):
                        y = oy * stride + ky * dilation
                        xx = ox * stride + kx * dilation
                        out[b, oy, ox, :] += xp[b, y, xx, :] @ w[ky, kx, :, :]
    return out.astype(np.float32)


class TestIm2ColFloat:
    @pytest.mark.parametrize("padding", [Padding.SAME_ZERO, Padding.SAME_ONE, Padding.VALID])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_gemm_equals_brute_force(self, rng, padding, stride):
        x = rng.standard_normal((2, 6, 7, 3)).astype(np.float32)
        w = rng.standard_normal((3, 3, 3, 4)).astype(np.float32)
        pad_value = 1.0 if padding is Padding.SAME_ONE else 0.0
        patches, geom = im2col_float(x, 3, 3, stride, 1, padding, pad_value)
        got = (patches @ w.reshape(-1, 4)).reshape(2, geom.out_h, geom.out_w, 4)
        expected = _brute_force_conv(x, w, stride, 1, padding, pad_value)
        np.testing.assert_allclose(got, expected, rtol=1e-5, atol=1e-5)

    def test_dilation(self, rng):
        x = rng.standard_normal((1, 9, 9, 2)).astype(np.float32)
        w = rng.standard_normal((3, 3, 2, 2)).astype(np.float32)
        patches, geom = im2col_float(x, 3, 3, 1, 2, Padding.SAME_ZERO, 0.0)
        got = (patches @ w.reshape(-1, 2)).reshape(1, geom.out_h, geom.out_w, 2)
        expected = _brute_force_conv(x, w, 1, 2, Padding.SAME_ZERO, 0.0)
        np.testing.assert_allclose(got, expected, rtol=1e-5, atol=1e-5)

    def test_patch_shape(self, rng):
        x = rng.standard_normal((2, 8, 8, 5)).astype(np.float32)
        patches, geom = im2col_float(x, 3, 3, 1, 1, Padding.SAME_ZERO)
        assert patches.shape == (2 * 8 * 8, 9 * 5)

    def test_rejects_non_nhwc(self, rng):
        with pytest.raises(ValueError):
            im2col_float(rng.standard_normal((8, 8, 5)), 3, 3)


class TestIm2ColPacked:
    def test_matches_float_one_padding(self, rng):
        x = rng.choice([-1.0, 1.0], (1, 5, 5, 70)).astype(np.float32)
        packed = pack_bits(x)
        patches, geom = im2col_packed(packed, 3, 3, 1, 1, Padding.SAME_ONE)
        assert patches.shape == (25, 9 * 2)
        # Decode each tap's words and compare with the float im2col.
        fpatches, _ = im2col_float(x, 3, 3, 1, 1, Padding.SAME_ONE, 1.0)
        from repro.core.bitpack import PackedTensor

        decoded = unpack_bits(
            PackedTensor(patches.reshape(25, 9, 2).copy(), channels=70)
        )
        assert np.array_equal(decoded.reshape(25, -1), fpatches)

    def test_spatial_padding_is_plus_one(self):
        x = -np.ones((1, 2, 2, 64), np.float32)  # all -1 content
        patches, _ = im2col_packed(pack_bits(x), 3, 3, 1, 1, Padding.SAME_ONE)
        # Corner output pixel reads 5 padded taps: those words must be 0.
        corner = patches[0].reshape(9, 1)
        n_zero_words = int((corner == 0).sum())
        assert n_zero_words == 5

    def test_rejects_non_4d(self, rng):
        x = rng.standard_normal((5, 5, 64)).astype(np.float32)
        with pytest.raises(ValueError):
            im2col_packed(pack_bits(x), 3, 3)


class TestPaddedTapMask:
    def test_interior_pixels_have_no_padded_taps(self):
        geom = conv_geometry(5, 5, 3, 3, 1, 1, Padding.SAME_ZERO)
        mask = padded_tap_mask(5, 5, 3, 3, 1, 1, geom)
        interior = mask.reshape(5, 5, 9)[1:-1, 1:-1]
        assert not interior.any()

    def test_corner_pixel_padded_tap_count(self):
        geom = conv_geometry(5, 5, 3, 3, 1, 1, Padding.SAME_ZERO)
        mask = padded_tap_mask(5, 5, 3, 3, 1, 1, geom)
        # top-left output pixel: first row and first column of taps padded.
        assert mask.reshape(5, 5, 9)[0, 0].sum() == 5

    def test_valid_padding_has_no_padded_taps(self):
        geom = conv_geometry(5, 5, 3, 3, 1, 1, Padding.VALID)
        mask = padded_tap_mask(5, 5, 3, 3, 1, 1, geom)
        assert not mask.any()

    @pytest.mark.parametrize("stride,dilation", [(1, 1), (2, 1), (1, 2), (3, 2)])
    def test_marks_exactly_the_taps_outside_the_image(self, stride, dilation):
        h, w, kh, kw = 7, 6, 3, 2
        geom = conv_geometry(h, w, kh, kw, stride, dilation, Padding.SAME_ZERO)
        mask = padded_tap_mask(h, w, kh, kw, stride, dilation, geom)
        assert mask.dtype == np.bool_
        assert mask.shape == (geom.out_h * geom.out_w, kh * kw)
        for pixel, (y, x) in enumerate(np.ndindex(geom.out_h, geom.out_w)):
            for tap, (ky, kx) in enumerate(np.ndindex(kh, kw)):
                row = y * stride + ky * dilation - geom.pad_top
                col = x * stride + kx * dilation - geom.pad_left
                inside = 0 <= row < h and 0 <= col < w
                assert mask[pixel, tap] == (not inside)


class TestMemoization:
    """``conv_geometry`` is the module's one memo, and it is bounded."""

    def test_conv_geometry_cache_hits(self):
        conv_geometry.cache_clear()
        a = conv_geometry(13, 11, 3, 3, 2, 1, Padding.SAME_ONE)
        b = conv_geometry(13, 11, 3, 3, 2, 1, Padding.SAME_ONE)
        assert a is b
        info = conv_geometry.cache_info()
        assert info.misses == 1 and info.hits == 1
        assert info.maxsize is not None
