"""Tests for LceBConv2d: the optimized path against the float emulation.

``bconv2d`` is the reference: the exact +/-1 float convolution.  It is
pinned here to a sign emulation written out tap by tap, and every
:class:`BoundBConv2D` (what plans run) must equal it bit for bit.
"""

from __future__ import annotations

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.bconv2d import (
    BConv2DParams,
    BoundBConv2D,
    PackedFilters,
    bconv2d,
    pack_filters,
    reserve_bconv2d_workspace,
    unpack_filters,
    zero_padding_correction,
)
from repro.core.bitpack import PackedTensor, pack_bits
from repro.core.im2col import conv_geometry
from repro.core.output_transform import (
    accumulators_to_float,
    compute_output_thresholds,
)
from repro.core.quantize_ops import lce_quantize
from repro.core.types import Activation, OutputType, Padding
from repro.core.workspace import Workspace


def _case(rng, h=7, w=7, cin=37, cout=5, k=3, batch=2):
    x = rng.standard_normal((batch, h, w, cin)).astype(np.float32)
    weights = rng.choice([-1.0, 1.0], (k, k, cin, cout)).astype(np.float32)
    return x, weights


def _emulated(x, w, p):
    """The training-time emulation written out: signs to +/-1, pad with
    0.0 (SAME_ZERO) or +1.0, and sum every tap's float64 product."""
    signs_x, signs_w = np.where(x < 0, -1.0, 1.0), np.where(w < 0, -1.0, 1.0)
    n, h, ww, _ = x.shape
    geom = conv_geometry(h, ww, p.kernel_h, p.kernel_w, p.stride, p.dilation, p.padding)
    padded = np.pad(
        signs_x,
        ((0, 0), (geom.pad_top, geom.pad_bottom), (geom.pad_left, geom.pad_right), (0, 0)),
        constant_values=0.0 if p.padding is Padding.SAME_ZERO else 1.0,
    )
    rows, cols = (geom.out_h - 1) * p.stride + 1, (geom.out_w - 1) * p.stride + 1
    acc = np.zeros((n, geom.out_h, geom.out_w, p.out_channels))
    for ky, kx in itertools.product(range(p.kernel_h), range(p.kernel_w)):
        y, x0 = ky * p.dilation, kx * p.dilation
        tap = padded[:, y : y + rows : p.stride, x0 : x0 + cols : p.stride]
        acc += tap @ signs_w[ky, kx]
    return accumulators_to_float(acc.astype(np.int32), p.out_channels)


def _bound(x, w, p, **kw):
    """What a plan runs: a :class:`BoundBConv2D` over float ``x`` (quantize
    fused), with the converter's zero-padding correction when ``p`` needs
    one."""
    n, h, ww, _ = x.shape
    if p.padding is Padding.SAME_ZERO:
        kw["padding_correction"] = zero_padding_correction(w, p, h, ww)
    kernel = BoundBConv2D(pack_filters(w), p, h, ww, n, quantize=True, **kw)
    return kernel.bind(Workspace())(x)


def _check(x, w, p):
    """The reference equals the emulation, and the bound kernel equals the
    reference."""
    expected = bconv2d(lce_quantize(x), pack_filters(w), p)
    assert expected.dtype == np.float32
    assert np.array_equal(expected, _emulated(x, w, p))
    assert np.array_equal(_bound(x, w, p), expected)


class TestAgainstReference:
    @pytest.mark.parametrize(
        "padding", [Padding.SAME_ONE, Padding.SAME_ZERO, Padding.VALID]
    )
    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_padding_and_stride(self, rng, padding, stride):
        x, w = _case(rng)
        _check(x, w, BConv2DParams(3, 3, 37, 5, stride=stride, padding=padding))

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_kernel_sizes(self, rng, k):
        x, w = _case(rng, h=9, w=9, k=k)
        _check(x, w, BConv2DParams(k, k, 37, 5))

    def test_dilation(self, rng):
        x, w = _case(rng, h=11, w=11)
        _check(x, w, BConv2DParams(3, 3, 37, 5, dilation=2))

    @given(
        cin=st.integers(1, 130),
        cout=st.integers(1, 9),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_arbitrary_channel_counts(self, cin, cout, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((1, 4, 4, cin)).astype(np.float32)
        w = rng.choice([-1.0, 1.0], (3, 3, cin, cout)).astype(np.float32)
        _check(x, w, BConv2DParams(3, 3, cin, cout))

    def test_non_square_kernel(self, rng):
        x = rng.standard_normal((1, 8, 8, 33)).astype(np.float32)
        w = rng.choice([-1.0, 1.0], (1, 3, 33, 4)).astype(np.float32)
        _check(x, w, BConv2DParams(1, 3, 33, 4))

    def test_non_binary_latent_weights_use_signs(self, rng):
        x = rng.standard_normal((1, 5, 5, 16)).astype(np.float32)
        w = rng.standard_normal((3, 3, 16, 3)).astype(np.float32)  # latent floats
        _check(x, w, BConv2DParams(3, 3, 16, 3))

    def test_depth_of_2_to_the_24_is_refused_before_allocating(self):
        """float32 holds every integer up to 2**24: at that depth an
        accumulator need not be exact, so the reference refuses the call
        before it decodes anything."""
        cin = 2**20  # 4 x 4 taps: depth 2**24
        p = BConv2DParams(4, 4, cin, 1, padding=Padding.VALID)
        x = PackedTensor(np.zeros((1, 4, 4, cin // 64), np.uint64), channels=cin)
        filters = PackedFilters(
            np.zeros((1, 16 * cin // 64), np.uint64), 4, 4, in_channels=cin
        )
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"2\*\*24"):
                bconv2d(x, filters, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16  # the signs alone would be 1 MiB


class TestFusedTransform:
    @pytest.mark.parametrize("order", [True, False])
    @pytest.mark.parametrize("activation", list(Activation))
    def test_multiplier_bias_activation(self, rng, order, activation):
        x, w = _case(rng)
        p = BConv2DParams(3, 3, 37, 5)
        mult = rng.uniform(-1.5, 1.5, 5).astype(np.float32)
        bias = rng.standard_normal(5).astype(np.float32)
        fused = dict(
            multiplier=mult, bias=bias, activation=activation,
            scale_before_activation=order,
        )
        expected = bconv2d(lce_quantize(x), pack_filters(w), p, **fused)
        assert np.array_equal(_bound(x, w, p, **fused), expected)


class TestBitpackedOutput:
    @pytest.mark.parametrize("padding", [Padding.SAME_ONE, Padding.SAME_ZERO])
    def test_threshold_path_equals_quantized_float_path(self, rng, padding):
        x, w = _case(rng, cout=9)
        p = BConv2DParams(3, 3, 37, 9, padding=padding)
        mult = rng.uniform(-2, 2, 9).astype(np.float32)
        bias = rng.standard_normal(9).astype(np.float32)
        float_out = bconv2d(
            lce_quantize(x), pack_filters(w), p, multiplier=mult, bias=bias,
            activation=Activation.RELU, scale_before_activation=False,
        )
        thresholds = compute_output_thresholds(
            p.depth, 9, mult, bias, Activation.RELU, scale_before_activation=False
        )
        packed = bconv2d(
            lce_quantize(x), pack_filters(w), p,
            output_type=OutputType.BITPACKED, thresholds=thresholds,
        )
        assert np.array_equal(packed.bits, pack_bits(float_out).bits)

    def test_requires_thresholds(self, rng):
        x, w = _case(rng)
        p = BConv2DParams(3, 3, 37, 5)
        with pytest.raises(ValueError, match="thresholds"):
            bconv2d(
                lce_quantize(x), pack_filters(w), p,
                output_type=OutputType.BITPACKED,
            )


class TestPackFilters:
    """``pack_filters`` packs HWIO signs in place of the transpose-then-pack
    formula it replaced; that formula stays the oracle."""

    @staticmethod
    def _oracle(w):
        kh, kw, _, cout = w.shape
        per_tap = pack_bits(np.transpose(w, (3, 0, 1, 2))).bits
        return per_tap.reshape(cout, kh * kw * per_tap.shape[-1])

    @pytest.mark.parametrize("k", [1, 3, 5, 11])
    @pytest.mark.parametrize("cin", [3, 32, 33, 64, 65, 100, 512])
    def test_equals_transposed_pack_bits(self, rng, cin, k):
        w = rng.standard_normal((k, k, cin, 6)).astype(np.float32)
        w[0, 0, 0, 0] = 0.0  # zero packs as +1, like every other sign
        got = pack_filters(w)
        want = self._oracle(w)
        assert got.bits.dtype == want.dtype == np.uint64
        assert got.bits.flags.c_contiguous
        assert np.array_equal(got.bits, want)
        assert (got.kernel_h, got.kernel_w, got.in_channels) == (k, k, cin)

    @pytest.mark.parametrize("cin", [3, 65, 512])
    def test_unpack_round_trips_to_signs(self, rng, cin):
        w = rng.standard_normal((3, 3, cin, 5)).astype(np.float32)
        back = unpack_filters(pack_filters(w))
        assert np.array_equal(back, np.where(w < 0, -1.0, 1.0))


class TestZeroPaddingCorrection:
    def test_correction_shape(self, rng):
        _, w = _case(rng)
        p = BConv2DParams(3, 3, 37, 5, padding=Padding.SAME_ZERO)
        corr = zero_padding_correction(w, p, 7, 7)
        assert corr.shape == (49, 5)
        assert corr.dtype == np.int32

    def test_interior_correction_is_zero(self, rng):
        _, w = _case(rng)
        p = BConv2DParams(3, 3, 37, 5, padding=Padding.SAME_ZERO)
        corr = zero_padding_correction(w, p, 7, 7).reshape(7, 7, 5)
        assert np.all(corr[1:-1, 1:-1] == 0)

    def test_missing_correction_raises(self, rng):
        """The bound kernel needs the correction; the reference pads with
        0.0 and takes none."""
        _, w = _case(rng)
        p = BConv2DParams(3, 3, 37, 5, padding=Padding.SAME_ZERO)
        with pytest.raises(ValueError, match="padding_correction"):
            BoundBConv2D(pack_filters(w), p, 7, 7, 2)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_correction_is_one_minus_zero_padding(self, rng, stride):
        """Checked against the reference, not shared with it: one-padded
        accumulators minus the correction are the zero-padded ones."""
        x, w = _case(rng)
        one = BConv2DParams(3, 3, 37, 5, stride=stride, padding=Padding.SAME_ONE)
        zero = BConv2DParams(3, 3, 37, 5, stride=stride, padding=Padding.SAME_ZERO)
        corr = zero_padding_correction(w, zero, 7, 7)
        one_padded = bconv2d(lce_quantize(x), pack_filters(w), one)
        zero_padded = bconv2d(lce_quantize(x), pack_filters(w), zero)
        assert np.array_equal(one_padded - corr.reshape(zero_padded.shape[1:]), zero_padded)


class TestValidation:
    def test_rejects_channel_mismatch(self, rng):
        x, w = _case(rng)
        p = BConv2DParams(3, 3, 40, 5)
        with pytest.raises(ValueError, match="channels"):
            bconv2d(lce_quantize(x), pack_filters(w), p)

    def test_rejects_filter_count_mismatch(self, rng):
        x, w = _case(rng)
        p = BConv2DParams(3, 3, 37, 7)
        with pytest.raises(ValueError, match="output channels"):
            bconv2d(lce_quantize(x), pack_filters(w), p)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            BConv2DParams(0, 3, 4, 4)
        with pytest.raises(ValueError):
            BConv2DParams(3, 3, 4, 4, stride=0)

    def test_pack_filters_rejects_non_hwio(self, rng):
        with pytest.raises(ValueError):
            pack_filters(rng.standard_normal((3, 3, 4)))

    def test_params_properties(self):
        p = BConv2DParams(3, 5, 64, 128)
        assert p.depth == 3 * 5 * 64
        assert p.macs_per_pixel == 3 * 5 * 64 * 128


class TestBatching:
    @pytest.mark.parametrize("batch", [1, 2, 5])
    def test_batched_equals_per_sample(self, rng, batch):
        x, w = _case(rng, batch=batch)
        p = BConv2DParams(3, 3, 37, 5)
        batched = bconv2d(lce_quantize(x), pack_filters(w), p)
        for i in range(batch):
            single = bconv2d(lce_quantize(x[i : i + 1]), pack_filters(w), p)
            assert np.array_equal(batched[i : i + 1], single)


class TestGroups:
    @pytest.mark.parametrize("groups", [2, 4])
    def test_grouped_matches_reference(self, rng, groups):
        """Each group's output channels are the sign emulation of that
        group's input channels and filters."""
        cin, cout = 16 * groups, 4 * groups
        cin_g, cout_g = cin // groups, cout // groups
        x = rng.standard_normal((1, 6, 6, cin)).astype(np.float32)
        w = rng.choice([-1.0, 1.0], (3, 3, cin_g, cout)).astype(np.float32)
        p = BConv2DParams(3, 3, cin, cout, groups=groups)
        got = bconv2d(lce_quantize(x), pack_filters(w), p)
        pg = BConv2DParams(3, 3, cin_g, cout_g)
        for g in range(groups):
            want = _emulated(
                x[..., g * cin_g : (g + 1) * cin_g],
                w[..., g * cout_g : (g + 1) * cout_g], pg,
            )
            assert np.array_equal(got[..., g * cout_g : (g + 1) * cout_g], want)

    def test_groups_must_divide_channels(self):
        with pytest.raises(ValueError, match="groups"):
            BConv2DParams(3, 3, 10, 8, groups=3)

    def test_depth_reflects_groups(self):
        p = BConv2DParams(3, 3, 64, 64, groups=4)
        assert p.depth == 9 * 16

    def test_unpack_filters_roundtrip(self, rng):
        w = rng.choice([-1.0, 1.0], (3, 3, 40, 8)).astype(np.float32)
        assert np.array_equal(unpack_filters(pack_filters(w)), w)

    @pytest.mark.parametrize("cin_g", [64, 20], ids=["word-aligned", "unaligned"])
    def test_group_branches_match_independent_convs(self, rng, cin_g):
        """A grouped call equals running each group as an independent
        ungrouped conv, whether a group's channels fill whole words or
        not."""
        groups, cout = 2, 10
        cin, cout_g = cin_g * groups, cout // groups
        x = rng.standard_normal((2, 5, 5, cin)).astype(np.float32)
        w = rng.choice([-1.0, 1.0], (3, 3, cin_g, cout)).astype(np.float32)
        p = BConv2DParams(3, 3, cin, cout, groups=groups)
        got = bconv2d(lce_quantize(x), pack_filters(w), p)
        for g in range(groups):
            pg = BConv2DParams(3, 3, cin_g, cout_g)
            xg = x[..., g * cin_g : (g + 1) * cin_g]
            wg = np.ascontiguousarray(w[..., g * cout_g : (g + 1) * cout_g])
            ref = bconv2d(lce_quantize(xg), pack_filters(wg), pg)
            assert np.array_equal(got[..., g * cout_g : (g + 1) * cout_g], ref)


class TestReferencePeakMemory:
    """The reference (what the ``Executor`` runs) decodes the filter signs
    one 64-channel panel at a time: the whole 3 x 3 x 512 x 512 filter as
    float32 is 9.4 MiB on its own, one panel 1.2 MiB."""

    #: tracemalloc peak of one 7^2 x 512 call: 2.5 MiB in 64-channel
    #: panels, 3.9 MiB in 128-channel ones, 12.3 MiB decoding the whole
    #: filter at once
    BUDGET_MIB = 6.0

    def test_seven_squared_by_512_stays_under_budget(self, rng):
        x = lce_quantize(rng.standard_normal((1, 7, 7, 512)).astype(np.float32))
        w = rng.choice([-1.0, 1.0], (3, 3, 512, 512)).astype(np.float32)
        filters, p = pack_filters(w), BConv2DParams(3, 3, 512, 512)
        bconv2d(x, filters, p)  # first-call caches stay out of the peak
        tracemalloc.start()
        try:
            bconv2d(x, filters, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / 2**20 < self.BUDGET_MIB


class TestInt8Output:
    def test_matches_quantized_float_path(self, rng):
        from repro.kernels.quantization import QuantParams, dequantize

        x, w = _case(rng, cin=32, cout=8)
        p = BConv2DParams(3, 3, 32, 8)
        mult = rng.uniform(0.01, 0.05, 8).astype(np.float32)
        f = bconv2d(lce_quantize(x), pack_filters(w), p, multiplier=mult)
        q = bconv2d(
            lce_quantize(x), pack_filters(w), p, multiplier=mult,
            output_type=OutputType.INT8,
            int8_output_scale=0.1, int8_output_zero_point=3,
        )
        assert q.dtype == np.int8
        err = np.abs(dequantize(q, QuantParams(0.1, 3)) - f).max()
        assert err <= 0.051  # half the output scale + rounding

    def test_requires_scale(self, rng):
        x, w = _case(rng)
        p = BConv2DParams(3, 3, 37, 5)
        with pytest.raises(ValueError, match="int8_output_scale"):
            bconv2d(
                lce_quantize(x), pack_filters(w), p,
                output_type=OutputType.INT8,
            )

    def test_activation_applied_before_quantization(self, rng):
        x, w = _case(rng, cin=32, cout=4)
        p = BConv2DParams(3, 3, 32, 4)
        q = bconv2d(
            lce_quantize(x), pack_filters(w), p,
            activation=Activation.RELU,
            output_type=OutputType.INT8,
            int8_output_scale=0.5, int8_output_zero_point=-10,
        )
        assert np.all(q >= -10)  # relu floor sits at the zero point


class TestBoundKernel:
    """``BoundBConv2D`` — what compiled plans run — against ``bconv2d``,
    the float reference (what the ``Executor`` runs)."""

    @pytest.mark.parametrize("output_type", list(OutputType))
    @pytest.mark.parametrize(
        "padding,stride,dilation",
        [
            (Padding.SAME_ONE, 1, 1), (Padding.SAME_ZERO, 2, 1),
            (Padding.VALID, 1, 2), (Padding.SAME_ONE, 3, 2),
        ],
    )
    def test_every_output_type_and_geometry(
        self, rng, output_type, padding, stride, dilation
    ):
        x, w = _case(rng, h=8, w=6, cin=70, cout=9)
        p = BConv2DParams(3, 3, 70, 9, stride=stride, dilation=dilation, padding=padding)
        mult = rng.standard_normal(9).astype(np.float32)
        bias = rng.standard_normal(9).astype(np.float32)
        kw = dict(
            multiplier=mult, bias=bias, activation=Activation.RELU6,
            scale_before_activation=True, output_type=output_type,
        )
        corr = {}
        if padding is Padding.SAME_ZERO:
            corr["padding_correction"] = zero_padding_correction(w, p, 8, 6)
        if output_type is OutputType.BITPACKED:
            kw["thresholds"] = compute_output_thresholds(
                p.depth, 9, mult, bias, Activation.RELU6, True
            )
        if output_type is OutputType.INT8:
            kw.update(int8_output_scale=0.05, int8_output_zero_point=3)
        filters = pack_filters(w)
        expected = bconv2d(lce_quantize(x), filters, p, **kw)

        ws = Workspace()
        packed = BoundBConv2D(filters, p, 8, 6, 2, **corr, **kw)
        floats = BoundBConv2D(filters, p, 8, 6, 2, quantize=True, **corr, **kw)
        for kernel, arg in ((packed, lce_quantize(x)), (floats, x)):
            run = kernel.bind(ws)
            for _ in range(2):
                got = run(arg)
                if output_type is OutputType.BITPACKED:
                    assert got == expected
                else:
                    assert got.dtype == expected.dtype
                    assert np.array_equal(got, expected)

    @pytest.mark.parametrize("position", [0, 1])
    def test_shortcut_and_marks(self, rng, position):
        x, w = _case(rng, cin=64, cout=64)
        p = BConv2DParams(3, 3, 64, 64)
        filters = pack_filters(w)
        conv = bconv2d(lce_quantize(x), filters, p, activation=Activation.RELU)
        run = BoundBConv2D(
            filters, p, 7, 7, 2, activation=Activation.RELU,
            quantize=True, shortcut=position,
        ).bind(Workspace())
        marks: list[float] = []
        got = run(x, x, marks)
        assert np.array_equal(got, x + conv if position == 0 else conv + x)
        assert got.dtype == np.float32
        # one boundary after the absorbed quantize, one before the absorbed add
        assert len(marks) == 2 and marks[0] <= marks[1]
        # a float64 shortcut promotes exactly as the add node's kernel does
        wide = run(x, x.astype(np.float64))
        assert wide.dtype == np.float64

    def test_result_is_fresh_storage(self, rng):
        x, w = _case(rng, cin=32, cout=8)
        p = BConv2DParams(3, 3, 32, 8)
        ws = Workspace()
        run = BoundBConv2D(pack_filters(w), p, 7, 7, 2, quantize=True).bind(ws)
        first = run(x)
        kept = first.copy()
        run(-x)
        assert np.array_equal(first, kept)
        assert not any(np.shares_memory(first, ws.buffer(n)) for n in ws.names())

    def test_reservation_is_what_bind_takes(self, rng):
        _, w = _case(rng, cin=96, cout=130)
        p = BConv2DParams(3, 3, 96, 130, stride=2)
        for batch, quantize in ((1, False), (3, True)):
            ws = Workspace()
            reserve_bconv2d_workspace(ws, p, 7, 7, batch, quantize=quantize)
            grows, names = ws.grows, ws.names()
            BoundBConv2D(pack_filters(w), p, 7, 7, batch, quantize=quantize).bind(ws)
            assert (ws.grows, ws.names()) == (grows, names)

    def test_static_checks_happen_at_construction(self, rng):
        x, w = _case(rng, cin=64, cout=4)
        filters = pack_filters(w)
        with pytest.raises(ValueError, match="groups == 1"):
            BoundBConv2D(filters, BConv2DParams(3, 3, 64, 4, groups=2), 7, 7, 2)
        with pytest.raises(ValueError, match="shortcut"):
            BoundBConv2D(
                filters, BConv2DParams(3, 3, 64, 4), 7, 7, 2, shortcut=0,
                output_type=OutputType.BITPACKED,
                thresholds=compute_output_thresholds(576, 4),
            )
        with pytest.raises(ValueError, match="padding_correction"):
            BoundBConv2D(
                filters, BConv2DParams(3, 3, 64, 4, padding=Padding.SAME_ZERO), 7, 7, 2
            )
        with pytest.raises(ValueError, match="output channels"):
            BoundBConv2D(filters, BConv2DParams(3, 3, 64, 5), 7, 7, 2)

    # 1, 16, 31, 32: one 32-bit half per tap (odd); 33, 63, 100: whole
    # words; 64: one word; 96, 160: three and five halves (odd).
    @pytest.mark.parametrize("cin", [1, 16, 31, 32, 33, 63, 64, 96, 100, 160])
    @pytest.mark.parametrize("padding", list(Padding))
    def test_dense_k_layout_against_the_reference(self, rng, cin, padding):
        """The slab packs each tap's ceil(cin / 32) halves back to back:
        every stride, dilation and batch, fused quantize and shortcut, float
        and bitpacked output, bit for bit."""
        cout = 6
        w = rng.choice([-1.0, 1.0], (3, 3, cin, cout)).astype(np.float32)
        filters = pack_filters(w)
        assert filters.kmajor.shape == (math.ceil(9 * math.ceil(cin / 32) / 2), cout)
        mult = rng.standard_normal(cout).astype(np.float32)
        bias = rng.standard_normal(cout).astype(np.float32)
        ws = Workspace()  # one arena for the whole grid, as in an engine
        for stride, dilation, batch in itertools.product((1, 2), (1, 2), (1, 3)):
            x = rng.standard_normal((batch, 7, 6, cin)).astype(np.float32)
            p = BConv2DParams(
                3, 3, cin, cout, stride=stride, dilation=dilation, padding=padding
            )
            kw, corr = dict(multiplier=mult, bias=bias), {}
            if padding is Padding.SAME_ZERO:
                corr["padding_correction"] = zero_padding_correction(w, p, 7, 6)
            expected = bconv2d(lce_quantize(x), filters, p, **kw)
            packed_in = BoundBConv2D(filters, p, 7, 6, batch, **corr, **kw).bind(ws)
            assert np.array_equal(packed_in(lce_quantize(x)), expected)
            fused = BoundBConv2D(
                filters, p, 7, 6, batch, quantize=True, shortcut=1, **corr, **kw
            ).bind(ws)
            assert np.array_equal(fused(x, expected), expected + expected)
            kw.update(
                output_type=OutputType.BITPACKED,
                thresholds=compute_output_thresholds(p.depth, cout, mult, bias),
            )
            expected_bits = bconv2d(lce_quantize(x), filters, p, **kw)
            bits = BoundBConv2D(filters, p, 7, 6, batch, quantize=True, **corr, **kw)
            assert bits.bind(ws)(x) == expected_bits

    def test_a_stale_slab_never_leaks_into_the_tail_half(self, rng):
        """Every node shares ``bgemm/at``: a whole-word conv leaves ones
        where a dense conv with an odd half count keeps its zero tail half,
        which that conv must rewrite on every call."""
        ws = Workspace()
        full = BConv2DParams(3, 3, 64, 4, padding=Padding.VALID)
        ones = -np.ones((1, 9, 9, 64), np.float32)  # every bit set
        w64 = rng.choice([-1.0, 1.0], (3, 3, 64, 4)).astype(np.float32)
        BoundBConv2D(pack_filters(w64), full, 9, 9, 1, quantize=True).bind(ws)(ones)
        dense = BConv2DParams(3, 3, 32, 4)  # 9 halves: 5 words, tail half
        slab = ws.buffer("bgemm/at")
        assert (slab[: 5 * 49] == np.iinfo(np.uint64).max).all()
        x, w = _case(rng, cin=32, cout=4, batch=1)
        filters = pack_filters(w)
        run = BoundBConv2D(filters, dense, 7, 7, 1).bind(ws)
        for _ in range(2):
            got = run(lce_quantize(x))
            assert np.array_equal(got, bconv2d(lce_quantize(x), filters, dense))

    def test_run_rejects_what_it_would_silently_broadcast(self, rng):
        x, w = _case(rng, cin=64, cout=4)
        run = BoundBConv2D(
            pack_filters(w), BConv2DParams(3, 3, 64, 4), 7, 7, 2, quantize=True
        ).bind(Workspace())
        with pytest.raises(ValueError, match="kernel expects"):
            run(x[:1])
        with pytest.raises(TypeError, match="binarize"):
            run(x > 0)
