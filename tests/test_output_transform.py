"""Tests for the fused output transformation and threshold precomputation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.bitpack import pack_bits
from repro.core.output_transform import (
    OutputThresholds,
    accumulators_to_bitpacked,
    accumulators_to_float,
    compute_output_thresholds,
)
from repro.core.types import Activation


class TestAccumulatorsToFloat:
    def test_identity_transform(self):
        acc = np.array([[3, -5]], np.int32)
        out = accumulators_to_float(acc, 2)
        assert np.array_equal(out, [[3.0, -5.0]])
        assert out.dtype == np.float32

    def test_scale_before_activation(self):
        acc = np.array([[2, 2]], np.int32)
        out = accumulators_to_float(
            acc, 2, multiplier=np.array([2.0, -3.0]), bias=np.array([1.0, 1.0]),
            activation=Activation.RELU, scale_before_activation=True,
        )
        # relu(2*2+1)=5 ; relu(-3*2+1)=0
        assert np.array_equal(out, [[5.0, 0.0]])

    def test_activation_before_scale(self):
        acc = np.array([[2, -2]], np.int32)
        out = accumulators_to_float(
            acc, 2, multiplier=np.array([2.0, 2.0]), bias=np.array([1.0, 1.0]),
            activation=Activation.RELU, scale_before_activation=False,
        )
        # 2*relu(2)+1=5 ; 2*relu(-2)+1=1
        assert np.array_equal(out, [[5.0, 1.0]])

    def test_relu6(self):
        acc = np.array([[10, -10, 3]], np.int32)
        out = accumulators_to_float(acc, 3, activation=Activation.RELU6)
        assert np.array_equal(out, [[6.0, 0.0, 3.0]])

    def test_scalar_parameters_broadcast(self):
        acc = np.array([[1, 2, 3]], np.int32)
        out = accumulators_to_float(acc, 3, multiplier=2.0, bias=-1.0)
        assert np.array_equal(out, [[1.0, 3.0, 5.0]])

    def test_rejects_channel_mismatch(self):
        with pytest.raises(ValueError):
            accumulators_to_float(np.zeros((1, 3), np.int32), 4)

    def test_rejects_bad_vector_length(self):
        with pytest.raises(ValueError):
            accumulators_to_float(
                np.zeros((1, 3), np.int32), 3, multiplier=np.ones(2)
            )


def _all_accumulator_values(depth: int) -> np.ndarray:
    return (depth - 2 * np.arange(depth + 1)).astype(np.int32)


class TestThresholds:
    @given(
        depth=st.integers(1, 60),
        seed=st.integers(0, 2**32 - 1),
        activation=st.sampled_from(list(Activation)),
        order=st.booleans(),
    )
    def test_threshold_equals_sign_of_float_transform(
        self, depth, seed, activation, order
    ):
        """The converter's central invariant (paper Section 3.1): comparing
        raw accumulators against precomputed thresholds must give exactly
        the bits that quantizing the float output would give."""
        rng = np.random.default_rng(seed)
        channels = 8
        mult = rng.uniform(-2, 2, channels).astype(np.float32)
        bias = rng.uniform(-depth, depth, channels).astype(np.float32)
        thresholds = compute_output_thresholds(
            depth, channels, mult, bias, activation, order
        )
        acc = np.stack([_all_accumulator_values(depth)] * channels, axis=-1)
        float_out = accumulators_to_float(acc, channels, mult, bias, activation, order)
        expected_bits = pack_bits(np.where(float_out < 0, -1.0, 1.0))
        got = accumulators_to_bitpacked(acc, thresholds)
        assert np.array_equal(got.bits, expected_bits.bits)

    def test_identity_threshold_is_zero_ish(self):
        t = compute_output_thresholds(10, 1)
        # bit = acc < T must equal acc < 0: the largest negative acc is -2
        # (even depth), so any T in (-2, 0] works; check behaviour not value.
        acc = _all_accumulator_values(10)[:, None]
        got = accumulators_to_bitpacked(acc, t)
        from repro.core.bitpack import unpack_bits

        assert np.array_equal(unpack_bits(got).ravel(), np.where(acc.ravel() < 0, -1, 1))

    def test_never_negative_channel(self):
        # multiplier 0, bias +1: output always >= 0 -> all bits zero.
        t = compute_output_thresholds(6, 1, multiplier=0.0, bias=1.0)
        acc = _all_accumulator_values(6)[:, None]
        packed = accumulators_to_bitpacked(acc, t)
        assert np.all(packed.bits == 0)

    def test_always_negative_channel(self):
        t = compute_output_thresholds(6, 1, multiplier=0.0, bias=-1.0)
        acc = _all_accumulator_values(6)[:, None]
        packed = accumulators_to_bitpacked(acc, t)
        from repro.core.bitpack import unpack_bits

        assert np.all(unpack_bits(packed) == -1.0)

    def test_negative_multiplier_flips(self):
        t = compute_output_thresholds(4, 1, multiplier=-1.0)
        assert bool(t.flip[0])
        acc = _all_accumulator_values(4)[:, None]
        from repro.core.bitpack import unpack_bits

        got = unpack_bits(accumulators_to_bitpacked(acc, t)).ravel()
        assert np.array_equal(got, np.where(-acc.ravel() < 0, -1, 1))

    def test_rejects_bad_depth(self):
        with pytest.raises(ValueError):
            compute_output_thresholds(0, 1)

    def test_rejects_channel_mismatch(self):
        t = compute_output_thresholds(4, 2)
        with pytest.raises(ValueError):
            accumulators_to_bitpacked(np.zeros((1, 3), np.int32), t)

    def test_channels_property(self):
        t = compute_output_thresholds(4, 5)
        assert t.channels == 5
        assert isinstance(t, OutputThresholds)


def _loop_thresholds(depth, channels, multiplier, bias, activation, order):
    """The per-channel loop ``compute_output_thresholds`` replaced: the
    oracle its vectorized form must match bit for bit."""
    from repro.core.output_transform import apply_transform, broadcast_channel

    mult_v = broadcast_channel(multiplier, channels, 1.0)
    bias_v = broadcast_channel(bias, channels, 0.0)
    grid = (depth - np.arange(2 * depth + 1, dtype=np.int64)).astype(np.int32)
    y = apply_transform(grid[:, None], mult_v[None, :], bias_v[None, :], activation, order)
    negative = y < 0
    flip = mult_v < 0
    threshold = np.empty(channels, dtype=np.int32)
    for c in range(channels):
        idx = np.nonzero(negative[:, c])[0]
        if not flip[c]:
            threshold[c] = -depth - 1 if idx.size == 0 else grid[idx[0]] + 1
        else:
            threshold[c] = depth + 1 if idx.size == 0 else grid[idx[-1]] - 1
    return threshold, flip


class TestThresholdsMatchLoopOracle:
    @given(
        depth=st.integers(1, 80),
        seed=st.integers(0, 2**32 - 1),
        activation=st.sampled_from(list(Activation)),
        order=st.booleans(),
    )
    def test_random_multipliers(self, depth, seed, activation, order):
        rng = np.random.default_rng(seed)
        channels = 12
        mult = rng.uniform(-2, 2, channels).astype(np.float32)
        mult[rng.random(channels) < 0.25] = 0.0  # zero multipliers too
        bias = rng.uniform(-depth, depth, channels).astype(np.float32)
        # One channel whose every accumulator maps negative, one with none.
        mult[:2], bias[:2] = 0.0, (-1.0, 1.0)
        t = compute_output_thresholds(depth, channels, mult, bias, activation, order)
        threshold, flip = _loop_thresholds(depth, channels, mult, bias, activation, order)
        assert t.threshold.dtype == np.int32 and t.flip.dtype == np.bool_
        assert np.array_equal(t.threshold, threshold)
        assert np.array_equal(t.flip, flip)

    @pytest.mark.parametrize("activation", list(Activation))
    @pytest.mark.parametrize("order", [True, False])
    def test_all_or_no_negative_channels(self, activation, order):
        depth, channels = 9, 4
        mult = np.array([1.0, -1.0, 0.0, 0.0], np.float32)
        for bias in (np.full(channels, 2.0 * depth, np.float32),
                     np.full(channels, -2.0 * depth, np.float32)):
            t = compute_output_thresholds(depth, channels, mult, bias, activation, order)
            threshold, flip = _loop_thresholds(depth, channels, mult, bias, activation, order)
            assert np.array_equal(t.threshold, threshold)
            assert np.array_equal(t.flip, flip)
