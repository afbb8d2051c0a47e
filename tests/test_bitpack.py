"""Tests for repro.core.bitpack."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.bitpack import (
    PackedTensor,
    pack_bits,
    packed_words,
    popcount,
    unpack_bits,
)


class TestPackedWords:
    def test_exact_multiple(self):
        assert packed_words(64) == 1
        assert packed_words(128) == 2

    def test_rounds_up(self):
        assert packed_words(1) == 1
        assert packed_words(65) == 2
        assert packed_words(127) == 2

    @pytest.mark.parametrize("bad", [0, -1, -64])
    def test_rejects_non_positive(self, bad):
        with pytest.raises(ValueError):
            packed_words(bad)


class TestPackUnpack:
    def test_roundtrip_small(self, rng):
        x = rng.standard_normal((3, 5, 7)).astype(np.float32)
        unpacked = unpack_bits(pack_bits(x))
        want = np.where(x < 0, np.float32(-1.0), np.float32(1.0))
        assert unpacked.dtype == np.float32  # and every bit, -0.0 included
        assert np.array_equal(unpacked.view(np.uint32), want.view(np.uint32))

    def test_zero_maps_to_plus_one(self):
        x = np.zeros((2, 8), np.float32)
        assert np.all(unpack_bits(pack_bits(x)) == 1.0)

    def test_negative_zero_maps_to_plus_one(self):
        # -0.0 < 0 is False, so -0.0 binarizes to +1.0 like LceQuantize.
        x = np.full((1, 4), -0.0, np.float32)
        assert np.all(unpack_bits(pack_bits(x)) == 1.0)

    def test_bit_convention_sign_bit(self):
        # bit 1 represents -1.0: an all-negative row must pack to all-ones
        # in the used bit positions.
        x = -np.ones((1, 64), np.float32)
        packed = pack_bits(x)
        assert packed.bits[0, 0] == np.uint64(0xFFFFFFFFFFFFFFFF)

    def test_all_positive_packs_to_zero_words(self):
        x = np.ones((1, 130), np.float32)
        packed = pack_bits(x)
        assert np.all(packed.bits == 0)

    def test_channel_padding_bits_are_zero(self, rng):
        x = rng.standard_normal((2, 70)).astype(np.float32)
        packed = pack_bits(x)
        assert packed.bits.shape[-1] == 2
        # Re-unpack with the padded width: positions 70..127 must be +1.
        full = np.unpackbits(packed.bits.view(np.uint8), axis=-1)
        assert np.all(full[:, 70:] == 0)

    def test_shape_property(self, rng):
        x = rng.standard_normal((2, 3, 4, 100)).astype(np.float32)
        packed = pack_bits(x)
        assert packed.shape == (2, 3, 4, 100)
        assert packed.bits.shape == (2, 3, 4, 2)

    def test_nbytes_is_32x_smaller_than_float(self, rng):
        x = rng.standard_normal((1, 8, 8, 256)).astype(np.float32)
        packed = pack_bits(x)
        assert packed.nbytes * 32 == x.nbytes

    def test_rejects_scalar(self):
        with pytest.raises(ValueError):
            pack_bits(np.float32(1.0))

    def test_int_input_supported(self):
        x = np.array([[1, -1, -1, 1]], dtype=np.int32)
        assert np.array_equal(unpack_bits(pack_bits(x)), [[1.0, -1.0, -1.0, 1.0]])

    @given(
        channels=st.integers(1, 200),
        rows=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_roundtrip_property(self, channels, rows, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((rows, channels)).astype(np.float32)
        assert np.array_equal(
            unpack_bits(pack_bits(x)), np.where(x < 0, -1.0, 1.0)
        )


class TestPackedTensorValidation:
    def test_rejects_wrong_dtype(self):
        with pytest.raises(TypeError):
            PackedTensor(bits=np.zeros((1, 1), np.uint32), channels=32)

    def test_rejects_word_count_mismatch(self):
        with pytest.raises(ValueError):
            PackedTensor(bits=np.zeros((1, 2), np.uint64), channels=64)

    def test_equality(self, rng):
        x = rng.standard_normal((2, 66)).astype(np.float32)
        assert pack_bits(x) == pack_bits(x)
        assert pack_bits(x) != pack_bits(-x)


class TestPopcount:
    def test_known_values(self):
        assert popcount(np.uint64(0)) == 0
        assert popcount(np.uint64(0xFFFFFFFFFFFFFFFF)) == 64
        assert popcount(np.uint64(0b1011)) == 3

    def test_array(self):
        words = np.array([0, 1, 3, 255], dtype=np.uint64)
        assert np.array_equal(popcount(words), [0, 1, 2, 8])


def _xor_popcount_dot(a: np.ndarray, b: np.ndarray, channels: int) -> int:
    """``channels - 2 * popcount(a XOR b)``: the binary dot product that the
    bound kernels compute from two packed rows."""
    return int(channels) - 2 * int(popcount(np.bitwise_xor(a, b)).sum())


class TestXorPopcountDot:
    """The packed layout keeps the XOR-popcount identity exact: channel
    padding bits are zero in both operands and never reach the popcount."""

    @given(channels=st.integers(1, 150), seed=st.integers(0, 2**32 - 1))
    def test_matches_float_dot(self, channels, seed):
        rng = np.random.default_rng(seed)
        a = rng.choice([-1.0, 1.0], channels).astype(np.float32)
        b = rng.choice([-1.0, 1.0], channels).astype(np.float32)
        pa = pack_bits(a[None])
        pb = pack_bits(b[None])
        got = _xor_popcount_dot(pa.bits[0], pb.bits[0], channels)
        assert got == int(np.dot(a, b))

    def test_identical_vectors_give_channel_count(self, rng):
        a = rng.choice([-1.0, 1.0], 100).astype(np.float32)
        pa = pack_bits(a[None]).bits[0]
        assert _xor_popcount_dot(pa, pa, 100) == 100

    def test_opposite_vectors_give_negative_count(self, rng):
        a = rng.choice([-1.0, 1.0], 100).astype(np.float32)
        pa = pack_bits(a[None]).bits[0]
        pb = pack_bits(-a[None]).bits[0]
        assert _xor_popcount_dot(pa, pb, 100) == -100
