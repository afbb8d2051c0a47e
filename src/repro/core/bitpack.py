"""Channel-axis bitpacking: the storage format produced by ``LceQuantize``.

Bit convention (paper Section 3.2): a 0-valued bit represents the real value
+1.0 and a 1-valued bit represents -1.0 — i.e. the packed bit is the sign
bit.  Values are packed along the innermost (channel) axis into 64-bit
words; the channel count is padded up to a multiple of the word size with
zero bits (= +1.0), which is harmless for the XOR-popcount arithmetic
because padded positions agree between activations and weights and XOR to 0.

The format keeps the activation tensor 32x smaller than float32 and 8x
smaller than int8, which is where much of the binarization speedup on real
hardware comes from (cache behaviour, memory bandwidth).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Number of bits per packed word.  LCE packs into 64-bit words on AArch64.
WORD_BITS = 64

_WORD_DTYPE = np.uint64


def packed_words(channels: int, word_bits: int = WORD_BITS) -> int:
    """Number of words needed to hold ``channels`` bits."""
    if channels <= 0:
        raise ValueError(f"channels must be positive, got {channels}")
    return -(-channels // word_bits)


@dataclass(frozen=True)
class PackedTensor:
    """A bitpacked tensor: sign bits of a +/-1-valued tensor.

    ``bits`` has the same shape as the source tensor except the innermost
    axis, which holds ``packed_words(channels)`` uint64 words.  ``channels``
    records the true (pre-padding) channel count so consumers can ignore the
    padding bits.
    """

    bits: np.ndarray
    channels: int

    def __post_init__(self) -> None:
        if self.bits.dtype != _WORD_DTYPE:
            raise TypeError(f"bits must be uint64, got {self.bits.dtype}")
        expected = packed_words(self.channels)
        if self.bits.shape[-1] != expected:
            raise ValueError(
                f"bits last axis is {self.bits.shape[-1]} words but "
                f"{self.channels} channels need {expected}"
            )

    @property
    def shape(self) -> tuple[int, ...]:
        """Logical (unpacked) shape."""
        return self.bits.shape[:-1] + (self.channels,)

    @property
    def nbytes(self) -> int:
        return self.bits.nbytes

    def __eq__(self, other: object) -> bool:  # pragma: no cover - trivial
        if not isinstance(other, PackedTensor):
            return NotImplemented
        return self.channels == other.channels and np.array_equal(
            self.bits, other.bits
        )


def pack_bits(x: np.ndarray, word_bits: int = WORD_BITS) -> PackedTensor:
    """Pack the sign bits of ``x`` along its innermost axis.

    Negative values map to bit 1 (-1.0); zero and positive values map to
    bit 0 (+1.0).  This is the semantic of ``LceQuantize``.
    """
    if word_bits != WORD_BITS:
        raise ValueError("only 64-bit words are supported")
    x = np.asarray(x)
    if x.ndim == 0:
        raise ValueError("cannot pack a scalar")
    channels = x.shape[-1]
    return PackedTensor(pack_signs(x < 0, packed_words(channels)), channels)


def pack_signs(signs: np.ndarray, words: int) -> np.ndarray:
    """Pack a bool ``(..., channels)`` array into ``(..., words)`` uint64
    words: ``np.packbits`` zero-fills the last byte, and whole zero bytes
    pad the channel count up to ``words * 64`` bits."""
    # np.packbits is big-endian within bytes; view 8 bytes as one uint64.
    # The exact bit order inside a word is an internal detail: pack and
    # unpack agree, and XOR/popcount are order-invariant.
    packed = np.ascontiguousarray(np.packbits(signs, axis=-1))
    tail = words * 8 - packed.shape[-1]
    if tail:
        packed = np.concatenate(
            [packed, np.zeros(packed.shape[:-1] + (tail,), np.uint8)], axis=-1
        )
    return packed.view(_WORD_DTYPE)


def unpack_bits(packed: PackedTensor) -> np.ndarray:
    """Decode a :class:`PackedTensor` back to +/-1.0 float32 values.

    One float32 multiply-add per bit, ``1 - 2 * bit``: exact, and several
    times cheaper than selecting between two constants.
    """
    as_bytes = packed.bits.view(np.uint8)
    signs = np.unpackbits(as_bytes, axis=-1, count=packed.channels)
    values = np.multiply(signs, np.float32(-2.0), dtype=np.float32)
    values += np.float32(1.0)
    return values


def popcount(words: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Per-element population count of an unsigned integer array.

    ``out`` may be a uint8 array of matching shape (``np.bitwise_count``
    returns uint8 counts for uint64 input); the hot path passes a reused
    workspace buffer here.
    """
    if out is None:
        return np.bitwise_count(words)
    return np.bitwise_count(words, out=out)
