"""Accumulator-to-output stage of ``LceBConv2d``.

After BGEMM the accumulators are int32 +/-1 dot products.  Depending on who
consumes the output (paper Sections 3.1-3.2):

- **float output** — needed when the value feeds a residual shortcut or a
  full-precision op.  The fused channel-wise multiplier/bias (folded batch
  normalization) and the fused activation are applied directly on the
  accumulators before they are written, saving a read-modify-write pass.
- **bitpacked output** — when the only consumer is another binarized
  convolution, the sign of the transformed value is all that matters.  The
  converter precomputes per-channel integer *thresholds* such that comparing
  the raw accumulator against the threshold yields the output bit, so no
  full-precision value is ever materialized.

Both transform orders that occur in real networks are supported:
``scale_before_activation=True`` is conv -> BN -> activation;
``False`` is conv -> activation -> BN (QuickNet's layout).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.bitpack import PackedTensor, pack_bits
from repro.core.types import Activation


def broadcast_channel(
    value: np.ndarray | float | None, channels: int, default: float
) -> np.ndarray:
    """``value`` (``None``, a scalar or a vector) as a float32 ``(channels,)``
    vector; ``None`` means ``default``."""
    if value is None:
        return np.full(channels, default, dtype=np.float32)
    arr = np.asarray(value, dtype=np.float32)
    if arr.ndim == 0:
        return np.full(channels, float(arr), dtype=np.float32)
    if arr.shape != (channels,):
        raise ValueError(f"expected per-channel vector of length {channels}, got {arr.shape}")
    return arr


def apply_transform(
    acc: np.ndarray,
    multiplier: np.ndarray,
    bias: np.ndarray,
    activation: Activation,
    scale_before_activation: bool,
) -> np.ndarray:
    """The scalar transform ``f`` applied to accumulators, vectorized."""
    acc = acc.astype(np.float32)
    if scale_before_activation:
        return activation.apply(acc * multiplier + bias)
    return activation.apply(acc) * multiplier + bias


def accumulators_to_float(
    acc: np.ndarray,
    channels: int,
    multiplier: np.ndarray | float | None = None,
    bias: np.ndarray | float | None = None,
    activation: Activation = Activation.NONE,
    scale_before_activation: bool = True,
) -> np.ndarray:
    """Fused float output transformation.

    Args:
        acc: int32 accumulators, last axis = output channels.
        channels: number of output channels (validates shapes).
        multiplier, bias: per-channel (or scalar) fused BN parameters.
        activation: fused activation function.
        scale_before_activation: transform order, see module docstring.
    """
    if acc.shape[-1] != channels:
        raise ValueError(f"acc last axis {acc.shape[-1]} != channels {channels}")
    mult = broadcast_channel(multiplier, channels, 1.0)
    b = broadcast_channel(bias, channels, 0.0)
    return apply_transform(acc, mult, b, activation, scale_before_activation)


#: Transform values evaluated at once by :func:`compute_output_thresholds`.
_BLOCK_ELEMENTS = 1 << 20


@dataclass(frozen=True)
class OutputThresholds:
    """Per-channel integer thresholds for the bitpacked output path.

    For channels where the transform is non-decreasing in the accumulator
    (``flip`` False), the output bit (1 = -1.0) is ``acc < threshold``.
    Where it is decreasing (negative multiplier; ``flip`` True) the bit is
    ``acc > threshold``.
    """

    threshold: np.ndarray  # int32, shape (channels,)
    flip: np.ndarray  # bool, shape (channels,)

    @property
    def channels(self) -> int:
        return self.threshold.shape[0]


def compute_output_thresholds(
    depth: int,
    channels: int,
    multiplier: np.ndarray | float | None = None,
    bias: np.ndarray | float | None = None,
    activation: Activation = Activation.NONE,
    scale_before_activation: bool = True,
) -> OutputThresholds:
    """Precompute the converter's output thresholds (paper Section 3.1).

    ``depth`` is the dot-product length ``kernel_h * kernel_w * in_channels``;
    accumulators always lie in ``[-depth, depth]``.  The transform is
    monotone in the accumulator for every supported activation (ReLU-family
    are non-decreasing; an affine with negative multiplier flips direction),
    so an exact per-channel threshold exists.  We find it by evaluating the
    transform on the full accumulator range and counting the negative
    outputs — exact by construction, no closed-form case analysis to get
    wrong.
    """
    if depth <= 0:
        raise ValueError(f"depth must be positive, got {depth}")
    mult_v = broadcast_channel(multiplier, channels, 1.0)
    bias_v = broadcast_channel(bias, channels, 0.0)
    flip = mult_v < 0

    # Monotonicity puts the accumulators whose output is negative (bit 1)
    # at one end of [-depth, depth]: the low end where the transform is
    # non-decreasing, the high end where it is decreasing (flip).  Count
    # them per channel over every integer — one-padded accumulators only
    # take values of depth's parity, but the zero-padding correction
    # shifts them off-parity — a block of rows at a time.
    grid = np.arange(-depth, depth + 1, dtype=np.int32)
    rows = max(1, _BLOCK_ELEMENTS // channels)
    negatives = np.zeros(channels, dtype=np.int64)
    for start in range(0, grid.size, rows):
        y = apply_transform(
            grid[start:start + rows, None], mult_v, bias_v, activation,
            scale_before_activation,
        )
        negatives += np.count_nonzero(y < 0, axis=0)
    # Non-decreasing: bit = acc < T, T one above the largest negative acc.
    # Decreasing: bit = acc > T, T one below the smallest negative acc.
    # With no negative acc, T lies beyond every accumulator (all bits 0).
    none = negatives == 0
    threshold = np.where(
        flip,
        np.where(none, depth + 1, depth - negatives),
        np.where(none, -depth - 1, negatives - depth),
    ).astype(np.int32)
    return OutputThresholds(threshold=threshold, flip=flip)


def accumulators_to_int8(
    acc: np.ndarray,
    channels: int,
    out_scale: float,
    out_zero_point: int,
    multiplier: np.ndarray | float | None = None,
    bias: np.ndarray | float | None = None,
    activation: Activation = Activation.NONE,
    scale_before_activation: bool = True,
) -> np.ndarray:
    """Fused transform straight into int8 output (TFLite-int8 consumers).

    Applies the same fused multiplier/bias/activation as the float path and
    quantizes the result at the converter-chosen output parameters without
    materializing the float tensor separately.
    """
    from repro.kernels.quantization import QuantParams, quantize

    real = accumulators_to_float(
        acc, channels,
        multiplier=multiplier, bias=bias, activation=activation,
        scale_before_activation=scale_before_activation,
    )
    return quantize(real, QuantParams(out_scale, out_zero_point))


def accumulators_to_bitpacked(
    acc: np.ndarray, thresholds: OutputThresholds
) -> PackedTensor:
    """Threshold accumulators directly into bitpacked output.

    ``acc``'s last axis must be the output-channel axis.  Returns the packed
    sign bits, the exact value ``lce_quantize(accumulators_to_float(...))``
    would produce (verified property in the test suite).
    """
    if acc.shape[-1] != thresholds.channels:
        raise ValueError(
            f"acc last axis {acc.shape[-1]} != thresholds channels {thresholds.channels}"
        )
    below = acc < thresholds.threshold
    above = acc > thresholds.threshold
    bit_is_one = np.where(thresholds.flip, above, below)
    # pack_bits packs sign bits of float values; feed -1 where bit is 1.
    return pack_bits(np.where(bit_is_one, -1.0, 1.0).astype(np.float32))
