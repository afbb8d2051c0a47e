"""Depthwise convolution and the blurring kernel of antialiased pooling.

QuickNet's stem uses a depthwise separable convolution for cheap spatial
downsampling, and its transition blocks use *antialiased max pooling*
(Zhang, 2019): a max pool followed by a strided depthwise convolution with
a fixed blurring kernel (paper Section 5.1, Figure 6), which
``repro.zoo.common.antialiased_maxpool`` builds from :func:`blur_kernel`.
"""

from __future__ import annotations

import numpy as np

from repro.core.im2col import conv_geometry, pad_spatial, windows
from repro.core.types import Activation, Padding


def depthwise_conv2d_float(
    x: np.ndarray,
    weights: np.ndarray,
    bias: np.ndarray | None = None,
    stride: int = 1,
    dilation: int = 1,
    padding: Padding = Padding.SAME_ZERO,
    activation: Activation = Activation.NONE,
) -> np.ndarray:
    """Depthwise convolution: one filter per input channel.

    Args:
        x: ``(N, H, W, C)`` input.
        weights: ``(kh, kw, C)`` per-channel filters (depth multiplier 1).
    """
    if x.ndim != 4:
        raise ValueError("expected NHWC input")
    if weights.ndim != 3 or weights.shape[-1] != x.shape[-1]:
        raise ValueError(
            f"expected (kh, kw, C={x.shape[-1]}) depthwise weights, got {weights.shape}"
        )
    n, in_h, in_w, c = x.shape
    kh, kw, _ = weights.shape
    geom = conv_geometry(in_h, in_w, kh, kw, stride, dilation, padding)
    pad_value = 1.0 if padding is Padding.SAME_ONE else 0.0
    padded = pad_spatial(x.astype(np.float32, copy=False), geom.pads, pad_value)
    taps = windows(padded, kh, kw, stride, dilation, geom.out_h, geom.out_w).reshape(
        n, geom.out_h * geom.out_w, kh * kw, c
    )
    bias = None if bias is None else np.asarray(bias, dtype=np.float32)
    out = depthwise_taps(taps, weights.reshape(kh * kw, c), bias, activation)
    return out.reshape(n, geom.out_h, geom.out_w, c)


def depthwise_taps(
    taps: np.ndarray,
    weights: np.ndarray,
    bias: np.ndarray | None,
    activation: Activation,
) -> np.ndarray:
    """``act(sum_t taps[:, :, t] * weights[t] + bias)`` over contiguous
    ``(N, pixels, taps, C)`` windows, as a fresh ``(N, pixels, C)`` array."""
    out = np.einsum("nptc,tc->npc", taps, weights)
    if bias is not None:
        out += bias
    out = out.astype(np.float32, copy=False)
    return activation.apply(out, out=out)


def blur_kernel(size: int = 3) -> np.ndarray:
    """Fixed binomial blurring kernel used by antialiased downsampling.

    Size 3 yields the [1, 2, 1] (x) [1, 2, 1] / 16 filter of Zhang (2019).
    """
    if size < 1:
        raise ValueError("blur kernel size must be >= 1")
    row = np.array([1.0])
    for _ in range(size - 1):
        row = np.convolve(row, [1.0, 1.0])
    k = np.outer(row, row)
    return (k / k.sum()).astype(np.float32)

