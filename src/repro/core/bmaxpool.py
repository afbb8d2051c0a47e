"""``LceBMaxPool2d`` — max pooling on bitpacked data via bitwise AND.

Because ``max(sign(X)) == sign(max(X))``, a full-precision MaxPool directly
followed by a binarized convolution can instead binarize first and pool the
bits (paper Section 3.2).  On the bit encoding (1 = -1.0) the maximum over a
window is +1.0 iff any element is +1.0, i.e. the output bit is the bitwise
AND of the window's bits.

Padding, when requested, inserts all-ones words (-1.0), the identity of the
binary max.
"""

from __future__ import annotations

import numpy as np

from repro.core.bitpack import PackedTensor
from repro.core.im2col import conv_geometry, pad_spatial, windows
from repro.core.types import Padding


def bmaxpool2d(
    x: PackedTensor,
    pool_h: int,
    pool_w: int,
    stride: int | None = None,
    padding: Padding = Padding.VALID,
) -> PackedTensor:
    """Binary max pooling over an NHWC bitpacked tensor.

    Args:
        x: packed input of logical shape ``(N, H, W, C)``.
        pool_h, pool_w: pooling window.
        stride: window stride; defaults to the window size (TFLite default).
        padding: ``VALID`` or a SAME variant (both SAME variants pad with
            -1.0, the max identity; the distinction is meaningless here).
    """
    bits = x.bits
    if bits.ndim != 4:
        raise ValueError(f"expected packed NHWC input, got {bits.ndim}-D")
    stride = stride or max(pool_h, pool_w)
    n, in_h, in_w, words = bits.shape
    geom = conv_geometry(in_h, in_w, pool_h, pool_w, stride, 1, padding)
    ones = np.uint64(0xFFFFFFFFFFFFFFFF)
    padded = pad_spatial(bits, geom.pads, ones)
    taps = windows(padded, pool_h, pool_w, stride, 1, geom.out_h, geom.out_w)
    return PackedTensor(
        bits=np.bitwise_and.reduce(taps, axis=(3, 4)), channels=x.channels
    )
