"""Max, average and global pooling over NHWC tensors: eager kernels and the
arithmetic helpers their bound forms (:mod:`repro.kernels.bound`) share."""

from __future__ import annotations

import numpy as np

from repro.core.im2col import (
    ConvGeometry,
    conv_geometry,
    pad_spatial,
    padded_tap_mask,
    windows,
)
from repro.core.types import Padding


def maxpool2d(
    x: np.ndarray,
    pool_h: int,
    pool_w: int,
    stride: int | None = None,
    padding: Padding = Padding.VALID,
) -> np.ndarray:
    """Max pooling.  Integer input keeps its dtype (max commutes with
    quantization); anything else runs in float32.  SAME padding uses the
    dtype's lowest value (-inf for floats), so pads never win."""
    if x.ndim != 4:
        raise ValueError("expected NHWC input")
    stride = stride or max(pool_h, pool_w)
    geom = conv_geometry(x.shape[1], x.shape[2], pool_h, pool_w, stride, 1, padding)
    dtype = pool_dtype(x.dtype)
    padded = pad_spatial(x.astype(dtype, copy=False), geom.pads, lowest(dtype))
    return separable_max(padded, pool_h, pool_w, stride, geom.out_h, geom.out_w)()


def pool_dtype(dtype) -> np.dtype:
    """What max pooling runs in: integers as they are, the rest float32."""
    dtype = np.dtype(dtype)
    return dtype if dtype.kind in "iu" else np.dtype(np.float32)


def lowest(dtype: np.dtype):
    """The pad value no input beats."""
    return np.iinfo(dtype).min if dtype.kind in "iu" else -np.inf


def separable_max(
    padded: np.ndarray,
    pool_h: int,
    pool_w: int,
    stride: int,
    out_h: int,
    out_w: int,
    rows: np.ndarray | None = None,
):
    """``run()``: the window maxima of what ``padded`` holds, over views
    sliced here — a running ``np.maximum`` along the rows into ``rows``,
    then down the columns into a fresh result (4 calls at 3x3, not 8).
    Max is exact and order-free, so this equals the gathered windows'."""
    span, cols = (out_h - 1) * stride + pool_h, (out_w - 1) * stride + 1
    row_taps = [padded[:, :span, kx : kx + cols : stride] for kx in range(pool_w)]
    if pool_w > 1 and rows is None:
        rows = np.empty(row_taps[0].shape, padded.dtype)
    last = (out_h - 1) * stride + 1
    row_max = rows if pool_w > 1 else row_taps[0]
    col_taps = [row_max[:, ky : ky + last : stride] for ky in range(pool_h)]

    def run() -> np.ndarray:
        if pool_w > 1:
            np.maximum(row_taps[0], row_taps[1], out=rows)
            for tap in row_taps[2:]:
                np.maximum(rows, tap, out=rows)
        if pool_h == 1:
            return col_taps[0].copy()
        out = np.maximum(col_taps[0], col_taps[1])
        for tap in col_taps[2:]:
            np.maximum(out, tap, out=out)
        return out

    return run


def avgpool2d(
    x: np.ndarray,
    pool_h: int,
    pool_w: int,
    stride: int | None = None,
    padding: Padding = Padding.VALID,
) -> np.ndarray:
    """Average pooling.  SAME padding averages over valid elements only
    (TensorFlow semantics): zero pads, divided by :func:`window_counts`."""
    if x.ndim != 4:
        raise ValueError("expected NHWC input")
    stride = stride or max(pool_h, pool_w)
    n, in_h, in_w, c = x.shape
    geom = conv_geometry(in_h, in_w, pool_h, pool_w, stride, 1, padding)
    padded = pad_spatial(x.astype(np.float32, copy=False), geom.pads, 0.0)
    taps = windows(padded, pool_h, pool_w, stride, 1, geom.out_h, geom.out_w).reshape(
        n, geom.out_h * geom.out_w, pool_h * pool_w, c
    )
    counts = window_counts(in_h, in_w, pool_h, pool_w, stride, geom)
    return window_mean(taps, counts).reshape(n, geom.out_h, geom.out_w, c)


def window_counts(
    in_h: int, in_w: int, pool_h: int, pool_w: int, stride: int, geom: ConvGeometry
) -> np.ndarray:
    """``(pixels, 1)`` float32: input (not padding) elements per window."""
    pads = padded_tap_mask(in_h, in_w, pool_h, pool_w, stride, 1, geom)
    return (pool_h * pool_w - pads.sum(axis=1)).astype(np.float32)[:, None]


def window_mean(taps: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Mean over axis 2 of zero-padded ``(N, pixels, taps, C)`` windows.
    The float32 quotient is correctly rounded, as is ``np.mean``'s float64
    one rounded back (53 >= 2 * 24 + 2 bits): the two agree bit for bit."""
    total = np.add.reduce(taps, axis=2)
    return np.divide(total, counts, out=total)


def global_avgpool(x: np.ndarray) -> np.ndarray:
    """Global average pooling: ``(N, H, W, C) -> (N, C)``."""
    if x.ndim != 4:
        raise ValueError("expected NHWC input")
    return spatial_mean(x.astype(np.float32, copy=False))


def spatial_mean(x: np.ndarray) -> np.ndarray:
    """``x.mean(axis=(1, 2))`` of float32 NHWC ``x``, bit for bit (the
    division as in :func:`window_mean`), without its Python overhead."""
    total = np.add.reduce(x, axis=(1, 2))
    return np.divide(total, np.float32(x.shape[1] * x.shape[2]), out=total)
