"""im2col: rearrange convolution inputs into GEMM operands.

``LceBConv2d`` (and the float/int8 substrate convolutions) are implemented
as im2col followed by a GEMM, the same structure as the paper's kernels.
Tensors are NHWC.  The bitpacked variant pads spatial borders with
zero *words*: zero bits decode to +1.0, so padding is one-padding for free —
exactly the trick the paper's Section 3.2 describes.  Zero-padding for
binarized convolutions instead requires the correction mask computed by
:func:`padded_tap_mask`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.core.bitpack import PackedTensor
from repro.core.types import Padding
from repro.obs.metrics import global_registry


@dataclass(frozen=True)
class ConvGeometry:
    """Resolved spatial geometry of a 2-D convolution."""

    out_h: int
    out_w: int
    pad_top: int
    pad_bottom: int
    pad_left: int
    pad_right: int

    @property
    def pads(self) -> tuple[int, int, int, int]:
        """``(top, bottom, left, right)``, the order :func:`pad_spatial` takes."""
        return (self.pad_top, self.pad_bottom, self.pad_left, self.pad_right)


def pad_spatial(
    x: np.ndarray, pads: tuple[int, int, int, int], value
) -> np.ndarray:
    """Constant-pad the H and W axes of an NHWC array by ``(top, bottom,
    left, right)``.

    Bit-identical to ``np.pad(..., constant_values=value)`` (same dtype,
    ``value`` cast to it) at a fraction of its per-call cost: one fill of
    the padded shape plus one interior copy.  Returns ``x`` itself, not a
    copy, when every pad is zero.
    """
    top, bottom, left, right = pads
    if not (top or bottom or left or right):
        return x
    n, h, w, c = x.shape
    padded = np.full((n, top + h + bottom, left + w + right, c), value, x.dtype)
    padded[:, top : top + h, left : left + w] = x
    return padded


def effective_kernel(k: int, dilation: int) -> int:
    """Kernel extent after dilation."""
    return (k - 1) * dilation + 1


@lru_cache(maxsize=None)
def conv_geometry(
    in_h: int,
    in_w: int,
    kernel_h: int,
    kernel_w: int,
    stride: int,
    dilation: int,
    padding: Padding,
) -> ConvGeometry:
    """Output size and pad amounts, following TensorFlow's SAME/VALID rules.

    Memoized process-wide: every consumer (the converter's padding
    correction, shape inference, the latency model, the runtime kernels)
    resolves identical geometry keys to the same frozen
    :class:`ConvGeometry`, computed once.
    """
    if min(in_h, in_w, kernel_h, kernel_w, stride, dilation) <= 0:
        raise ValueError("all geometry parameters must be positive")
    eff_h = effective_kernel(kernel_h, dilation)
    eff_w = effective_kernel(kernel_w, dilation)
    if padding is Padding.VALID:
        if in_h < eff_h or in_w < eff_w:
            raise ValueError(
                f"input {in_h}x{in_w} smaller than effective kernel {eff_h}x{eff_w}"
            )
        out_h = (in_h - eff_h) // stride + 1
        out_w = (in_w - eff_w) // stride + 1
        return ConvGeometry(out_h, out_w, 0, 0, 0, 0)
    out_h = -(-in_h // stride)
    out_w = -(-in_w // stride)
    pad_h = max((out_h - 1) * stride + eff_h - in_h, 0)
    pad_w = max((out_w - 1) * stride + eff_w - in_w, 0)
    return ConvGeometry(
        out_h,
        out_w,
        pad_h // 2,
        pad_h - pad_h // 2,
        pad_w // 2,
        pad_w - pad_w // 2,
    )


@lru_cache(maxsize=None)
def gather_indices(
    geom: ConvGeometry,
    kernel_h: int,
    kernel_w: int,
    stride: int,
    dilation: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Row/col indices into the *padded* input for every (pixel, tap) pair.

    Returns two int arrays of shape ``(out_h*out_w, kernel_h*kernel_w)``.
    Memoized process-wide (the key is pure static geometry) and returned
    read-only: callers use the arrays as fancy indices and must not write
    to them.
    """
    oy, ox = np.meshgrid(
        np.arange(geom.out_h), np.arange(geom.out_w), indexing="ij"
    )
    ky, kx = np.meshgrid(np.arange(kernel_h), np.arange(kernel_w), indexing="ij")
    rows = oy.reshape(-1, 1) * stride + ky.reshape(1, -1) * dilation
    cols = ox.reshape(-1, 1) * stride + kx.reshape(1, -1) * dilation
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


#: historical private name; kernels now import :func:`gather_indices`
_gather_indices = gather_indices


def im2col_float(
    x: np.ndarray,
    kernel_h: int,
    kernel_w: int,
    stride: int = 1,
    dilation: int = 1,
    padding: Padding = Padding.SAME_ZERO,
    pad_value: float = 0.0,
) -> tuple[np.ndarray, ConvGeometry]:
    """im2col for a dense NHWC tensor.

    Returns ``(patches, geometry)`` where ``patches`` has shape
    ``(N * out_h * out_w, kernel_h * kernel_w * C)``.  ``pad_value`` lets the
    caller realize one-padding (+1.0) in the emulated float path.
    """
    if x.ndim != 4:
        raise ValueError(f"expected NHWC input, got {x.ndim}-D")
    n, in_h, in_w, c = x.shape
    geom = conv_geometry(in_h, in_w, kernel_h, kernel_w, stride, dilation, padding)
    padded = pad_spatial(x, geom.pads, pad_value)
    rows, cols = gather_indices(geom, kernel_h, kernel_w, stride, dilation)
    # (N, pixels, taps, C) -> (N*pixels, taps*C)
    patches = padded[:, rows, cols, :]
    return patches.reshape(n * geom.out_h * geom.out_w, kernel_h * kernel_w * c), geom


def im2col_packed(
    x: PackedTensor,
    kernel_h: int,
    kernel_w: int,
    stride: int = 1,
    dilation: int = 1,
    padding: Padding = Padding.SAME_ONE,
) -> tuple[np.ndarray, ConvGeometry]:
    """im2col for a bitpacked NHWC tensor.

    Spatial padding inserts zero words, i.e. +1.0 values: one-padding comes
    for free.  Zero-padding callers use the same patches and then apply the
    correction from :func:`padded_tap_mask` (see ``bconv2d``).

    Returns ``(patches, geometry)`` with ``patches`` of shape
    ``(N * out_h * out_w, kernel_h * kernel_w * words)`` and dtype uint64.
    """
    bits = x.bits
    if bits.ndim != 4:
        raise ValueError(f"expected packed NHWC input, got {bits.ndim}-D")
    n, in_h, in_w, words = bits.shape
    geom = conv_geometry(in_h, in_w, kernel_h, kernel_w, stride, dilation, padding)
    padded = pad_spatial(bits, geom.pads, 0)
    rows, cols = gather_indices(geom, kernel_h, kernel_w, stride, dilation)
    patches = padded[:, rows, cols, :]
    return (
        patches.reshape(n * geom.out_h * geom.out_w, kernel_h * kernel_w * words),
        geom,
    )


@lru_cache(maxsize=None)
def padded_tap_mask(
    in_h: int,
    in_w: int,
    kernel_h: int,
    kernel_w: int,
    stride: int,
    dilation: int,
    geom: ConvGeometry,
) -> np.ndarray:
    """Which (output pixel, kernel tap) pairs read a padded location.

    Used by the zero-padding correction of ``LceBConv2d``: one-padded taps
    contributed ``+1 * w`` to the accumulator, whereas a zero-padded input
    should have contributed ``0``; the correction subtracts the weight at
    every padded tap.

    Memoized process-wide so the converter (which computes the padding
    correction per layer) and the runtime (which builds SAME_ZERO
    indirections) share one mask per geometry key; the returned array is
    read-only.

    Returns a bool array of shape ``(out_h * out_w, kernel_h * kernel_w)``.
    """
    rows, cols = gather_indices(geom, kernel_h, kernel_w, stride, dilation)
    # Indices are in the padded coordinate frame; a tap is padding when it
    # falls outside the original image extent.
    outside_h = (rows < geom.pad_top) | (rows >= geom.pad_top + in_h)
    outside_w = (cols < geom.pad_left) | (cols >= geom.pad_left + in_w)
    mask = outside_h | outside_w
    mask.setflags(write=False)
    return mask


# ------------------------------------------------- geometry cache stats
#: the memoized geometry functions, as one resettable unit
_GEOMETRY_CACHES = (conv_geometry, gather_indices, padded_tap_mask)


@dataclass(frozen=True)
class GeometryCacheStats:
    """Aggregated hit/miss/entry totals of the geometry memo caches."""

    hits: int
    misses: int
    entries: int


def geometry_cache_stats() -> GeometryCacheStats:
    """Totals across :func:`conv_geometry`, :func:`gather_indices` and
    :func:`padded_tap_mask` (each an ``lru_cache``; counters are
    maintained under the cache's own internal lock)."""
    infos = [fn.cache_info() for fn in _GEOMETRY_CACHES]
    return GeometryCacheStats(
        hits=sum(i.hits for i in infos),
        misses=sum(i.misses for i in infos),
        entries=sum(i.currsize for i in infos),
    )


def geometry_cache_clear() -> None:
    """Reset the geometry caches and their counters (tests/benchmarks)."""
    for fn in _GEOMETRY_CACHES:
        fn.cache_clear()


def _register_metrics() -> None:
    reg = global_registry()
    reg.gauge("convgeom.hits", lambda: geometry_cache_stats().hits)
    reg.gauge("convgeom.misses", lambda: geometry_cache_stats().misses)
    reg.gauge("convgeom.entries", lambda: geometry_cache_stats().entries)


_register_metrics()
