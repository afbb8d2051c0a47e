"""im2col: rearrange convolution inputs into GEMM operands.

``LceBConv2d`` (and the float/int8 substrate convolutions) are implemented
as im2col followed by a GEMM, the same structure as the paper's kernels.
Tensors are NHWC.  :func:`im2col_float` serves the float convolutions and
the +/-1 float reference of a binarized one; the bound binarized kernel
gathers its bitpacked patches itself, padding spatial borders with zero
*words*: zero bits decode to +1.0, so padding is one-padding for free —
exactly the trick the paper's Section 3.2 describes.  Zero-padding for
binarized convolutions instead requires the correction mask computed by
:func:`padded_tap_mask`.

Every kernel that slides a window reads it through :func:`windows`; the
module's only state is :func:`conv_geometry`'s bounded memo.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.core.types import Padding


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


@lru_cache(maxsize=1024)  # a model has a few dozen distinct keys
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

    Memoized process-wide (LRU, 1024 keys): every consumer (the
    converter's padding correction, shape inference, the latency model,
    the runtime kernels) resolves identical geometry keys to the same
    frozen :class:`ConvGeometry`.
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


def windows(
    padded: np.ndarray,
    kernel_h: int,
    kernel_w: int,
    stride: int,
    dilation: int,
    out_h: int,
    out_w: int,
) -> np.ndarray:
    """Every convolution window of an already padded NHWC array, as a view.

    Returns a read-only ``(N, out_h, out_w, kernel_h, kernel_w, C)`` view:
    element ``[n, y, x, ky, kx, c]`` is ``padded[n, y * stride + ky *
    dilation, x * stride + kx * dilation, c]``.  Nothing is copied; the
    caller's ``reshape`` (or reduction) is the one pass over the data.
    Raises ``ValueError`` when a tap would read outside ``padded``.
    """
    if padded.ndim != 4:
        raise ValueError(f"expected NHWC input, got {padded.ndim}-D")
    if min(kernel_h, kernel_w, stride, dilation, out_h, out_w) < 1:
        raise ValueError("all window parameters must be positive")
    n, in_h, in_w, c = padded.shape
    reach_h = (kernel_h - 1) * dilation + (out_h - 1) * stride
    reach_w = (kernel_w - 1) * dilation + (out_w - 1) * stride
    if reach_h >= in_h or reach_w >= in_w:
        raise ValueError(
            f"taps reach ({reach_h}, {reach_w}), outside the {in_h}x{in_w} input"
        )
    s_n, s_h, s_w, s_c = padded.strides
    return as_strided(
        padded,
        shape=(n, out_h, out_w, kernel_h, kernel_w, c),
        strides=(s_n, stride * s_h, stride * s_w, dilation * s_h, dilation * s_w, s_c),
        writeable=False,
    )


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
    if kernel_h == kernel_w == stride == 1:
        # What the window view reshapes to, without building the view.
        return np.ascontiguousarray(x).reshape(-1, c), geom
    padded = pad_spatial(x, geom.pads, pad_value)
    view = windows(
        padded, kernel_h, kernel_w, stride, dilation, geom.out_h, geom.out_w
    )
    # the reshape is the copy: (N, out_h, out_w, kh, kw, C) -> (N*pixels, taps*C)
    return view.reshape(n * geom.out_h * geom.out_w, kernel_h * kernel_w * c), geom


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
    every padded tap.  Computed at conversion time, once per layer.

    Returns a bool array of shape ``(out_h * out_w, kernel_h * kernel_w)``.
    """
    # The windows of a plane that is True exactly where padding sits.
    is_padding = pad_spatial(np.zeros((1, in_h, in_w, 1), np.bool_), geom.pads, True)
    view = windows(
        is_padding, kernel_h, kernel_w, stride, dilation, geom.out_h, geom.out_w
    )
    return view.reshape(geom.out_h * geom.out_w, kernel_h * kernel_w)
