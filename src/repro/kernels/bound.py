"""Bound forms of the float kernels: compiled for one input shape, bound to
a plan's scratch arena, run as the NumPy calls that move data.

:class:`repro.core.bconv2d.BoundBConv2D`'s recipe, applied to ``conv2d``,
``depthwise_conv2d``, max / average / global pooling, ``dense`` and a
stand-alone ``lce_quantize``.  A form resolves checks, geometry and weight
layout at construction and lists its arena buffers as ``scratch``
``(name, shape, dtype)`` entries (:func:`repro.ops.common.plan_kernel`
reserves them); ``bind(workspace)`` cuts its views and returns ``run(x)``.
``run`` calls the eager kernel's own arithmetic helper on operands of the
same shape and layout, so the two agree bit for bit, and its first
allocation is the result: nothing returned aliases the arena.

A padded input (:class:`_Padded`) is named after its per-image geometry,
pad value and dtype.  Every user of a name — another node of that
geometry, or another batch factor, whose image ``i`` sits at the same
offset — writes the same border and interior positions, so the border is
filled once, at bind time, and a call copies only the interior.
"""

from __future__ import annotations

import numpy as np

from repro.core.bitpack import PackedTensor, pack_signs, packed_words
from repro.core.im2col import conv_geometry, windows
from repro.core.types import Activation, Padding
from repro.core.workspace import Workspace
from repro.kernels.conv2d import conv_gemm
from repro.kernels.dense import dense_rows
from repro.kernels.depthwise import depthwise_taps
from repro.kernels.pool import (
    lowest,
    pool_dtype,
    separable_max,
    spatial_mean,
    window_counts,
    window_mean,
)


def _float32(bias) -> np.ndarray | None:
    return None if bias is None else np.asarray(bias, np.float32)


class _Padded:
    """A constant-padded copy of an NHWC input, in the arena."""

    def __init__(self, shape, pads, value, dtype) -> None:
        n, h, w, c = self.in_shape = tuple(shape)
        top, bottom, left, right = pads
        self.value, dtype = value, np.dtype(dtype)
        self.interior = np.s_[:, top : top + h, left : left + w]
        self.scratch = (
            f"pad/{h}x{w}x{c}/{top},{bottom},{left},{right}/{value}/{dtype.name}",
            (n, top + h + bottom, left + w + right, c),
            dtype,
        )

    def bind(self, workspace: Workspace):
        """``(padded, copy_in)``: the border filled, and ``copy_in(x)``
        writing ``x`` (cast to the buffer's dtype) into the interior."""
        padded = workspace.take(*self.scratch)
        padded.fill(self.value)
        interior, in_shape = padded[self.interior], self.in_shape

        def copy_in(x):
            if x.shape != in_shape:  # copyto would broadcast
                raise ValueError(f"input is {x.shape}, kernel expects {in_shape}")
            np.copyto(interior, x)

        return padded, copy_in


class _Windowed:
    """A window form: the input padded in the arena, then its windows
    copied to a contiguous ``(N, pixels, taps, C)`` buffer, every call."""

    def __init__(self, name, in_shape, kh, kw, stride, dilation, padding, cout):
        n, h, w, c = in_shape
        geom = conv_geometry(h, w, kh, kw, stride, dilation, padding)
        self.geom, self.out_shape = geom, (n, geom.out_h, geom.out_w, cout)
        pad_value = 1.0 if padding is Padding.SAME_ONE else 0.0
        self.pad = _Padded(in_shape, geom.pads, pad_value, np.float32)
        self.window = (kh, kw, stride, dilation, geom.out_h, geom.out_w)
        pixels = geom.out_h * geom.out_w
        self.taps = (name, (n, pixels, kh * kw, c), np.dtype(np.float32))
        self.scratch = (self.pad.scratch, self.taps)

    def gather(self, workspace: Workspace):
        """``gather(x)``: ``x`` padded and windowed into the taps buffer,
        which it returns."""
        padded, copy_in = self.pad.bind(workspace)
        view = windows(padded, *self.window)
        taps = workspace.take(*self.taps)
        dst = taps.reshape(view.shape)

        def gather(x):
            copy_in(x)
            np.copyto(dst, view)
            return taps

        return gather


class BoundConv2D(_Windowed):
    """:func:`repro.kernels.conv2d.conv2d_float` for one input shape."""

    def __init__(
        self, in_shape, weights, bias=None, stride=1, dilation=1,
        padding=Padding.SAME_ZERO, activation=Activation.NONE,
    ) -> None:
        kh, kw, cin, cout = weights.shape
        if in_shape[3] != cin:
            raise ValueError(f"input channels {in_shape[3]} != weight channels {cin}")
        super().__init__(
            "conv2d/patches", in_shape, kh, kw, stride, dilation, padding, cout
        )
        kernel = weights.reshape(-1, cout).astype(np.float32, copy=False)
        self.epilogue = (kernel, _float32(bias), activation)
        # A 1x1 stride-1 convolution's patch matrix is its input.
        self.direct = kh == kw == stride == 1
        if self.direct:
            self.scratch = ()

    def bind(self, workspace: Workspace):
        epilogue, out_shape = self.epilogue, self.out_shape
        n, pixels, taps, c = self.taps[1]
        if self.direct:
            return lambda x: conv_gemm(
                np.ascontiguousarray(x, dtype=np.float32).reshape(n, pixels, c),
                *epilogue,
            ).reshape(out_shape)
        gather = self.gather(workspace)
        return lambda x: conv_gemm(
            gather(x).reshape(n, pixels, taps * c), *epilogue
        ).reshape(out_shape)


class BoundDepthwiseConv2D(_Windowed):
    """:func:`repro.kernels.depthwise.depthwise_conv2d_float` for one input
    shape."""

    def __init__(
        self, in_shape, weights, bias=None, stride=1, dilation=1,
        padding=Padding.SAME_ZERO, activation=Activation.NONE,
    ) -> None:
        if weights.ndim != 3 or weights.shape[-1] != in_shape[3]:
            raise ValueError(
                f"expected (kh, kw, C={in_shape[3]}) depthwise weights, "
                f"got {weights.shape}"
            )
        kh, kw, c = weights.shape
        super().__init__(
            "depthwise/taps", in_shape, kh, kw, stride, dilation, padding, c
        )
        self.epilogue = (weights.reshape(kh * kw, c), _float32(bias), activation)

    def bind(self, workspace: Workspace):
        gather, epilogue, shape = self.gather(workspace), self.epilogue, self.out_shape
        return lambda x: depthwise_taps(gather(x), *epilogue).reshape(shape)


class BoundAvgPool2D(_Windowed):
    """:func:`repro.kernels.pool.avgpool2d` for one input shape, its
    valid-count table computed here, once."""

    def __init__(self, in_shape, pool_h, pool_w, stride=None, padding=Padding.VALID):
        stride = stride or max(pool_h, pool_w)
        super().__init__(
            "avgpool/taps", in_shape, pool_h, pool_w, stride, 1, padding, in_shape[3]
        )
        self.counts = window_counts(*in_shape[1:3], pool_h, pool_w, stride, self.geom)

    def bind(self, workspace: Workspace):
        gather, counts, shape = self.gather(workspace), self.counts, self.out_shape
        return lambda x: window_mean(gather(x), counts).reshape(shape)


class BoundMaxPool2D:
    """:func:`repro.kernels.pool.maxpool2d` for one input shape and dtype,
    its row maxima in the arena."""

    def __init__(
        self, in_shape, pool_h, pool_w, stride=None, padding=Padding.VALID,
        dtype=np.float32,
    ) -> None:
        dtype = pool_dtype(dtype)
        stride = stride or max(pool_h, pool_w)
        n, h, w, c = in_shape
        geom = conv_geometry(h, w, pool_h, pool_w, stride, 1, padding)
        self.pad = _Padded(in_shape, geom.pads, lowest(dtype), dtype)
        self.window = (pool_h, pool_w, stride, geom.out_h, geom.out_w)
        span = (geom.out_h - 1) * stride + pool_h
        self.rows = (f"maxpool/rows/{dtype.name}", (n, span, geom.out_w, c), dtype)
        self.scratch = (self.pad.scratch, self.rows)[: 1 + (pool_w > 1)]

    def bind(self, workspace: Workspace):
        padded, copy_in = self.pad.bind(workspace)
        rows = workspace.take(*self.rows) if len(self.scratch) > 1 else None
        pool = separable_max(padded, *self.window, rows=rows)

        def run(x):
            copy_in(x)
            return pool()

        return run


class BoundGlobalAvgPool:
    """:func:`repro.kernels.pool.global_avgpool` for one input shape."""

    scratch = ()

    def __init__(self, in_shape) -> None:
        if len(in_shape) != 4:
            raise ValueError("expected NHWC input")

    def bind(self, workspace: Workspace):
        return lambda x: spatial_mean(x.astype(np.float32, copy=False))


class BoundDense:
    """:func:`repro.kernels.dense.dense_float` for one input shape."""

    scratch = ()

    def __init__(self, in_shape, weights, bias=None, activation=Activation.NONE):
        if weights.ndim != 2 or in_shape[-1] != weights.shape[0]:
            raise ValueError(
                f"input features {in_shape[-1]} do not match weights {weights.shape}"
            )
        kernel = weights.astype(np.float32, copy=False)
        self.epilogue = (kernel, _float32(bias), activation)

    def bind(self, workspace: Workspace):
        epilogue = self.epilogue
        return lambda x: dense_rows(x.astype(np.float32, copy=False), *epilogue)


class BoundLceQuantize:
    """:func:`repro.core.quantize_ops.lce_quantize` for one input shape.  It
    takes no scratch: the sign bytes are the one intermediate, and packing
    them (:func:`repro.core.bitpack.pack_signs`) allocates the result."""

    scratch = ()

    def __init__(self, in_shape) -> None:
        self.channels = in_shape[-1]
        self.words = packed_words(self.channels)

    def bind(self, workspace: Workspace):
        channels, words = self.channels, self.words

        def run(x):
            if x.dtype.kind not in "fiu":
                raise TypeError(f"cannot binarize dtype {x.dtype}")
            return PackedTensor(pack_signs(np.less(x, 0), words), channels)

        return run
