"""float32 and int8 2-D convolutions (im2col + GEMM), NHWC layout.

These are the full-precision baselines the paper benchmarks binarized
convolutions against (Figures 2, 3, 11, 12) and the kernels behind the
full-precision layers of every zoo model.
"""

from __future__ import annotations

import numpy as np

from repro.core.im2col import im2col_float
from repro.core.types import Activation, Padding
from repro.kernels.quantization import QuantParams, requantize


def conv2d_float(
    x: np.ndarray,
    weights: np.ndarray,
    bias: np.ndarray | None = None,
    stride: int = 1,
    dilation: int = 1,
    padding: Padding = Padding.SAME_ZERO,
    activation: Activation = Activation.NONE,
) -> np.ndarray:
    """Standard float32 convolution.

    Args:
        x: ``(N, H, W, C_in)`` input.
        weights: ``(kh, kw, C_in, C_out)`` HWIO filters.
        bias: optional ``(C_out,)`` bias.
        stride, dilation, padding: spatial parameters.
        activation: fused activation.
    """
    if x.ndim != 4 or weights.ndim != 4:
        raise ValueError("conv2d_float expects NHWC input and HWIO weights")
    kh, kw, cin, cout = weights.shape
    if x.shape[-1] != cin:
        raise ValueError(f"input channels {x.shape[-1]} != weight channels {cin}")
    pad_value = 1.0 if padding is Padding.SAME_ONE else 0.0
    patches, geom = im2col_float(
        x.astype(np.float32, copy=False), kh, kw, stride, dilation, padding,
        pad_value,
    )
    n, k = x.shape[0], patches.shape[1]
    kernel = weights.reshape(k, cout).astype(np.float32, copy=False)
    bias = None if bias is None else np.asarray(bias, dtype=np.float32)
    out = conv_gemm(patches.reshape(n, -1, k), kernel, bias, activation)
    return out.reshape(n, geom.out_h, geom.out_w, cout)


def conv_gemm(
    patches: np.ndarray,
    kernel: np.ndarray,
    bias: np.ndarray | None,
    activation: Activation,
) -> np.ndarray:
    """``act(patches @ kernel + bias)``, float32 ``(N, pixels, K)`` by
    ``(K, C_out)``: one GEMM per image, the same shape whatever the batch
    (float BLAS results depend on the row count), then bias and activation
    in place on the fresh product."""
    out = patches @ kernel
    if bias is not None:
        out += bias
    return activation.apply(out, out=out)


def conv2d_int8(
    x_q: np.ndarray,
    w_q: np.ndarray,
    in_params: QuantParams,
    w_scales: np.ndarray,
    out_params: QuantParams,
    bias_q: np.ndarray | None = None,
    stride: int = 1,
    dilation: int = 1,
    padding: Padding = Padding.SAME_ZERO,
) -> np.ndarray:
    """TFLite-style int8 convolution with per-channel weight scales.

    Args:
        x_q: ``(N, H, W, C_in)`` int8 input.
        w_q: ``(kh, kw, C_in, C_out)`` int8 weights (symmetric, zp 0).
        in_params: input quantization parameters.
        w_scales: ``(C_out,)`` per-channel weight scales.
        out_params: output quantization parameters.
        bias_q: optional int32 bias already at scale ``in.scale * w_scale``.
    """
    if x_q.dtype != np.int8 or w_q.dtype != np.int8:
        raise TypeError("conv2d_int8 expects int8 operands")
    kh, kw, cin, cout = w_q.shape
    # im2col in int32 after zero-point removal; padding contributes 0
    # (i.e. the padded q-value equals the zero point).
    centered = x_q.astype(np.int32) - np.int32(in_params.zero_point)
    patches, geom = im2col_float(
        centered.astype(np.float64), kh, kw, stride, dilation, padding, 0.0
    )
    acc = (patches.astype(np.int64) @ w_q.reshape(-1, cout).astype(np.int64)).astype(
        np.int64
    )
    if bias_q is not None:
        acc = acc + np.asarray(bias_q, dtype=np.int64)
    effective = in_params.scale * np.asarray(w_scales) / out_params.scale
    out = requantize(acc, effective, out_params)
    return out.reshape(x_q.shape[0], geom.out_h, geom.out_w, cout)
