"""Fully connected layers, float32 and int8.

Every model in the paper ends with a full-precision fully connected layer
mapping pooled features to the 1000 ImageNet classes.
"""

from __future__ import annotations

import numpy as np

from repro.core.types import Activation
from repro.kernels.quantization import QuantParams, requantize


def dense_float(
    x: np.ndarray,
    weights: np.ndarray,
    bias: np.ndarray | None = None,
    activation: Activation = Activation.NONE,
) -> np.ndarray:
    """``y = act(x @ W + b)`` with ``W`` of shape ``(in, out)``."""
    if weights.ndim != 2:
        raise ValueError(f"expected 2-D weights, got {weights.ndim}-D")
    if x.shape[-1] != weights.shape[0]:
        raise ValueError(
            f"input features {x.shape[-1]} != weight rows {weights.shape[0]}"
        )
    # copy=False: float32 operands (the usual case) are multiplied in place —
    # a per-call copy of a 512 x 1000 weight matrix cost 10x the product.
    bias = None if bias is None else np.asarray(bias, dtype=np.float32)
    return dense_rows(
        x.astype(np.float32, copy=False),
        weights.astype(np.float32, copy=False),
        bias,
        activation,
    )


def dense_rows(
    x: np.ndarray,
    weights: np.ndarray,
    bias: np.ndarray | None,
    activation: Activation,
) -> np.ndarray:
    """``act(x @ weights + bias)``, float32, one ``(1, in) @ (in, out)``
    product per row (a GEMM over all rows rounds differently per row
    count), then bias and activation in place on the fresh product."""
    out = (x[..., None, :] @ weights)[..., 0, :]
    if bias is not None:
        out += bias
    return activation.apply(out, out=out)


def dense_int8(
    x_q: np.ndarray,
    w_q: np.ndarray,
    in_params: QuantParams,
    w_scales: np.ndarray,
    out_params: QuantParams,
    bias_q: np.ndarray | None = None,
) -> np.ndarray:
    """int8 fully connected layer with per-output-channel weight scales."""
    if x_q.dtype != np.int8 or w_q.dtype != np.int8:
        raise TypeError("dense_int8 expects int8 operands")
    centered = x_q.astype(np.int64) - in_params.zero_point
    acc = centered @ w_q.astype(np.int64)
    if bias_q is not None:
        acc = acc + np.asarray(bias_q, dtype=np.int64)
    effective = in_params.scale * np.asarray(w_scales) / out_params.scale
    return requantize(acc, effective, out_params)
