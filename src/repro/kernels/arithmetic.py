"""Elementwise and shape ops: add, mul, relu, softmax, concat, reshape.

The full-precision ``Add`` is the operator residual shortcuts pay for
(paper Section 5.2, Table 4), so it exists as a first-class op the latency
model can account for.
"""

from __future__ import annotations

import numpy as np


def add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise addition (the shortcut ``Add``)."""
    return np.add(a, b, dtype=np.result_type(a, b, np.float32))


def mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise multiplication (channel-wise scaling)."""
    return np.multiply(a, b, dtype=np.result_type(a, b, np.float32))


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


def relu6(x: np.ndarray) -> np.ndarray:
    return np.clip(x, 0, 6)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def concat(tensors: list[np.ndarray], axis: int = -1) -> np.ndarray:
    """Concatenation (DenseNet-style feature reuse)."""
    if not tensors:
        raise ValueError("concat of zero tensors")
    return np.concatenate(tensors, axis=axis)


def reshape(x: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    return np.reshape(x, shape)
