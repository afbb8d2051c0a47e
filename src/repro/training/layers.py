"""Trainable layers with manual backprop.

A deliberately small layer stack — enough to train real (small) BNNs end to
end in NumPy and to verify the straight-through-estimator machinery, not a
general autodiff system.  Parameters carry a ``group`` tag (``"binary"`` or
``"full_precision"``) so the trainer can assign the paper's mixed
optimizers (Adam for binary weights, SGD+momentum for the rest).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.im2col import im2col_float
from repro.core.types import Padding
from repro.training.ste import ste_sign, ste_sign_grad


@dataclass
class Param:
    """One trainable tensor."""

    value: np.ndarray
    group: str  # "binary" (latent weights) or "full_precision"
    grad: np.ndarray | None = None
    name: str = ""


class Layer:
    """Forward/backward protocol."""

    def params(self) -> list[Param]:
        return []

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dout: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class QuantConv2D(Layer):
    """Binarized 3x3-style convolution (stride 1) with one-padding."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel: int = 3,
        binarize_input: bool = True,
        padding: Padding = Padding.SAME_ONE,
        rng: np.random.Generator | None = None,
    ) -> None:
        rng = rng or np.random.default_rng(0)
        fan_in = kernel * kernel * in_channels
        scale = 1.0 / np.sqrt(fan_in)
        self.w = Param(
            rng.uniform(-scale, scale, (kernel, kernel, in_channels, out_channels)).astype(
                np.float32
            ),
            group="binary",
            name="quant_conv/w",
        )
        self.kernel = kernel
        self.padding = padding
        self.binarize_input = binarize_input
        self._cache: tuple | None = None

    def params(self) -> list[Param]:
        return [self.w]

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        xb = ste_sign(x) if self.binarize_input else x
        wb = ste_sign(self.w.value)
        pad_value = 1.0 if self.padding is Padding.SAME_ONE else 0.0
        patches, geom = im2col_float(
            xb, self.kernel, self.kernel, 1, 1, self.padding, pad_value
        )
        cout = wb.shape[-1]
        out = patches @ wb.reshape(-1, cout)
        n = x.shape[0]
        self._cache = (x, patches, wb, geom, n)
        return out.reshape(n, geom.out_h, geom.out_w, cout)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        x, patches, wb, geom, n = self._cache
        cout = wb.shape[-1]
        dout2 = dout.reshape(-1, cout)
        dw_binary = (patches.T @ dout2).reshape(self.w.value.shape)
        self.w.grad = ste_sign_grad(self.w.value, dw_binary)
        # Gradient w.r.t. the patches, scattered back (col2im).
        dpatches = dout2 @ wb.reshape(-1, cout).T
        dx_binary = _col2im(
            dpatches, x.shape, self.kernel, geom
        )
        return ste_sign_grad(x, dx_binary) if self.binarize_input else dx_binary


def _col2im(dpatches: np.ndarray, x_shape: tuple, kernel: int, geom) -> np.ndarray:
    """Scatter patch gradients back onto the (padded, stride-1) image."""
    n, h, w, c = x_shape
    ph = h + geom.pad_top + geom.pad_bottom
    pw = w + geom.pad_left + geom.pad_right
    dx = np.zeros((n, ph, pw, c), np.float32)
    dpatches = dpatches.reshape(n, geom.out_h, geom.out_w, kernel, kernel, c)
    for ky in range(kernel):
        for kx in range(kernel):
            dx[:, ky : ky + geom.out_h, kx : kx + geom.out_w, :] += dpatches[
                :, :, :, ky, kx, :
            ]
    return dx[
        :, geom.pad_top : geom.pad_top + h, geom.pad_left : geom.pad_left + w, :
    ]


class BatchNormLayer(Layer):
    """Batch normalization with trainable scale/shift and running stats."""

    def __init__(self, channels: int, momentum: float = 0.9, eps: float = 1e-3) -> None:
        self.gamma = Param(np.ones(channels, np.float32), "full_precision", name="bn/gamma")
        self.beta = Param(np.zeros(channels, np.float32), "full_precision", name="bn/beta")
        self.running_mean = np.zeros(channels, np.float32)
        self.running_var = np.ones(channels, np.float32)
        self.momentum = momentum
        self.eps = eps
        self._cache: tuple | None = None

    def params(self) -> list[Param]:
        return [self.gamma, self.beta]

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        axes = tuple(range(x.ndim - 1))
        if training:
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            self.running_mean = (
                self.momentum * self.running_mean + (1 - self.momentum) * mean
            ).astype(np.float32)
            self.running_var = (
                self.momentum * self.running_var + (1 - self.momentum) * var
            ).astype(np.float32)
        else:
            mean, var = self.running_mean, self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - mean) * inv_std
        self._cache = (x_hat, inv_std, axes)
        return (self.gamma.value * x_hat + self.beta.value).astype(np.float32)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        x_hat, inv_std, axes = self._cache
        m = float(np.prod([dout.shape[a] for a in axes]))
        self.gamma.grad = (dout * x_hat).sum(axis=axes).astype(np.float32)
        self.beta.grad = dout.sum(axis=axes).astype(np.float32)
        dxhat = dout * self.gamma.value
        dx = (
            dxhat - dxhat.mean(axis=axes) - x_hat * (dxhat * x_hat).mean(axis=axes)
        ) * inv_std
        return dx.astype(np.float32)


class ReluLayer(Layer):
    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        self._mask = x > 0
        return np.where(self._mask, x, 0.0).astype(np.float32)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        return np.where(self._mask, dout, 0.0).astype(np.float32)


class GlobalAvgPoolLayer(Layer):
    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        self._shape = x.shape
        return x.mean(axis=(1, 2))

    def backward(self, dout: np.ndarray) -> np.ndarray:
        n, h, w, c = self._shape
        return (
            np.broadcast_to(dout[:, None, None, :], self._shape) / (h * w)
        ).astype(np.float32)


class DenseLayer(Layer):
    """Full-precision dense layer (the classifier head)."""

    def __init__(
        self, in_features: int, out_features: int, rng: np.random.Generator | None = None
    ) -> None:
        rng = rng or np.random.default_rng(0)
        scale = np.sqrt(2.0 / in_features)
        self.w = Param(
            (rng.standard_normal((in_features, out_features)) * scale).astype(np.float32),
            group="full_precision",
            name="dense/w",
        )
        self.b = Param(np.zeros(out_features, np.float32), "full_precision", name="dense/b")
        self._cache: np.ndarray | None = None

    def params(self) -> list[Param]:
        return [self.w, self.b]

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        self._cache = x
        return x @ self.w.value + self.b.value

    def backward(self, dout: np.ndarray) -> np.ndarray:
        x = self._cache
        self.w.grad = (x.T @ dout).astype(np.float32)
        self.b.grad = dout.sum(axis=0).astype(np.float32)
        return (dout @ self.w.value.T).astype(np.float32)


class Sequential(Layer):
    """A chain of layers."""

    def __init__(self, layers: list[Layer]) -> None:
        self.layers = layers

    def params(self) -> list[Param]:
        return [p for layer in self.layers for p in layer.params()]

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x, training=training)
        return x

    def backward(self, dout: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            dout = layer.backward(dout)
        return dout


def softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean CE loss and the gradient w.r.t. the logits."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    n = logits.shape[0]
    loss = float(-np.log(probs[np.arange(n), labels] + 1e-12).mean())
    grad = probs.copy()
    grad[np.arange(n), labels] -= 1.0
    return loss, (grad / n).astype(np.float32)
