"""Shared building blocks for zoo models."""

from __future__ import annotations

import numpy as np

from repro.core.types import Padding
from repro.graph.builder import GraphBuilder
from repro.kernels.batchnorm import BatchNormParams
from repro.kernels.depthwise import blur_kernel


# Elements per float64 draw in :func:`normal_float32`: 512 KB of scratch.
_NORMAL_CHUNK = 1 << 16


def normal_float32(
    rng: np.random.Generator, shape: int | tuple[int, ...], scale: float
) -> np.ndarray:
    """``(rng.standard_normal(shape) * scale).astype(np.float32)``, chunked.

    Fills the float32 result from float64 draws of ``_NORMAL_CHUNK``
    elements.  The generator yields the same stream in chunks as in one
    call and each element is scaled and rounded the same way, so the
    values and the generator's state afterwards are bit-identical to the
    one-shot formula; only its two result-sized float64 temporaries
    (19 MB for a 3x3x512x512 conv) are gone.
    """
    out = np.empty(shape, np.float32)
    flat = out.reshape(-1)
    buf = np.empty(min(flat.size, _NORMAL_CHUNK))
    for start in range(0, flat.size, _NORMAL_CHUNK):
        chunk = buf[: min(_NORMAL_CHUNK, flat.size - start)]
        rng.standard_normal(out=chunk)
        chunk *= scale
        flat[start : start + chunk.size] = chunk
    return out


# Signs per random draw in :meth:`WeightFactory.binary`: 8 KB of bytes.
_SIGN_CHUNK = 1 << 16


class WeightFactory:
    """Deterministic weight initialization for zoo models.

    Real pretrained weights are irrelevant to latency (the experiments this
    zoo feeds measure geometry, not accuracy), but tests want determinism,
    so every model seeds its own generator.  Every normal is drawn through
    :func:`normal_float32`.

    The latent weights of binarized convolutions (:meth:`binary`) come from
    a second generator, ``default_rng([seed, 1])``, as ``+/-scale`` with
    fair random signs: only their sign is ever read (the converter packs
    ``w < 0``, the training-graph ``conv2d`` takes ``np.where(w < 0, -1,
    1)``), and Gaussians for them would be most of a model's build time.
    Every other draw is on :attr:`rng`.
    """

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.sign_rng = np.random.default_rng([seed, 1])

    def conv(self, kh: int, kw: int, cin: int, cout: int) -> np.ndarray:
        fan_in = kh * kw * cin
        scale = np.sqrt(2.0 / fan_in)
        return normal_float32(self.rng, (kh, kw, cin, cout), scale)

    def binary(self, kh: int, kw: int, cin: int, cout: int) -> np.ndarray:
        """Latent weights of a binarized conv: float32 ``+/-sqrt(2 / fan_in)``.

        Each sign is one random bit from :attr:`sign_rng`, unpacked from
        ``_SIGN_CHUNK / 8`` random bytes at a time, so the only scratch is
        the chunk's bytes and bits.
        """
        scale = np.float32(np.sqrt(2.0 / (kh * kw * cin)))
        out = np.empty((kh, kw, cin, cout), np.float32)
        flat = out.reshape(-1)
        for start in range(0, flat.size, _SIGN_CHUNK):
            chunk = flat[start : start + _SIGN_CHUNK]
            raw = np.frombuffer(self.sign_rng.bytes(-(-chunk.size // 8)), np.uint8)
            # bit * -2s + s is exactly -s or s; a masked ufunc is 30x slower.
            np.multiply(np.unpackbits(raw, count=chunk.size), -2 * scale, out=chunk)
            chunk += scale
        return out

    def depthwise(self, kh: int, kw: int, c: int) -> np.ndarray:
        scale = np.sqrt(2.0 / (kh * kw))
        return normal_float32(self.rng, (kh, kw, c), scale)

    def dense(self, cin: int, cout: int) -> np.ndarray:
        scale = np.sqrt(2.0 / cin)
        return normal_float32(self.rng, (cin, cout), scale)

    def bias(self, c: int) -> np.ndarray:
        return np.zeros(c, np.float32)

    def bn(self, c: int) -> BatchNormParams:
        return BatchNormParams(
            gamma=self.rng.uniform(0.6, 1.4, c).astype(np.float32),
            beta=normal_float32(self.rng, c, 0.1),
            mean=normal_float32(self.rng, c, 0.1),
            variance=self.rng.uniform(0.5, 1.5, c).astype(np.float32),
        )


def binary_conv(
    b: GraphBuilder,
    wf: WeightFactory,
    x: str,
    cin: int,
    cout: int,
    kernel: int = 3,
    stride: int = 1,
    padding: Padding = Padding.SAME_ONE,
) -> str:
    """A binarized convolution in training form: sign(x) * sign(W)."""
    h = b.binarize(x)
    return b.conv2d(
        h, wf.binary(kernel, kernel, cin, cout),
        stride=stride, padding=padding, binary_weights=True,
    )


def conv_bn(
    b: GraphBuilder,
    wf: WeightFactory,
    x: str,
    cin: int,
    cout: int,
    kernel: int,
    stride: int = 1,
    activation: bool = True,
    padding: Padding = Padding.SAME_ZERO,
) -> str:
    """Full-precision conv + BN (+ ReLU): the standard stem block."""
    x = b.conv2d(x, wf.conv(kernel, kernel, cin, cout), stride=stride, padding=padding)
    x = b.batch_norm(x, wf.bn(cout))
    if activation:
        x = b.relu(x)
    return x


def antialiased_maxpool(b: GraphBuilder, wf: WeightFactory, x: str, channels: int) -> str:
    """Antialiased 3x3 max pooling (Zhang 2019; paper Figure 6b).

    Realized efficiently as a stride-1 max pool followed by a strided
    depthwise convolution with a fixed blurring kernel.
    """
    x = b.maxpool2d(x, 3, 3, stride=1, padding=Padding.SAME_ZERO)
    blur = np.repeat(blur_kernel(3)[:, :, None], channels, axis=2).astype(np.float32)
    return b.depthwise_conv2d(x, blur, stride=2, padding=Padding.SAME_ZERO)


def classifier_head(
    b: GraphBuilder, wf: WeightFactory, x: str, channels: int, classes: int = 1000
) -> str:
    """Global average pooling + full-precision fully connected layer."""
    x = b.global_avgpool(x)
    x = b.dense(x, wf.dense(channels, classes), wf.bias(classes))
    return b.softmax(x)
