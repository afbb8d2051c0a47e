"""Synthetic image classification data (the offline ImageNet stand-in).

Each class gets a random prototype image; samples are noisy prototypes, so
convolutional models have class-specific spatial patterns to exploit.  See
DESIGN.md: the point is verifying the training machinery learns, not
benchmarking accuracy.
"""

from __future__ import annotations

import numpy as np


def synthetic_images(
    n_samples: int,
    size: int,
    channels: int,
    n_classes: int,
    noise: float = 0.5,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """NHWC image classification data with class-specific spatial patterns."""
    if min(n_samples, size, channels, n_classes) <= 0:
        raise ValueError("sizes must be positive")
    rng = np.random.default_rng(seed)
    prototypes = rng.standard_normal((n_classes, size, size, channels)).astype(
        np.float32
    )
    labels = rng.integers(0, n_classes, n_samples)
    x = prototypes[labels] + noise * rng.standard_normal(
        (n_samples, size, size, channels)
    ).astype(np.float32)
    return x.astype(np.float32), labels
