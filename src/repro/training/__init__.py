"""BNN training substrate (the Larq analog).

Implements the training method the paper uses for QuickNet (Section 5.1):
latent float weights binarized in the forward pass with the
straight-through estimator, the Adam optimizer for binary weights and
SGD-with-momentum for full-precision variables, linear warmup + cosine
decay schedules, and a mini training loop.

ImageNet is unavailable offline, so :mod:`repro.training.data` provides
synthetic classification tasks; the tests verify the machinery *learns*
(loss decreases, accuracy beats chance) rather than chasing benchmark
accuracy — see the substitution notes in DESIGN.md.
"""

from repro.training.data import synthetic_images
from repro.training.layers import (
    BatchNormLayer,
    DenseLayer,
    GlobalAvgPoolLayer,
    QuantConv2D,
    ReluLayer,
    Sequential,
    softmax_cross_entropy,
)
from repro.training.loop import TrainConfig, Trainer
from repro.training.optimizers import Adam, SGDMomentum
from repro.training.schedules import warmup_cosine
from repro.training.ste import clip_latent_weights, ste_sign, ste_sign_grad

__all__ = [
    "Adam",
    "BatchNormLayer",
    "DenseLayer",
    "GlobalAvgPoolLayer",
    "QuantConv2D",
    "ReluLayer",
    "SGDMomentum",
    "Sequential",
    "TrainConfig",
    "Trainer",
    "clip_latent_weights",
    "softmax_cross_entropy",
    "ste_sign",
    "ste_sign_grad",
    "synthetic_images",
    "warmup_cosine",
]
