"""Shared enums and small value types for the LCE operator set."""

from __future__ import annotations

import enum

import numpy as np


class Padding(str, enum.Enum):
    """Spatial padding mode of a convolution.

    ``VALID`` performs no padding.  ``SAME_ONE`` is LCE's one-padding: padded
    positions take the value +1.0, which bitpacks to zero bits and therefore
    costs nothing at inference time (paper Section 3.2).  ``SAME_ZERO`` is
    TensorFlow's default zero-padding; for binarized convolutions it requires
    an extra correction step and is slower.
    """

    VALID = "valid"
    SAME_ONE = "same_one"
    SAME_ZERO = "same_zero"


class Activation(str, enum.Enum):
    """Fused activation applied in the output transformation."""

    NONE = "none"
    RELU = "relu"
    RELU6 = "relu6"

    def apply(self, x, out=None):
        """``f(x)``; with ``out`` (e.g. ``x`` itself) the same NumPy call
        writes there instead of allocating."""
        if self is Activation.NONE:
            return x
        if self is Activation.RELU:
            # what x.clip(min=0) dispatches to, minus its Python wrapper
            return np.maximum(x, 0, out=out)
        return x.clip(min=0, max=6, out=out)


class OutputType(str, enum.Enum):
    """Output representation written by ``LceBConv2d``.

    ``FLOAT`` materializes full-precision values (needed e.g. when the
    output feeds a residual shortcut).  ``BITPACKED`` compares accumulators
    against converter-precomputed thresholds and writes sign bits directly,
    eliminating the intermediate ``LceQuantize`` (paper Section 3.1).
    ``INT8`` writes 8-bit quantized output for consumers in a TFLite-int8
    section of the graph.
    """

    FLOAT = "float"
    BITPACKED = "bitpacked"
    INT8 = "int8"
