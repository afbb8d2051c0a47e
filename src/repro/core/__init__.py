"""The LCE operator set: the paper's primary contribution.

This subpackage implements the binarized operators described in Section 3.2
of the paper with bit-exact semantics:

- :mod:`repro.core.bitpack` — channel-axis bitpacking (``LceQuantize``'s
  storage format): bit 0 encodes +1.0, bit 1 encodes -1.0.
- :mod:`repro.core.bgemm` — binary GEMM via XOR + popcount.
- :mod:`repro.core.im2col` — im2col for dense tensors, window views and
  the padded-tap mask of LCE's zero-padding correction.
- :mod:`repro.core.bconv2d` — ``LceBConv2d`` with fused multiplier/bias/
  activation, float or bitpacked output, one- or zero-padding; compiled
  plans run it as a ``BoundBConv2D`` (everything static resolved once),
  and ``bconv2d``, the exact +/-1 float convolution, is its reference.
- :mod:`repro.core.quantize_ops` — ``LceQuantize`` / ``LceDequantize``.
- :mod:`repro.core.bmaxpool` — ``LceBMaxPool2d`` (bitwise-AND max pooling).
- :mod:`repro.core.output_transform` — accumulator-to-output stage,
  including the precomputed-threshold path for bitpacked output.
- :mod:`repro.core.indirection` — precomputed im2col gather indices,
  built per call and never cached; no kernel under ``src/`` runs them
  any more, ``bench/``'s probes still do.
- :mod:`repro.core.workspace` — the preallocated scratch arena making the
  steady-state plan path allocation-free.
"""

from repro.core.bconv2d import (
    BConv2DParams,
    BoundBConv2D,
    PackedFilters,
    pack_filters,
    reserve_bconv2d_workspace,
    zero_padding_correction,
)
from repro.core.indirection import (
    get_indirection,
    im2col_indirect,
)
from repro.core.workspace import Workspace
from repro.core.bgemm import bgemm_blocked
from repro.core.bitpack import (
    WORD_BITS,
    PackedTensor,
    pack_bits,
    packed_words,
    popcount,
    unpack_bits,
)
from repro.core.bmaxpool import bmaxpool2d
from repro.core.im2col import (
    ConvGeometry,
    conv_geometry,
    im2col_float,
    padded_tap_mask,
    windows,
)
from repro.core.output_transform import (
    OutputThresholds,
    accumulators_to_bitpacked,
    accumulators_to_float,
    compute_output_thresholds,
)
from repro.core.quantize_ops import lce_dequantize, lce_quantize
from repro.core.types import Activation, OutputType, Padding

__all__ = [
    "Activation",
    "BConv2DParams",
    "BoundBConv2D",
    "ConvGeometry",
    "OutputThresholds",
    "OutputType",
    "PackedFilters",
    "PackedTensor",
    "Padding",
    "WORD_BITS",
    "Workspace",
    "accumulators_to_bitpacked",
    "accumulators_to_float",
    "bgemm_blocked",
    "bmaxpool2d",
    "compute_output_thresholds",
    "conv_geometry",
    "get_indirection",
    "im2col_float",
    "im2col_indirect",
    "lce_dequantize",
    "lce_quantize",
    "pack_bits",
    "pack_filters",
    "packed_words",
    "padded_tap_mask",
    "popcount",
    "reserve_bconv2d_workspace",
    "unpack_bits",
    "windows",
    "zero_padding_correction",
]
