"""Wall-clock of the real NumPy kernels for two Figure 2 convolutions.

Figure 2's simulated speedups are ledger claims (``F2.*``); this measures
the bound binarized conv a plan runs against the float conv.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bconv2d import BConv2DParams, BoundBConv2D, pack_filters
from repro.core.quantize_ops import lce_quantize
from repro.core.types import Padding
from repro.core.workspace import Workspace
from repro.kernels.conv2d import conv2d_float


@pytest.mark.parametrize("label,hw,c", [("A", 56, 64), ("D", 7, 256)])
class TestRealKernels:
    """Wall-clock of the actual NumPy kernels for two Figure 2 convs."""

    def test_binary_conv_wallclock(self, benchmark, rng, label, hw, c):
        """The bound kernel a plan runs (``bconv2d``, the reference, is a
        float GEMM)."""
        x = lce_quantize(rng.standard_normal((1, hw, hw, c)).astype(np.float32))
        filters = pack_filters(rng.choice([-1.0, 1.0], (3, 3, c, c)).astype(np.float32))
        params = BConv2DParams(3, 3, c, c, padding=Padding.SAME_ONE)
        run = BoundBConv2D(filters, params, hw, hw, 1).bind(Workspace())
        out = benchmark(run, x)
        assert out.shape == (1, hw, hw, c)

    def test_float_conv_wallclock(self, benchmark, rng, label, hw, c):
        x = rng.standard_normal((1, hw, hw, c)).astype(np.float32)
        w = rng.standard_normal((3, 3, c, c)).astype(np.float32)
        out = benchmark(conv2d_float, x, w, None, 1, 1, Padding.SAME_ZERO)
        assert out.shape == (1, hw, hw, c)
