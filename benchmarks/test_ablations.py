"""Wall-clock ablation: Ruy-style blocked BGEMM vs the all-at-once kernel.

The simulated ablations (padding, chain fusion, BN fusion, bmaxpool swap)
are ledger claims A1-A4 (``repro.experiments.ablations``).
"""

from __future__ import annotations

import numpy as np
import pytest


class TestTilingAblation:
    """Ruy-style blocked BGEMM vs the all-at-once kernel, real wall-clock.

    Blocking bounds the XOR temporary; for large outputs the monolithic
    kernel allocates an (M, N, W) cube and loses to the tiled kernel.
    """

    M, K, N = 3136, 576, 256

    @pytest.fixture(scope="class")
    def operands(self):
        from repro.core.bitpack import pack_bits

        rng = np.random.default_rng(1)
        a = pack_bits(rng.choice([-1.0, 1.0], (self.M, self.K))).bits
        b = pack_bits(rng.choice([-1.0, 1.0], (self.N, self.K))).bits
        return a, b

    def test_blocked(self, benchmark, operands):
        from repro.core.bgemm import bgemm_blocked

        a, b = operands
        out = benchmark(bgemm_blocked, a, b, self.K)
        assert out.shape == (self.M, self.N)

    def test_monolithic(self, benchmark, operands):
        from repro.core.bgemm import bgemm

        a, b = operands
        out = benchmark(bgemm, a, b, self.K)
        assert out.shape == (self.M, self.N)
