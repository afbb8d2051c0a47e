"""Tests for MAC counting, speedup stats, and regressions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.macs import MacCount, count_macs
from repro.analysis.regression import loglog_fit
from repro.analysis.speedup import speedup_stats
from repro.core.types import Padding
from repro.graph.builder import GraphBuilder


class TestMacCount:
    def test_dataclass_arithmetic(self):
        total = MacCount(binary=100, full_precision=10) + MacCount(binary=1)
        assert total.binary == 101
        assert total.total == 111

    def test_emacs(self):
        c = MacCount(binary=150, full_precision=10)
        assert c.emacs(15) == 10 + 10
        assert c.emacs(1) == 160

    def test_emacs_rejects_bad_ratio(self):
        with pytest.raises(ValueError):
            MacCount(binary=1).emacs(0)

    def test_conv_macs_hand_computed(self, rng):
        b = GraphBuilder((1, 8, 8, 4))
        b.conv2d(b.input, rng.standard_normal((3, 3, 4, 16)).astype(np.float32))
        g = b.finish(b.graph.nodes[-1].outputs[0])
        # SAME padding stride 1: 8*8 output pixels * 3*3*4*16
        assert count_macs(g).full_precision == 8 * 8 * 9 * 4 * 16

    def test_strided_conv_macs(self, rng):
        b = GraphBuilder((1, 8, 8, 4))
        b.conv2d(
            b.input, rng.standard_normal((3, 3, 4, 16)).astype(np.float32), stride=2
        )
        g = b.finish(b.graph.nodes[-1].outputs[0])
        assert count_macs(g).full_precision == 4 * 4 * 9 * 4 * 16

    def test_binary_conv_counted_as_binary(self, rng):
        b = GraphBuilder((1, 8, 8, 8))
        h = b.binarize(b.input)
        b.conv2d(
            h, rng.choice([-1.0, 1.0], (3, 3, 8, 8)).astype(np.float32),
            padding=Padding.SAME_ONE, binary_weights=True,
        )
        g = b.finish(b.graph.nodes[-1].outputs[0])
        macs = count_macs(g)
        assert macs.binary == 8 * 8 * 9 * 8 * 8
        assert macs.full_precision == 0

    def test_depthwise_and_dense(self, rng):
        b = GraphBuilder((1, 8, 8, 4))
        x = b.depthwise_conv2d(b.input, rng.standard_normal((3, 3, 4)).astype(np.float32))
        x = b.global_avgpool(x)
        x = b.dense(x, rng.standard_normal((4, 10)).astype(np.float32))
        g = b.finish(x)
        macs = count_macs(g)
        assert macs.full_precision == 8 * 8 * 4 * 9 + 4 * 10

    def test_invariant_under_conversion(self, rng):
        from repro.converter import convert
        from repro.zoo import quicknet

        g = quicknet("small", input_size=64)
        before = count_macs(g)
        after = count_macs(convert(g).graph)
        assert before.binary == after.binary
        assert before.full_precision == after.full_precision


class TestSpeedupStats:
    def test_basic(self):
        s = speedup_stats([10.0, 20.0], [1.0, 1.0])
        assert s.mean == 15.0
        assert s.minimum == 10.0 and s.maximum == 20.0
        assert s.count == 2

    def test_weighted_mean_weights_by_baseline(self):
        # 10x speedup on the heavy case, 2x on the light one.
        s = speedup_stats([100.0, 1.0], [10.0, 0.5])
        assert s.weighted_mean == pytest.approx((10 * 100 + 2 * 1) / 101)

    def test_as_row(self):
        row = speedup_stats([10.0], [1.0]).as_row()
        assert row["mean"] == "10.0x"
        assert row["range"] == "10.0-10.0x"

    def test_validation(self):
        with pytest.raises(ValueError):
            speedup_stats([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            speedup_stats([], [])
        with pytest.raises(ValueError):
            speedup_stats([1.0], [0.0])


class TestLogLogFit:
    def test_recovers_power_law(self):
        x = np.array([1.0, 10.0, 100.0, 1000.0])
        y = 3.0 * x**1.5
        fit = loglog_fit(x, y)
        assert fit.slope == pytest.approx(1.5)
        assert fit.r_squared == pytest.approx(1.0)
        assert fit.predict(10000.0) == pytest.approx(3.0 * 10000**1.5, rel=1e-6)

    def test_r_squared_below_one_with_noise(self):
        rng = np.random.default_rng(0)
        x = np.logspace(0, 4, 50)
        y = x * np.exp(rng.normal(0, 0.3, 50))
        fit = loglog_fit(x, y)
        assert 0.5 < fit.r_squared < 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            loglog_fit([1.0], [1.0])
        with pytest.raises(ValueError):
            loglog_fit([1.0, -1.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            loglog_fit([2.0, 2.0], [1.0, 3.0])


class TestInt8MacCounting:
    def test_ptq_preserves_mac_count(self, rng):
        """Quantization changes dtypes, not arithmetic volume."""
        from repro.graph.builder import GraphBuilder
        from repro.ptq import quantize_model

        b = GraphBuilder((1, 8, 8, 4))
        x = b.conv2d(b.input, rng.standard_normal((3, 3, 4, 8)).astype(np.float32))
        x = b.global_avgpool(x)
        x = b.dense(x, rng.standard_normal((8, 5)).astype(np.float32))
        g = b.finish(x)
        calib = [rng.standard_normal((1, 8, 8, 4)).astype(np.float32)]
        qg = quantize_model(g, calib)
        assert count_macs(qg).full_precision == count_macs(g).full_precision
