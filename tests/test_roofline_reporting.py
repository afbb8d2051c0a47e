"""Tests for the roofline analysis and experiment reporting helpers."""

from __future__ import annotations

import pytest

from repro.experiments import figure7
from repro.experiments.reporting import ascii_scatter
from repro.hw.device import DeviceModel
from repro.hw.roofline import conv_roofline, intensity_advantage


class TestRoofline:
    def test_binary_has_highest_intensity(self):
        points = conv_roofline(DeviceModel.pixel1(), 14, 14, 256)
        assert (
            points["binary"].arithmetic_intensity
            > points["int8"].arithmetic_intensity
            > points["float32"].arithmetic_intensity
        )

    def test_intensity_advantage_grows_with_depth(self):
        """As weights/patches dominate traffic over the float output, the
        binary intensity advantage approaches the 32x storage ratio."""
        dev = DeviceModel.pixel1()
        shallow = intensity_advantage(dev, in_h=14, in_w=14, channels=32)
        deep = intensity_advantage(dev, in_h=14, in_w=14, channels=256, kernel=5)
        assert deep > shallow
        assert deep < 32.0

    def test_attainable_respects_roofline(self):
        dev = DeviceModel.pixel1()
        for p in conv_roofline(dev, 28, 28, 128).values():
            attainable = p.attainable_macs_per_cycle(dev)
            assert attainable <= p.sustained_macs_per_cycle
            if p.is_compute_bound(dev):
                assert attainable == p.sustained_macs_per_cycle

    def test_balance_point_scales_with_peak(self):
        dev = DeviceModel.pixel1()
        points = conv_roofline(dev, 28, 28, 128)
        # The faster the kernel, the more intensity it needs to stay fed.
        assert points["binary"].balance_point(dev) > points["float32"].balance_point(dev)


class TestAsciiScatter:
    def test_contains_markers_and_legend(self):
        plot = ascii_scatter(
            {"float32": [(1e6, 1.0), (1e8, 100.0)], "binary": [(1e6, 0.1)]},
            x_label="MACs", y_label="ms",
        )
        assert "F" in plot and "B" in plot
        assert "F=float32" in plot
        assert "> MACs (log)" in plot

    def test_single_point(self):
        plot = ascii_scatter({"one": [(10.0, 10.0)]}, log_x=False, log_y=False)
        assert "O" in plot

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ascii_scatter({})

    def test_monotone_series_renders_monotone(self):
        plot = ascii_scatter(
            {"s": [(1.0, 1.0), (10.0, 10.0), (100.0, 100.0)]},
            width=30, height=10,
        )
        rows = [i for i, line in enumerate(plot.split("\n")) if "S" in line]
        cols = [line.index("S") for line in plot.split("\n") if "S" in line]
        # increasing x (columns) appears at decreasing rows (higher y)
        assert rows == sorted(rows)
        assert cols == sorted(cols, reverse=True)

    def test_series_sharing_a_first_letter_get_distinct_markers(self):
        plot = ascii_scatter({"binary": [(1.0, 1.0)], "bnn": [(10.0, 10.0)]})
        assert plot.splitlines()[-1] == "B=binary   N=bnn"

    def test_figure7_legend_has_one_distinct_marker_per_model(self):
        models = list(figure7.MODEL_REGISTRY)
        points = [
            figure7.ModelPoint(name, "", 10.0 + 7 * i, 40.0 + 2 * i, 0, 0, 0)
            for i, name in enumerate(models)
        ]
        lines = figure7.sketch(points).splitlines()
        legend = dict(entry.split("=", 1) for entry in lines[-1].split())
        assert sorted(legend.values()) == sorted(models)
        assert len(legend) == len(models)  # one marker each, none shared
        grid = "".join(lines[1:-2])
        assert all(marker in grid for marker in legend)
