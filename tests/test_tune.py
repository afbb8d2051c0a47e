"""Tests for what is left of :mod:`repro.tune`: the geometry key, the
:class:`KernelConfig` schedule point and :func:`measure_config`.

The schedule itself is fixed (every plan runs ``DEFAULT_CONFIG``); the
``config=`` argument of ``BoundBConv2D`` survives for kernel measurements,
so its bit-exactness under non-default tiles stays covered here.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.converter import convert
from repro.core.bconv2d import BoundBConv2D, bconv2d, reserve_bconv2d_workspace
from repro.core.kernel_config import DEFAULT_CONFIG, KernelConfig
from repro.core.workspace import Workspace
from repro.tune import (
    ConvGeometryKey,
    graph_geometries,
    measure_config,
    node_geometry,
)
from repro.tune.search import _workload
from repro.zoo import build_model


def _tiny_geometry(**overrides):
    kw = dict(
        batch=1, in_h=4, in_w=4, in_channels=32, out_channels=32,
        kernel_h=3, kernel_w=3,
    )
    kw.update(overrides)
    return ConvGeometryKey(**kw)


def _quicknet_model():
    return convert(build_model("quicknet_small", input_size=32))


# --------------------------------------------------------------- geometry


class TestConvGeometryKey:
    def test_key_string_is_stable(self):
        g = ConvGeometryKey(
            batch=1, in_h=7, in_w=7, in_channels=512, out_channels=512,
            kernel_h=3, kernel_w=3,
        )
        assert g.key == "b1_i7x7x512_o512_k3x3_s1_d1_same_one_g1"

    def test_derived_quantities(self):
        g = _tiny_geometry()
        assert g.out_hw == (4, 4)
        assert g.bgemm_m == 16
        assert g.bgemm_words == 9  # 3*3 taps, 32 channels -> 1 word each
        assert g.macs == 16 * 32 * (9 * 32)

    def test_json_round_trip(self):
        g = _tiny_geometry()
        assert ConvGeometryKey.from_json(g.to_json()) == g

    def test_rejects_unknown_fields(self):
        obj = _tiny_geometry().to_json()
        obj["vectorize"] = True
        with pytest.raises(ValueError, match="vectorize"):
            ConvGeometryKey.from_json(obj)

    @pytest.mark.parametrize("field", ["batch", "in_h", "in_channels", "kernel_h"])
    def test_rejects_non_positive_dims(self, field):
        with pytest.raises(ValueError):
            _tiny_geometry(**{field: 0})

    def test_rejects_unknown_padding(self):
        with pytest.raises(ValueError):
            _tiny_geometry(padding="reflect")

    def test_graph_geometries_dedups_quicknet(self):
        model = _quicknet_model()
        keys = [g.key for g in graph_geometries(model.graph)]
        assert keys == [
            "b1_i8x8x32_o32_k3x3_s1_d1_same_one_g1",
            "b1_i4x4x64_o64_k3x3_s1_d1_same_one_g1",
            "b1_i2x2x256_o256_k3x3_s1_d1_same_one_g1",
            "b1_i1x1x512_o512_k3x3_s1_d1_same_one_g1",
        ]

    def test_graph_geometries_scales_with_batch_factor(self):
        model = _quicknet_model()
        for g in graph_geometries(model.graph, batch_factor=4):
            assert g.batch == 4

    def test_node_geometry_matches_graph_sweep(self):
        from repro.runtime import rebatched_specs

        model = _quicknet_model()
        node = next(n for n in model.graph.nodes if n.op == "lce_bconv2d")
        geometry = node_geometry(node, rebatched_specs(model.graph, 1))
        assert geometry.key == "b1_i8x8x32_o32_k3x3_s1_d1_same_one_g1"

    def test_node_geometry_rejects_other_ops(self):
        model = _quicknet_model()
        node = next(n for n in model.graph.nodes if n.op != "lce_bconv2d")
        with pytest.raises(ValueError, match="not lce_bconv2d"):
            node_geometry(node, {})


# ----------------------------------------------------------- kernel config


class TestKernelConfig:
    def test_validate_reports_all_problems(self):
        with pytest.raises(ValueError) as exc:
            KernelConfig(tile_m=0, tile_n="x", im2col="magic")
        message = str(exc.value)
        assert all(field in message for field in ("tile_m", "tile_n", "im2col"))

    @pytest.mark.parametrize(
        "kw", [{"tile_m": 0}, {"tile_n": -1}, {"tile_k_words": True},
               {"im2col": "nope"}],
    )
    def test_constructor_validates(self, kw):
        with pytest.raises((TypeError, ValueError)):
            KernelConfig(**kw)


# ------------------------------------------------------------ measurement


class TestMeasureConfig:
    def test_returns_positive_us(self):
        us = measure_config(_tiny_geometry(), DEFAULT_CONFIG, repeats=2)
        assert us > 0

    def test_rejects_non_positive_repeats(self):
        with pytest.raises(ValueError, match="repeats"):
            measure_config(_tiny_geometry(), DEFAULT_CONFIG, repeats=0)

    def test_injected_timer_is_the_only_clock(self):
        # Each timed call reads the timer twice, one second apart; the
        # warm-up pair is discarded, so the median is exactly 1 s.
        ticks = itertools.count()
        us = measure_config(
            _tiny_geometry(), DEFAULT_CONFIG, repeats=3,
            timer=lambda: float(next(ticks)),
        )
        assert us == 1e6
        assert next(ticks) == 2 * (3 + 1)

    def test_explicit_k_depth_is_honoured(self):
        cfg = KernelConfig(tile_k_words=2)
        assert measure_config(_tiny_geometry(), cfg, repeats=1) > 0

    @pytest.mark.parametrize(
        "config",
        [
            KernelConfig(tile_m=5, tile_n=3),
            KernelConfig(tile_m=64, tile_n=32),
            KernelConfig(tile_m=7, tile_n=16, tile_k_words=2),
        ],
    )
    @pytest.mark.parametrize("padding", ["same_one", "same_zero"])
    def test_non_default_config_is_bit_identical(self, config, padding):
        # The way ``measure_config`` drives it: a workspace reserved for the
        # config, then the kernel bound under it, against the reference.
        geom = _tiny_geometry(padding=padding)
        x, filters, params, correction = _workload(geom)
        expected = bconv2d(x, filters, params)
        ws = Workspace()
        reserve_bconv2d_workspace(
            ws, params, geom.in_h, geom.in_w, geom.batch, config=config
        )
        reserved = ws.nbytes
        run = BoundBConv2D(
            filters, params, geom.in_h, geom.in_w, geom.batch,
            padding_correction=correction, config=config,
        ).bind(ws)
        for _ in range(2):
            got = run(x)
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)
        assert ws.nbytes == reserved, "the reservation must cover the call"

    def test_grouped_geometry_times_the_reference(self):
        # No bound kernel for groups > 1: nothing to reserve, still a number.
        geom = _tiny_geometry(in_channels=128, groups=2)
        assert measure_config(geom, DEFAULT_CONFIG, repeats=1) > 0
        x, filters, params, _ = _workload(geom)
        with pytest.raises(ValueError, match="groups == 1"):
            reserve_bconv2d_workspace(Workspace(), params, 4, 4, 1)
