"""Tests for the hardware model: ISA, devices, latency, frameworks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.converter import convert
from repro.core.types import Padding
from repro.hw import isa
from repro.hw.device import DeviceModel
from repro.hw.frameworks import FRAMEWORKS
from repro.hw.latency import (
    LatencyBreakdown,
    align_spans,
    conv_cost,
    graph_latency,
)
from repro.obs.trace import SpanRecord, Tracer
from repro.ops import node_cost
from repro.runtime import Engine
from repro.zoo import quicknet


class TestISA:
    def test_paper_table1_values(self):
        assert isa.FLOAT_MACS_PER_CYCLE == 8
        assert isa.INT8_MACS_PER_CYCLE == 32
        assert isa.BINARY_MACS_PER_CYCLE == pytest.approx(78.77, abs=0.01)

    def test_binary_block_is_13_cycles(self):
        assert isa.binary_block_cycles() == 13

    def test_binary_block_is_24_instructions(self):
        assert sum(isa.BINARY_BLOCK_SEQUENCE.values()) == 24

    def test_table_rows(self):
        rows = isa.mac_instruction_table()
        assert [r["precision"] for r in rows] == ["float", "8-bit", "binary"]

    def test_schedule_balances_ports(self):
        # pure dual-issue work: N instructions in N/2 cycles.
        assert isa.schedule_cycles({"eor": 8}) == 4
        # pure single-pipe work is serialized.
        assert isa.schedule_cycles({"cnt": 8}) == 8


class TestDeviceModel:
    def test_profiles_exist(self):
        for name in ("pixel1", "rpi4b"):
            dev = DeviceModel.by_name(name)
            assert dev.freq_hz > 1e9
            assert set(dev.sustained_macs_per_cycle) == {"float32", "int8", "binary"}

    def test_unknown_device(self):
        with pytest.raises(ValueError):
            DeviceModel.by_name("pixel9")

    def test_sustained_below_theoretical_peak(self):
        for name in ("pixel1", "rpi4b"):
            dev = DeviceModel.by_name(name)
            assert dev.sustained_macs_per_cycle["float32"] <= isa.FLOAT_MACS_PER_CYCLE
            assert dev.sustained_macs_per_cycle["binary"] <= isa.BINARY_MACS_PER_CYCLE

    def test_spill_penalty_applies(self):
        dev = DeviceModel.pixel1()
        small = dev.sustained("float32", 1024)
        big = dev.sustained("float32", 64 * 1024 * 1024)
        assert big < small

    def test_with_overrides(self):
        dev = DeviceModel.pixel1().with_overrides(freq_hz=1e9)
        assert dev.freq_hz == 1e9
        assert DeviceModel.pixel1().freq_hz != 1e9


class TestConvCost:
    def test_binary_fastest(self):
        dev = DeviceModel.pixel1()
        args = (1, 28, 28, 128, 128, 3, 3)
        f = conv_cost(dev, "float32", *args, padding=Padding.SAME_ZERO).total_s
        i = conv_cost(dev, "int8", *args, padding=Padding.SAME_ZERO).total_s
        b = conv_cost(dev, "binary", *args, padding=Padding.SAME_ONE).total_s
        assert b < i < f

    def test_more_macs_more_time(self):
        dev = DeviceModel.pixel1()
        small = conv_cost(dev, "binary", 1, 14, 14, 64, 64, 3, 3).total_s
        big = conv_cost(dev, "binary", 1, 28, 28, 128, 128, 3, 3).total_s
        assert big > small

    def test_breakdown_sums_to_total(self):
        dev = DeviceModel.pixel1()
        b = conv_cost(dev, "binary", 1, 14, 14, 64, 64, 3, 3)
        assert b.total_s == pytest.approx(
            b.overhead_s + b.im2col_s + b.accumulation_s + b.transform_s + b.other_s
        )

    def test_bitpacked_output_cheaper_than_float_output(self):
        dev = DeviceModel.pixel1()
        f = conv_cost(
            dev, "binary", 1, 28, 28, 128, 128, 3, 3, fused_transform=True
        ).total_s
        p = conv_cost(
            dev, "binary", 1, 28, 28, 128, 128, 3, 3, bitpacked_output=True
        ).total_s
        assert p < f

    def test_zero_padding_costs_extra(self):
        dev = DeviceModel.pixel1()
        one = conv_cost(dev, "binary", 1, 28, 28, 128, 128, 3, 3).total_s
        zero = conv_cost(
            dev, "binary", 1, 28, 28, 128, 128, 3, 3, zero_padding_correction=True
        ).total_s
        assert zero > one

    def test_stem_channel_penalty(self):
        dev = DeviceModel.pixel1()
        # 3-channel stem conv must be slower per MAC than a 32-channel conv.
        stem = conv_cost(dev, "float32", 1, 56, 56, 3, 64, 3, 3)
        wide = conv_cost(dev, "float32", 1, 56, 56, 32, 64, 3, 3)
        per_mac_stem = stem.accumulation_s / (56 * 56 * 9 * 3 * 64)
        per_mac_wide = wide.accumulation_s / (56 * 56 * 9 * 32 * 64)
        assert per_mac_stem > per_mac_wide

    def test_speedup_grows_with_channels(self):
        """The Figure 2 pattern: larger channel counts speed up more."""
        dev = DeviceModel.pixel1()

        def speedup(hw, c):
            f = conv_cost(dev, "float32", 1, hw, hw, c, c, 3, 3,
                          padding=Padding.SAME_ZERO).total_s
            b = conv_cost(dev, "binary", 1, hw, hw, c, c, 3, 3,
                          padding=Padding.SAME_ONE).total_s
            return f / b

        assert speedup(56, 64) < speedup(14, 256)


class TestNodeLatency:
    def _spec(self, shape, dtype="float32"):
        from repro.graph.ir import TensorSpec

        return TensorSpec(shape, dtype)

    def test_all_graph_ops_have_latency(self, rng):
        """Every op the zoo emits can be priced."""
        from repro.converter import convert
        from repro.zoo import build_model

        model = convert(build_model("quicknet_small", input_size=64))
        lat = graph_latency(DeviceModel.pixel1(), model.graph)
        assert set(lat.per_node) == {n.name for n in model.graph.nodes}
        assert lat.total_s > 0

    def test_unknown_op_rejected(self):
        from repro.graph.ir import Node

        with pytest.raises(ValueError, match="no latency model"):
            node_cost(
                DeviceModel.pixel1(),
                Node("n", "warp_drive", [], []),
                [], [],
            )

    def test_quantize_scales_with_bytes(self):
        from repro.graph.ir import Node

        dev = DeviceModel.pixel1()
        node = Node("q", "lce_quantize", ["x"], ["y"])
        small = node_cost(dev, node, [self._spec((1, 8, 8, 64))],
                             [self._spec((1, 8, 8, 64), "bitpacked")])
        big = node_cost(dev, node, [self._spec((1, 32, 32, 64))],
                           [self._spec((1, 32, 32, 64), "bitpacked")])
        assert big.total_s > small.total_s

    def test_breakdown_addition(self):
        a = LatencyBreakdown(overhead_s=1.0, accumulation_s=2.0)
        b = LatencyBreakdown(im2col_s=3.0, memory_bound=True)
        c = a + b
        assert c.total_s == 6.0
        assert c.memory_bound


class TestFrameworks:
    def test_lce_is_fastest_on_every_conv(self):
        dev = DeviceModel.rpi4b()
        for hw, c in [(56, 64), (28, 128), (14, 256), (7, 256)]:
            lce = FRAMEWORKS["lce"].binary_conv_latency(dev, hw, hw, c).total_s
            for name in ("dabnn", "tvm", "bmxnet"):
                other = FRAMEWORKS[name].binary_conv_latency(dev, hw, hw, c).total_s
                assert lce < other, f"{name} beat LCE on {hw}x{hw}x{c}"

    def test_bmxnet_slowest_binary(self):
        dev = DeviceModel.rpi4b()
        dabnn = FRAMEWORKS["dabnn"].binary_conv_latency(dev, 28, 28, 128).total_s
        bmx = FRAMEWORKS["bmxnet"].binary_conv_latency(dev, 28, 28, 128).total_s
        assert bmx > dabnn

    def test_device_for_scales_throughputs(self):
        dev = DeviceModel.rpi4b()
        eng = FRAMEWORKS["tvm"].device_for(dev)
        assert eng.sustained_macs_per_cycle["binary"] < dev.sustained_macs_per_cycle["binary"]
        assert eng.name == "rpi4b+tvm"

    def test_dabnn_not_multithreaded(self):
        assert not FRAMEWORKS["dabnn"].multithreaded
        assert FRAMEWORKS["lce"].multithreaded


def _node_span(node_name: str, dur_s: float, start_s: float = 0.0) -> SpanRecord:
    return SpanRecord(
        name="plan.node",
        start_s=start_s,
        dur_s=dur_s,
        tid=0,
        path=("plan.execute",),
        args={"node": node_name},
    )


class TestAlignSpans:
    """Measured ``plan.node`` spans joined to the simulated per-node side:
    a real traced run, then synthetic-span contracts (omission,
    aggregation, thread scaling)."""

    @pytest.fixture(scope="class")
    def small_graph(self):
        return convert(quicknet("small", input_size=32)).graph

    def test_align_spans_joins_measured_and_simulated(self, small_graph):
        tracer = Tracer()
        x = np.random.default_rng(0).standard_normal((1, 32, 32, 3))
        with Engine(small_graph, trace=tracer) as engine:
            engine.run(x.astype(np.float32))
        pairs = align_spans(DeviceModel.pixel1(), small_graph, tracer.spans())
        assert set(pairs) == {n.name for n in small_graph.nodes}
        for measured_s, simulated_s in pairs.values():
            assert measured_s >= 0 and simulated_s > 0

    def test_nodes_without_spans_are_omitted(self, small_graph):
        names = [n.name for n in small_graph.nodes]
        recorded, skipped = names[:-1], names[-1]
        spans = [_node_span(name, 1e-4) for name in recorded]
        pairs = align_spans(DeviceModel.pixel1(), small_graph, spans)
        assert set(pairs) == set(recorded)
        assert skipped not in pairs

    def test_repeated_node_executions_aggregate_not_last_wins(
        self, small_graph
    ):
        # A rebatch-split plan executes the same node once per sub-batch;
        # the measured side must be the SUM of its spans, not whichever
        # span the tracer recorded last.
        target = small_graph.nodes[0].name
        durations = (5e-4, 3e-4, 2e-4)
        spans = [
            _node_span(target, dur, start_s=i * 1e-3)
            for i, dur in enumerate(durations)
        ]
        pairs = align_spans(DeviceModel.pixel1(), small_graph, spans)
        measured_s, _ = pairs[target]
        assert measured_s == pytest.approx(sum(durations))
        assert measured_s != durations[-1]

    def test_threads_scale_simulated_side_only(self, small_graph):
        spans = [_node_span(n.name, 1e-4) for n in small_graph.nodes]
        device = DeviceModel.pixel1()
        single = align_spans(device, small_graph, spans, threads=1)
        quad = align_spans(device, small_graph, spans, threads=4)
        assert set(single) == set(quad)
        # Measured values come from the spans and must not change.
        for name in single:
            assert quad[name][0] == single[name][0]
        # The binary convolutions parallelize: simulated time drops.
        bconv = [
            n.name for n in small_graph.nodes if n.op == "lce_bconv2d"
        ]
        assert bconv
        for name in bconv:
            assert quad[name][1] < single[name][1]
        # No node may get slower with more threads.
        for name in single:
            assert quad[name][1] <= single[name][1]
