"""Tests for the op-level profile of a graph: ``graph_latency``'s
per-node detail and the Table-4 / Figure-5 aggregations over it."""

from __future__ import annotations

import pytest

from repro.converter import convert
from repro.experiments.figure5 import layer_stacks
from repro.experiments.table4 import quicknet_table4_rows
from repro.hw.device import DeviceModel
from repro.hw.latency import graph_latency
from repro.ops import is_binary_op
from repro.zoo import quicknet


@pytest.fixture(scope="module")
def quicknet_profiles():
    graph = convert(quicknet("small", input_size=64)).graph
    return graph, graph_latency(DeviceModel.rpi4b(), graph)


class TestProfileGraph:
    def test_one_profile_per_node(self, quicknet_profiles):
        graph, latency = quicknet_profiles
        assert list(latency.per_node) == [n.name for n in graph.nodes]

    def test_binary_flag(self, quicknet_profiles):
        graph, _ = quicknet_profiles
        flags = [is_binary_op(n.op) for n in graph.nodes]
        assert any(flags) and not all(flags)
        for node, binary in zip(graph.nodes, flags):
            assert binary == node.op.startswith("lce_")


class TestAggregations:
    def test_table4_rows_sum_to_100(self, quicknet_profiles):
        rows = quicknet_table4_rows(*quicknet_profiles)
        assert sum(r.share_percent for r in rows) == pytest.approx(100.0)
        assert {r.op_class for r in rows} == {
            "LceQuantize",
            "LceBConv2d (accumulation loop)",
            "LceBConv2d (output transformation)",
            "Full precision Conv2D",
            "Full precision Add",
            "All other full precision",
        }

    def test_accumulation_loop_dominates(self, quicknet_profiles):
        rows = {
            r.op_class: r.share_percent
            for r in quicknet_table4_rows(*quicknet_profiles)
        }
        assert rows["LceBConv2d (accumulation loop)"] == max(rows.values())

    def test_layer_stacks_cover_total(self, quicknet_profiles):
        stacks = layer_stacks(*quicknet_profiles)
        stack_total = sum(s["binary_s"] + s["full_precision_s"] for s in stacks)
        assert stack_total == pytest.approx(quicknet_profiles[1].total_s)

    def test_one_stack_per_mac_layer(self, quicknet_profiles):
        graph, _ = quicknet_profiles
        mac_ops = ("conv2d", "lce_bconv2d", "depthwise_conv2d", "dense")
        n_mac = sum(1 for n in graph.nodes if n.op in mac_ops)
        assert len(layer_stacks(*quicknet_profiles)) == n_mac
