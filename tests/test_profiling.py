"""Tests for the op-level profiler and its aggregations."""

from __future__ import annotations

import pytest

from repro.converter import convert
from repro.hw.device import DeviceModel
from repro.profiling import (
    layer_stacks,
    op_class_shares,
    profile_graph,
    quicknet_table4_rows,
)
from repro.zoo import quicknet


@pytest.fixture(scope="module")
def quicknet_profiles():
    model = convert(quicknet("small", input_size=64))
    return profile_graph(DeviceModel.rpi4b(), model.graph), model.graph


class TestProfileGraph:
    def test_one_profile_per_node(self, quicknet_profiles):
        profiles, graph = quicknet_profiles
        assert len(profiles) == len(graph)
        assert [p.name for p in profiles] == [n.name for n in graph.nodes]

    def test_binary_flag(self, quicknet_profiles):
        profiles, _ = quicknet_profiles
        assert any(p.is_binary for p in profiles)
        assert any(not p.is_binary for p in profiles)
        for p in profiles:
            assert p.is_binary == p.op.startswith("lce_")

    def test_measure_records_wall_clock(self):
        model = convert(quicknet("small", input_size=32))
        profiles = profile_graph(
            DeviceModel.pixel1(), model.graph, measure=True
        )
        assert all(p.measured_s is not None and p.measured_s >= 0 for p in profiles)

    def test_no_measure_leaves_none(self, quicknet_profiles):
        profiles, _ = quicknet_profiles
        assert all(p.measured_s is None for p in profiles)

    def test_tracer_backed_measured_mode(self):
        """With a tracer, measured times come from ``executor.node``
        spans — the profile and a trace export of the run agree."""
        from repro.obs.export import node_seconds
        from repro.obs.trace import Tracer

        model = convert(quicknet("small", input_size=32))
        tracer = Tracer()
        profiles = profile_graph(
            DeviceModel.pixel1(), model.graph, tracer=tracer
        )
        assert all(p.measured_s is not None for p in profiles)
        measured = node_seconds(tracer.spans(), names=("executor.node",))
        for p in profiles:
            assert p.measured_s == measured[p.name]

    def test_align_spans_joins_measured_and_simulated(self):
        from repro.hw.latency import align_spans
        from repro.obs.trace import Tracer
        from repro.runtime import Engine

        import numpy as np

        model = convert(quicknet("small", input_size=32))
        tracer = Tracer()
        x = np.random.default_rng(0).standard_normal(
            (1, 32, 32, 3)
        ).astype(np.float32)
        with Engine(model, trace=tracer) as engine:
            engine.run(x)
        pairs = align_spans(
            DeviceModel.pixel1(), model.graph, tracer.spans()
        )
        assert set(pairs) == {n.name for n in model.graph.nodes}
        for measured_s, simulated_s in pairs.values():
            assert measured_s >= 0 and simulated_s > 0


def _node_span(node_name: str, dur_s: float, start_s: float = 0.0):
    from repro.obs.trace import SpanRecord

    return SpanRecord(
        name="plan.node",
        start_s=start_s,
        dur_s=dur_s,
        tid=0,
        path=("plan.execute",),
        args={"node": node_name},
    )


class TestAlignSpansEdgeCases:
    """Synthetic-span contracts: omission, aggregation, thread scaling."""

    @pytest.fixture(scope="class")
    def small_graph(self):
        return convert(quicknet("small", input_size=32)).graph

    def test_nodes_without_spans_are_omitted(self, small_graph):
        from repro.hw.latency import align_spans

        names = [n.name for n in small_graph.nodes]
        recorded, skipped = names[:-1], names[-1]
        spans = [_node_span(name, 1e-4) for name in recorded]
        pairs = align_spans(DeviceModel.pixel1(), small_graph, spans)
        assert set(pairs) == set(recorded)
        assert skipped not in pairs

    def test_repeated_node_executions_aggregate_not_last_wins(
        self, small_graph
    ):
        from repro.hw.latency import align_spans

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
        from repro.hw.latency import align_spans

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


class TestAggregations:
    def test_op_class_shares_sum_to_100(self, quicknet_profiles):
        profiles, _ = quicknet_profiles
        shares = op_class_shares(profiles)
        assert sum(shares.values()) == pytest.approx(100.0)

    def test_table4_rows_sum_to_100(self, quicknet_profiles):
        profiles, _ = quicknet_profiles
        rows = quicknet_table4_rows(profiles)
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
        profiles, _ = quicknet_profiles
        rows = {r.op_class: r.share_percent for r in quicknet_table4_rows(profiles)}
        assert rows["LceBConv2d (accumulation loop)"] == max(rows.values())

    def test_layer_stacks_cover_total(self, quicknet_profiles):
        profiles, _ = quicknet_profiles
        stacks = layer_stacks(profiles)
        stack_total = sum(s["binary_s"] + s["full_precision_s"] for s in stacks)
        profile_total = sum(p.simulated_s for p in profiles)
        assert stack_total == pytest.approx(profile_total)

    def test_one_stack_per_mac_layer(self, quicknet_profiles):
        profiles, graph = quicknet_profiles
        mac_ops = ("conv2d", "lce_bconv2d", "depthwise_conv2d", "dense")
        n_mac = sum(1 for n in graph.nodes if n.op in mac_ops)
        assert len(layer_stacks(profiles)) == n_mac
