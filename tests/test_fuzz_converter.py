"""Property-based fuzzing of the converter.

Generates random mixed binary/full-precision networks — random layer
kinds, paddings, strides, layer orders, shortcut placements, channel
counts with a partial tail word, binarized 1x1 and 3x3 kernels at
dilation 1 and 2, square and non-square maps down to 1xW — and checks the converter's core
contract on every one: the optimized inference graph computes the same
function as the training graph, and a compiled plan computes it bit for
bit like the reference ``Executor``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.converter import convert
from repro.core.types import Padding
from repro.graph.builder import GraphBuilder
from repro.graph.executor import Executor
from repro.graph.passes import run_passes
from repro.graph.serialization import save_model
from repro.kernels.batchnorm import BatchNormParams
from repro.runtime import Engine


def _random_bn(rng, c):
    return BatchNormParams(
        gamma=rng.uniform(0.5, 1.5, c).astype(np.float32),
        beta=rng.standard_normal(c).astype(np.float32),
        mean=rng.standard_normal(c).astype(np.float32),
        variance=rng.uniform(0.3, 1.5, c).astype(np.float32),
    )


@st.composite
def random_network(draw):
    """A random-but-valid training graph plus a matching input tensor."""
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    # 40, 130: a partial tail word; 72, 130: an odd number of 32-bit halves
    channels = draw(st.sampled_from([8, 16, 24, 40, 64, 72, 130]))
    # 1-2 px: every 3x3 window covers the map; 1xW: the top and bottom
    # kernel rows read only padding
    width = draw(st.integers(1, 10))
    height = draw(st.one_of(st.just(1), st.integers(1, 10)))
    n_blocks = draw(st.integers(1, 4))
    block_specs = [
        {
            "kind": draw(st.sampled_from(["binary", "float"])),
            "padding": draw(
                st.sampled_from([Padding.SAME_ONE, Padding.SAME_ZERO])
            ),
            "stride": draw(st.sampled_from([1, 2])),
            "kernel": draw(st.sampled_from([1, 3])),
            "dilation": draw(st.sampled_from([1, 2])),
            "relu": draw(st.booleans()),
            "bn_first": draw(st.booleans()),
            "shortcut": draw(st.booleans()),
            "pool_after": draw(st.booleans()),
        }
        for _ in range(n_blocks)
    ]

    b = GraphBuilder((1, height, width, channels))
    x = b.input
    cur_h, cur_w = height, width
    for spec in block_specs:
        stride = spec["stride"] if max(cur_h, cur_w) >= 4 else 1
        if spec["kind"] == "binary":
            k = spec["kernel"]
            h = b.binarize(x)
            h = b.conv2d(
                h,
                rng.choice([-1.0, 1.0], (k, k, channels, channels)).astype(np.float32),
                stride=stride,
                dilation=spec["dilation"],
                padding=spec["padding"],
                binary_weights=True,
            )
        else:
            h = b.conv2d(
                x,
                rng.standard_normal((3, 3, channels, channels)).astype(np.float32)
                * 0.2,
                stride=stride,
                padding=Padding.SAME_ZERO,
            )
        if spec["bn_first"]:
            h = b.batch_norm(h, _random_bn(rng, channels))
            if spec["relu"]:
                h = b.relu(h)
        else:
            if spec["relu"]:
                h = b.relu(h)
            h = b.batch_norm(h, _random_bn(rng, channels))
        if spec["shortcut"] and stride == 1:
            h = b.add(h, x)
        x = h
        cur_h, cur_w = -(-cur_h // stride), -(-cur_w // stride)
        if spec["pool_after"] and min(cur_h, cur_w) >= 4:
            x = b.maxpool2d(x, 2, 2)
            cur_h, cur_w = cur_h // 2, cur_w // 2
    x = b.global_avgpool(x)
    graph = b.finish(x)
    input_value = rng.standard_normal((1, height, width, channels)).astype(np.float32)
    return graph, input_value


class TestConverterFuzz:
    @settings(max_examples=40, deadline=None)
    @given(case=random_network())
    def test_conversion_preserves_function(self, case):
        graph, x = case
        before = Executor(graph).run(x)
        model = convert(graph)
        model.graph.verify()
        after = Executor(model.graph).run(x)
        np.testing.assert_allclose(after, before, rtol=1e-3, atol=1e-3)

    @settings(max_examples=20, deadline=None)
    @given(case=random_network())
    def test_plan_matches_executor(self, case):
        """Engine vs per-image Executor runs, bit for bit, at batch 1 and 3."""
        graph, x = case
        model = convert(graph)
        executor = Executor(model.graph)
        with Engine(model) as engine:
            for factor in (1, 3):
                batch = np.concatenate([x * s for s in (1.0, -0.5, 2.0)[:factor]])
                expected = np.concatenate([executor.run(row[None]) for row in batch])
                got = engine.run(batch)
                assert got.dtype == expected.dtype
                assert np.array_equal(got, expected)

    @settings(max_examples=20, deadline=None)
    @given(case=random_network())
    def test_second_sweep_changes_nothing(self, case, tmp_path_factory):
        """Each pass runs once: re-running them finds nothing left to do."""
        graph, _ = case
        converted = convert(graph).graph
        path = tmp_path_factory.mktemp("sweep") / "model.lce"
        save_model(converted, path)
        once = path.read_bytes()
        assert set(run_passes(converted).values()) == {0}
        save_model(converted, path)
        assert path.read_bytes() == once

    @settings(max_examples=20, deadline=None)
    @given(case=random_network())
    def test_no_emulation_ops_survive(self, case):
        graph, _ = case
        model = convert(graph)
        ops = {n.op for n in model.graph.nodes}
        # emulated binarized convolutions must all have been rewritten
        for n in model.graph.nodes:
            if n.op == "conv2d":
                assert not n.attr("binary_weights")
        assert "binarize" not in ops

    @settings(max_examples=20, deadline=None)
    @given(case=random_network())
    def test_serialization_roundtrip_after_conversion(self, case, tmp_path_factory):
        graph, x = case
        model = convert(graph)
        path = tmp_path_factory.mktemp("fuzz") / "m.lce"
        from repro.graph.serialization import load_model, save_model

        save_model(model.graph, path)
        reloaded = load_model(path)
        assert np.array_equal(
            Executor(model.graph).run(x), Executor(reloaded).run(x)
        )

    @settings(max_examples=15, deadline=None)
    @given(case=random_network())
    def test_macs_invariant(self, case):
        from repro.analysis.macs import count_macs

        graph, _ = case
        before = count_macs(graph)
        after = count_macs(convert(graph).graph)
        assert (before.binary, before.full_precision) == (
            after.binary,
            after.full_precision,
        )
