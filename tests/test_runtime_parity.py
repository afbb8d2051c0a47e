"""Bit-exactness parity: the runtime Engine vs the reference Executor.

The Engine's contract (see :mod:`repro.runtime`) is that every request's
result is *bit-identical* — same dtype, same every-last-bit values, same
packed words for bitpacked tensors — to running that request alone through
the reference :class:`~repro.graph.executor.Executor` on the base graph,
regardless of how requests were coalesced into micro-batches.

These tests enforce that contract over:

- synthetic graphs covering every op family the executor dispatches
  (float, binarized/bitpacked, int8, multi-output, packed input/output),
  across batch factors ``{1, 3, 8}``;
- the full model zoo (a fast subset always; the complete grid under the
  opt-in ``slow`` marker).

The reference is always a *concatenation of per-sample Executor runs* on
the base graph — not an Executor run on a rebatched graph — because that
is the determinism statement the Engine makes to its callers.
"""

from __future__ import annotations

import contextlib
import importlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis import dataflow
from repro.converter import convert
from repro.core.bconv2d import pack_filters
from repro.core.bitpack import PackedTensor, pack_bits
from repro.core.im2col import conv_geometry
from repro.core.output_transform import compute_output_thresholds
from repro.core.types import Activation, Padding
from repro.graph.builder import GraphBuilder
from repro.graph.executor import Executor
from repro.graph.ir import Graph, GraphError, TensorSpec
from repro.kernels.batchnorm import BatchNormParams
from repro.kernels.bound import BoundDense
from repro.ptq import quantize_model
from repro.obs import Tracer
from repro.runtime import Engine, compile_plan
from repro.zoo import MODEL_REGISTRY, build_model

BATCH_FACTORS = (1, 3, 8)
ZOO_BATCH_FACTORS = (1, 2, 4, 8)

# ----------------------------------------------------------------- helpers


def _split_groups(value, base, factor):
    """Split a batched input into ``factor`` groups of ``base`` lead rows."""
    if isinstance(value, PackedTensor):
        return [
            PackedTensor(
                bits=value.bits[i * base : (i + 1) * base], channels=value.channels
            )
            for i in range(factor)
        ]
    return [value[i * base : (i + 1) * base] for i in range(factor)]


def _concat(values):
    if isinstance(values[0], PackedTensor):
        return PackedTensor(
            bits=np.concatenate([v.bits for v in values], axis=0),
            channels=values[0].channels,
        )
    return np.concatenate(values, axis=0)


def reference_outputs(graph: Graph, inputs, factor: int):
    """Concatenated per-group Executor runs — the Engine's ground truth."""
    bases = [graph.tensors[t].shape[0] for t in graph.inputs]
    groups = [
        _split_groups(value, base, factor) for value, base in zip(inputs, bases)
    ]
    per_group = []
    for i in range(factor):
        ex = Executor(graph)
        out = ex.run(*[g[i] for g in groups])
        per_group.append(out if isinstance(out, tuple) else (out,))
    outs = tuple(
        _concat([g[j] for g in per_group]) for j in range(len(per_group[0]))
    )
    return outs[0] if len(outs) == 1 else outs


def assert_bit_identical(actual, expected):
    """dtype-exact, bit-exact equality; PackedTensors compare words."""
    if isinstance(expected, tuple):
        assert isinstance(actual, tuple) and len(actual) == len(expected)
        for a, e in zip(actual, expected):
            assert_bit_identical(a, e)
        return
    if isinstance(expected, PackedTensor):
        assert isinstance(actual, PackedTensor)
        assert actual.channels == expected.channels
        assert actual.bits.dtype == expected.bits.dtype
        assert np.array_equal(actual.bits, expected.bits)
        return
    assert isinstance(actual, np.ndarray)
    assert actual.dtype == expected.dtype, (actual.dtype, expected.dtype)
    assert np.array_equal(actual, expected)


def _batched_input(graph: Graph, factor: int, rng, tensor=None):
    tensor = tensor or graph.inputs[0]
    spec = graph.tensors[tensor]
    shape = (spec.shape[0] * factor,) + tuple(spec.shape[1:])
    x = rng.standard_normal(shape).astype(np.float32)
    if spec.dtype == "bitpacked":
        return pack_bits(x)
    if spec.dtype == "int8":
        return (x * 30).clip(-128, 127).astype(np.int8)
    return x


# ------------------------------------------------------- synthetic graphs


def _float_net(rng):
    """Every float op family: conv/depthwise/pools/bn/dense/softmax."""
    b = GraphBuilder((1, 12, 12, 3))
    x = b.conv2d(
        b.input, rng.standard_normal((3, 3, 3, 8)).astype(np.float32),
        bias=rng.standard_normal(8).astype(np.float32),
        activation=Activation.RELU,
    )
    x = b.batch_norm(x, BatchNormParams.identity(8))
    x = b.depthwise_conv2d(x, rng.standard_normal((3, 3, 8)).astype(np.float32))
    x = b.relu6(x)
    x = b.maxpool2d(x, 2, 2)
    x = b.avgpool2d(x, 2, 2)
    x = b.global_avgpool(x)
    x = b.dense(x, rng.standard_normal((8, 5)).astype(np.float32))
    x = b.softmax(x)
    return b.finish(x)


def _float_base2_net(rng):
    """Base batch 2: the reference runs its float GEMMs two images at a
    time, a plan at factor 3 six at a time — equal only because ``conv2d``
    and ``dense`` multiply per image / row.  3x3 stem, 1x1 conv, dense."""
    b = GraphBuilder((2, 12, 12, 3))
    x = b.conv2d(
        b.input, rng.standard_normal((3, 3, 3, 8)).astype(np.float32),
        bias=rng.standard_normal(8).astype(np.float32), stride=2,
    )
    x = b.conv2d(x, rng.standard_normal((1, 1, 8, 16)).astype(np.float32))
    x = b.global_avgpool(x)
    x = b.dense(
        x, rng.standard_normal((16, 5)).astype(np.float32),
        bias=rng.standard_normal(5).astype(np.float32),
    )
    return b.finish(x)


def _binary_net(rng, padding):
    """Converted binarized chain -> lce_quantize + lce_bconv2d ops."""
    b = GraphBuilder((1, 8, 8, 8))
    w1 = rng.standard_normal((3, 3, 8, 16)).astype(np.float32)
    w2 = rng.standard_normal((3, 3, 16, 16)).astype(np.float32)
    x = b.binarize(b.input)
    x = b.conv2d(x, w1, binary_weights=True, padding=padding)
    x = b.batch_norm(x, BatchNormParams.identity(16))
    x = b.binarize(x)
    x = b.conv2d(x, w2, binary_weights=True, padding=padding)
    x = b.global_avgpool(x)
    x = b.dense(x, rng.standard_normal((16, 4)).astype(np.float32))
    return convert(b.finish(x)).graph


def _bmaxpool_net(rng):
    """maxpool sunk through lce_quantize -> lce_bmaxpool2d after convert."""
    b = GraphBuilder((1, 8, 8, 3))
    x = b.conv2d(b.input, rng.standard_normal((3, 3, 3, 8)).astype(np.float32))
    x = b.maxpool2d(x, 2, 2)
    x = b.binarize(x)
    x = b.conv2d(
        x, rng.standard_normal((3, 3, 8, 8)).astype(np.float32),
        binary_weights=True, padding=Padding.SAME_ONE,
    )
    x = b.global_avgpool(x)
    g = convert(b.finish(x)).graph
    assert any(n.op == "lce_bmaxpool2d" for n in g.nodes)
    return g


def _se_net(rng):
    """Squeeze-excite shape traffic: global pool, dense, sigmoid, reshape,
    broadcast mul — the rebatching-sensitive ops of RealToBinaryNet."""
    b = GraphBuilder((1, 6, 6, 8))
    x = b.conv2d(
        b.input, rng.standard_normal((3, 3, 8, 8)).astype(np.float32),
        padding=Padding.SAME_ZERO,
    )
    s = b.global_avgpool(x)
    s = b.dense(s, rng.standard_normal((8, 8)).astype(np.float32))
    s = b.sigmoid(s)
    s = b.reshape(s, (1, 1, 1, 8))
    x = b.mul(x, s)
    x = b.global_avgpool(x)
    return b.finish(x)


def _concat_pad_net(rng):
    """concat + pad_channels (DenseNet-style channel plumbing)."""
    b = GraphBuilder((1, 6, 6, 4))
    x = b.conv2d(
        b.input, rng.standard_normal((3, 3, 4, 4)).astype(np.float32),
        padding=Padding.SAME_ZERO,
    )
    y = b.pad_channels(x, after=4)
    z = b.concat([x, b.relu(x)])
    x = b.add(y, z)
    x = b.global_avgpool(x)
    return b.finish(x)


def _int8_net(rng):
    """Post-training-quantized net: conv2d_int8 / dense_int8 / requantize."""
    b = GraphBuilder((1, 10, 10, 3))
    x = b.conv2d(
        b.input, rng.standard_normal((3, 3, 3, 8)).astype(np.float32),
        bias=rng.standard_normal(8).astype(np.float32),
        activation=Activation.RELU,
    )
    x = b.conv2d(x, rng.standard_normal((3, 3, 8, 8)).astype(np.float32), stride=2)
    x = b.maxpool2d(x, 2, 2)
    x = b.global_avgpool(x)
    x = b.dense(x, rng.standard_normal((8, 5)).astype(np.float32))
    g = b.finish(x)
    calib = [rng.standard_normal((1, 10, 10, 3)).astype(np.float32) for _ in range(4)]
    return quantize_model(g, calib)


def _multi_output_net(rng):
    b = GraphBuilder((1, 6))
    a = b.dense(b.input, rng.standard_normal((6, 6)).astype(np.float32))
    c = b.relu(a)
    d = b.softmax(a)
    return b.finish(a, c, d)


def _packed_output_net(rng):
    """Graph whose output tensor is bitpacked (PackedTensor crosses the
    Engine boundary and must batch/split by words)."""
    g = Graph("packed_out")
    x = g.add_input("x", TensorSpec((1, 4, 4, 70)))
    q = g.add_node("lce_quantize", [x], [TensorSpec((1, 4, 4, 70), "bitpacked")])
    p = g.add_node(
        "lce_bmaxpool2d",
        [q.outputs[0]],
        [TensorSpec((1, 2, 2, 70), "bitpacked")],
        attrs={"pool_h": 2, "pool_w": 2, "stride": 2},
    )
    g.outputs = [p.outputs[0]]
    g.verify()
    return g


def _packed_input_net(rng):
    """Graph whose *input* tensor is bitpacked."""
    g = Graph("packed_in")
    x = g.add_input("x", TensorSpec((1, 4, 4, 70), "bitpacked"))
    d = g.add_node("lce_dequantize", [x], [TensorSpec((1, 4, 4, 70), "float32")])
    g.outputs = [d.outputs[0]]
    g.verify()
    return g


def _grouped_bconv_net(rng):
    """Grouped binarized convolutions, one word-aligned (``cin_g % 64 ==
    0``) and one not, under the full batch grid."""
    from repro.core.bconv2d import pack_filters

    g = Graph("grouped_bconv")
    x = g.add_input("x", TensorSpec((1, 6, 6, 128)))
    q = g.add_node("lce_quantize", [x], [TensorSpec((1, 6, 6, 128), "bitpacked")])
    w1 = rng.standard_normal((3, 3, 64, 20)).astype(np.float32)
    c1 = g.add_node(
        "lce_bconv2d",
        [q.outputs[0]],
        [TensorSpec((1, 6, 6, 20), "float32")],
        attrs={
            "kernel_h": 3, "kernel_w": 3, "in_channels": 128,
            "out_channels": 20, "groups": 2,
        },
        params={"filter_bits": pack_filters(w1).bits},
    )
    q2 = g.add_node(
        "lce_quantize", [c1.outputs[0]], [TensorSpec((1, 6, 6, 20), "bitpacked")]
    )
    w2 = rng.standard_normal((3, 3, 10, 6)).astype(np.float32)
    c2 = g.add_node(
        "lce_bconv2d",
        [q2.outputs[0]],
        [TensorSpec((1, 6, 6, 6), "float32")],
        attrs={
            "kernel_h": 3, "kernel_w": 3, "in_channels": 20,
            "out_channels": 6, "groups": 2,
        },
        params={"filter_bits": pack_filters(w2).bits},
    )
    g.outputs = [c2.outputs[0]]
    g.verify()
    return g


SYNTHETIC_GRAPHS = {
    "float": _float_net,
    "float_base2": _float_base2_net,
    "binary_same_one": lambda rng: _binary_net(rng, Padding.SAME_ONE),
    "binary_same_zero": lambda rng: _binary_net(rng, Padding.SAME_ZERO),
    "bmaxpool": _bmaxpool_net,
    "se_block": _se_net,
    "concat_pad": _concat_pad_net,
    "int8": _int8_net,
    "multi_output": _multi_output_net,
    "packed_output": _packed_output_net,
    "packed_input": _packed_input_net,
    "grouped_bconv": _grouped_bconv_net,
}


# ----------------------------------------------------------- the test grid


@pytest.mark.parametrize("graph_name", sorted(SYNTHETIC_GRAPHS))
@pytest.mark.parametrize("factor", BATCH_FACTORS)
def test_synthetic_parity(graph_name, factor, rng):
    graph = SYNTHETIC_GRAPHS[graph_name](rng)
    inputs = tuple(_batched_input(graph, factor, rng, t) for t in graph.inputs)
    expected = reference_outputs(graph, inputs, factor)
    with Engine(graph, max_batch_size=8) as engine:
        assert_bit_identical(engine.run(*inputs), expected)


@pytest.mark.parametrize("graph_name", sorted(SYNTHETIC_GRAPHS))
def test_synthetic_parity_run_many(graph_name, rng):
    """run_many across ragged request sizes must match per-request runs."""
    graph = SYNTHETIC_GRAPHS[graph_name](rng)
    sizes = [1, 3, 2, 1]
    requests = [
        tuple(_batched_input(graph, k, rng, t) for t in graph.inputs)
        for k in sizes
    ]
    with Engine(graph, max_batch_size=4) as engine:
        results = engine.run_many(requests)
    for req, k, result in zip(requests, sizes, results):
        assert_bit_identical(result, reference_outputs(graph, req, k))


def test_same_zero_bitpacked_is_covered(rng):
    """The SAME_ZERO synthetic net must keep exercising the bitpacked-output
    path (the kernel's zero-padding offset + thresholding through the
    arena), so the grid above covers that combination in both Executor and
    rebatched plans.
    """
    graph = SYNTHETIC_GRAPHS["binary_same_zero"](rng)
    assert any(
        n.op == "lce_bconv2d"
        and n.attrs.get("output_type") == "bitpacked"
        and n.attrs.get("padding") is Padding.SAME_ZERO
        for n in graph.nodes
    )


def test_grouped_net_covers_both_group_branches(rng):
    """The grouped synthetic net must pin one grouped convolution whose
    groups fill whole packed words and one whose groups do not."""
    graph = SYNTHETIC_GRAPHS["grouped_bconv"](rng)
    cin_gs = [
        n.attrs["in_channels"] // n.attrs["groups"]
        for n in graph.nodes
        if n.op == "lce_bconv2d"
    ]
    assert any(c % 64 == 0 for c in cin_gs)
    assert any(c % 64 != 0 for c in cin_gs)


# ------------------------------------ the reference is independent

def _mismatches_the_executor(graph, rng) -> bool:
    x = _batched_input(graph, 1, rng)
    with Engine(graph) as engine:
        got = engine.run(x)
    try:
        assert_bit_identical(got, reference_outputs(graph, (x,), 1))
    except AssertionError:
        return True
    return False


def _whole_map_net(rng):
    b = GraphBuilder((1, 2, 2, 40))
    y = b.binarize(b.input)
    y = b.conv2d(y, rng.standard_normal((3, 3, 40, 8)).astype(np.float32),
                 binary_weights=True, padding=Padding.SAME_ONE)
    return convert(b.finish(y)).graph


def test_a_wrong_padding_correction_is_a_mismatch(rng, monkeypatch):
    """The Executor's binarized conv pads with 0.0 or +1.0 itself and
    shares no padding offset with the plan: a kernel offset that misses
    one padded tap reaches only the plan, and parity reports it — zero-
    padded, and one-padded on a whole map, where the GEMM leaves padded
    taps out."""
    bconv2d_module = importlib.import_module("repro.core.bconv2d")
    padded_tap_mask = bconv2d_module.padded_tap_mask

    def one_tap_missed(*args):
        reads = padded_tap_mask(*args).copy()
        assert reads[0, 0]  # pixel (0, 0) reads padding through its tap (0, 0)
        reads[0, 0] = False
        return reads

    monkeypatch.setattr(bconv2d_module, "padded_tap_mask", one_tap_missed)
    for build in (SYNTHETIC_GRAPHS["binary_same_zero"], _whole_map_net):
        assert _mismatches_the_executor(build(rng), rng), build


def _cin40_bconv_net(rng):
    b = GraphBuilder((1, 6, 6, 40))
    y = b.binarize(b.input)
    y = b.conv2d(y, rng.standard_normal((3, 3, 40, 8)).astype(np.float32),
                 binary_weights=True)
    return convert(b.finish(y)).graph


def _set_stray_padding_bit(graph):
    conv = next(n for n in graph.nodes if n.op == "lce_bconv2d")
    bits = conv.params["filter_bits"].copy()
    bits.view(np.uint8)[2, 6] |= 1  # filter 2, tap 0, channel 55 of 40
    conv.params["filter_bits"] = bits


def test_a_stray_channel_padding_bit_is_a_mismatch(rng, monkeypatch):
    """The Executor decodes only a filter's ``in_channels`` signs: a bit set
    in the channel padding of a ``cin = 40`` filter's tail word reaches
    only the plan's XOR-popcount, and parity reports it (with G003's
    padding-bit check, which rejects the graph first, switched off)."""
    graph = _cin40_bconv_net(rng)
    assert not _mismatches_the_executor(graph, rng)
    _set_stray_padding_bit(graph)
    monkeypatch.setattr(dataflow, "_stray_padding_bits", lambda *args: False)
    assert _mismatches_the_executor(graph, rng)


def test_a_stray_channel_padding_bit_fails_validation(rng):
    """G003 rejects the same graph before any kernel runs."""
    graph = _cin40_bconv_net(rng)
    _set_stray_padding_bit(graph)
    with pytest.raises(GraphError, match=r"G003.*channel-padding bits"):
        graph.validate()


@pytest.mark.parametrize("factor", [1, 3])
def test_grouped_bconv_plan_runs_the_reference_and_reserves_nothing(factor, rng):
    """A plan has no bound kernel for ``groups > 1``: both grouped nodes
    (word-aligned and not) compile to the allocating reference call, equal
    the ``Executor`` bit for bit, and leave the arena empty."""
    graph = SYNTHETIC_GRAPHS["grouped_bconv"](rng)
    plan = compile_plan(graph, batch_factor=factor)
    assert plan.fused_blocks == 0
    assert plan.workspace.nbytes == 0
    x = _batched_input(graph, factor, rng)
    (got,) = plan.execute((x,))
    assert_bit_identical(got, reference_outputs(graph, (x,), factor))
    assert plan.workspace.names() == ()  # and the call took nothing either


def test_plan_workspace_reused_across_calls(rng):
    """Steady-state plan execution must not reallocate arena buffers: the
    backing arrays stay identical across calls and the grow counter is flat
    after the first execution (the zero-per-call-allocations contract)."""
    graph = SYNTHETIC_GRAPHS["binary_same_one"](rng)
    with Engine(graph) as engine:
        x = _batched_input(graph, 2, rng)
        engine.run(x)
        ws = engine.plan(2).workspace
        assert "bgemm/at" in ws.names()
        before = {name: id(ws.buffer(name)) for name in ws.names()}
        grows = ws.grows
        for _ in range(3):
            engine.run(x)
        assert ws.grows == grows
        assert {name: id(ws.buffer(name)) for name in ws.names()} == before


def test_plan_workspace_preallocated_from_reservations(rng):
    """A plan's arena is fully reserved at compile time: the first execution
    performs zero grows beyond that preallocation."""
    graph = SYNTHETIC_GRAPHS["binary_same_zero"](rng)
    with Engine(graph) as engine:
        ws = engine.plan(1).workspace  # compiling reserves
        assert ws.nbytes > 0
        grows, nbytes = ws.grows, ws.nbytes
        engine.run(_batched_input(graph, 1, rng))
        assert engine.plan(1).workspace is ws
        assert (ws.grows, ws.nbytes) == (grows, nbytes), (
            "execution grew a buffer past its reservation"
        )


# ----------------------------------------------------------------- the zoo

ZOO_INPUT_SIZE = {"binary_alexnet": 64, "xnornet": 64}
FAST_ZOO = ("quicknet_small", "birealnet18", "binarydensenet28")


def _zoo_engine_case(model_name, factor, rng):
    size = ZOO_INPUT_SIZE.get(model_name, 32)
    model = convert(build_model(model_name, input_size=size))
    # The softmax saturates on random weights: compare its logits too.
    softmax = next(n for n in reversed(model.graph.nodes) if n.op == "softmax")
    model.graph.outputs.append(softmax.inputs[0])
    x = _batched_input(model.graph, factor, rng)
    expected = reference_outputs(model.graph, (x,), factor)
    with Engine(model, max_batch_size=8) as engine:
        assert_bit_identical(engine.run(x), expected)
        # The second run hits the plan cache; parity must survive reuse.
        assert_bit_identical(engine.run(x), expected)
        assert engine.stats().plan_cache_hits >= 1


def test_zoo_parity_sees_a_non_top_logit(rng, monkeypatch):
    """A plan whose classifier moves each row's lowest logit leaves the
    saturated softmax unchanged; the logits output reports it."""
    bind = BoundDense.bind

    def perturbed_bind(self, workspace):
        run = bind(self, workspace)

        def perturbed(x):
            out = run(x)
            out[np.arange(len(out)), out.argmin(axis=-1)] += 1.0
            return out

        return perturbed

    monkeypatch.setattr(BoundDense, "bind", perturbed_bind)
    with pytest.raises(AssertionError):
        _zoo_engine_case("quicknet_small", factor=1, rng=rng)


@pytest.mark.parametrize("model_name", FAST_ZOO)
def test_zoo_parity_fast(model_name, rng):
    _zoo_engine_case(model_name, factor=3, rng=rng)


@pytest.mark.parametrize("factor", range(1, 9))
def test_quicknet_small_32_parity_every_batch_factor(factor, rng):
    """The serving shape: every batch factor a 32x32 flush can take (short
    BGEMM panels, deep derived K blocks) against per-sample Executor runs."""
    _zoo_engine_case("quicknet_small", factor=factor, rng=rng)


@pytest.mark.slow
@pytest.mark.parametrize("model_name", sorted(MODEL_REGISTRY))
@pytest.mark.parametrize("factor", ZOO_BATCH_FACTORS)
def test_zoo_parity_full(model_name, factor, rng):
    _zoo_engine_case(model_name, factor, rng)


# ------------------------------------------------------ the fused block
#
# compile_plan lets a groups == 1 lce_bconv2d absorb the lce_quantize
# feeding it and the add consuming it (repro.runtime.plan._absorbed).  The
# graph below is one such block with every knob the bound kernel has, in
# the variants that must and must not fuse.

BLOCK_VARIANTS = {
    # variant -> graph node ops each executed node must cover, in order
    "triple": [["lce_quantize", "lce_bconv2d", "add"]],
    "no_shortcut": [["lce_quantize", "lce_bconv2d"]],
    "bitpacked_out": [["lce_quantize", "lce_bconv2d"]],
    "shared_quantize": [["lce_quantize"], ["lce_dequantize"], ["lce_bconv2d", "add"]],
    "broadcast_add": [["lce_quantize", "lce_bconv2d"], ["add"]],
    "int8_add": [["lce_quantize", "lce_bconv2d"], ["add"]],
    "conv_is_output": [["lce_quantize", "lce_bconv2d"], ["add"]],
}


def _block_graph(
    rng, variant, h, w, cin, cout, kernel, stride, padding, activation,
    scale_before, shortcut_first,
):
    geom = conv_geometry(h, w, kernel, kernel, stride, 1, padding)
    out_shape = (1, geom.out_h, geom.out_w, cout)
    weights = rng.choice(np.float32([-1.0, 1.0]), size=(kernel, kernel, cin, cout))
    multiplier = rng.standard_normal(cout).astype(np.float32)
    bias = rng.standard_normal(cout).astype(np.float32)
    attrs = {
        "kernel_h": kernel, "kernel_w": kernel, "in_channels": cin,
        "out_channels": cout, "stride": stride, "padding": padding,
        "activation": activation, "scale_before_activation": scale_before,
    }
    params = {
        "filter_bits": pack_filters(weights).bits,
        "multiplier": multiplier, "bias": bias,
    }
    out_dtype = "float32"
    if variant == "bitpacked_out":
        th = compute_output_thresholds(
            kernel * kernel * cin, cout, multiplier, bias, activation, scale_before
        )
        attrs["output_type"] = "bitpacked"
        del params["multiplier"], params["bias"]  # folded into the thresholds
        params["threshold"], params["threshold_flip"] = th.threshold, th.flip
        out_dtype = "bitpacked"

    g = Graph(f"block_{variant}")
    x = g.add_input("x", TensorSpec((1, h, w, cin)))
    q = g.add_node("lce_quantize", [x], [TensorSpec((1, h, w, cin), "bitpacked")])
    outputs = []
    if variant == "shared_quantize":
        d = g.add_node(
            "lce_dequantize", [q.outputs[0]], [TensorSpec((1, h, w, cin))]
        )
        outputs.append(d.outputs[0])
    conv = g.add_node(
        "lce_bconv2d", [q.outputs[0]], [TensorSpec(out_shape, out_dtype)],
        attrs=attrs, params=params,
    )
    if variant in ("no_shortcut", "bitpacked_out"):
        outputs.append(conv.outputs[0])
    else:
        s_spec = TensorSpec(out_shape)
        if variant == "broadcast_add":
            s_spec = TensorSpec((1, 1, 1, 1))
        elif variant == "int8_add":
            s_spec, shortcut_first = TensorSpec(out_shape, "int8"), False
        s = g.add_input("s", s_spec)
        operands = [s, conv.outputs[0]] if shortcut_first else [conv.outputs[0], s]
        a = g.add_node("add", operands, [TensorSpec(out_shape)])
        outputs.append(a.outputs[0])
        if variant == "conv_is_output":
            outputs.append(conv.outputs[0])
    g.outputs = outputs
    g.verify()
    return g


@settings(max_examples=80)
@given(
    variant=st.sampled_from(sorted(BLOCK_VARIANTS)),
    h=st.integers(1, 9),
    w=st.integers(1, 9),
    cin=st.sampled_from([16, 32, 64, 96, 256]),
    cout=st.sampled_from([8, 40, 136]),
    kernel=st.sampled_from([1, 3, 5]),
    stride=st.sampled_from([1, 2]),
    padding=st.sampled_from(list(Padding)),
    activation=st.sampled_from(list(Activation)),
    scale_before=st.booleans(),
    shortcut_first=st.booleans(),
    factor=st.sampled_from([1, 2, 3]),
    seed=st.integers(0, 2**16),
)
def test_block_property(
    variant, h, w, cin, cout, kernel, stride, padding, activation,
    scale_before, shortcut_first, factor, seed,
):
    """One binarized block, every shape and knob: the plan fuses exactly
    what the variant allows and its outputs equal the oracle's bit for bit."""
    assume(padding is not Padding.VALID or min(h, w) >= kernel)
    rng = np.random.default_rng(seed)
    graph = _block_graph(
        rng, variant, h, w, cin, cout, kernel, stride, padding, activation,
        scale_before, shortcut_first,
    )
    plan = compile_plan(graph, batch_factor=factor)
    assert [[op for _, op in cn.parts] for cn in plan.nodes] == BLOCK_VARIANTS[variant]
    inputs = tuple(_batched_input(graph, factor, rng, t) for t in graph.inputs)
    expected = reference_outputs(graph, inputs, factor)
    for _ in range(2):  # the second call runs through the views bound by the first
        got = plan.execute(inputs)
        assert_bit_identical(got[0] if len(got) == 1 else got, expected)


def test_every_block_variant_is_reachable(rng):
    """The property above samples variants; this pins each one's structure
    deterministically (one shape), so a variant cannot go untested."""
    for variant, expected in BLOCK_VARIANTS.items():
        graph = _block_graph(
            rng, variant, 5, 4, 96, 40, 3, 1, Padding.SAME_ZERO,
            Activation.RELU, False, True,
        )
        plan = compile_plan(graph)
        assert [[op for _, op in cn.parts] for cn in plan.nodes] == expected
        assert plan.fused_blocks == sum(len(ops) > 1 for ops in expected)


def test_an_add_of_two_convolutions_is_absorbed_once(rng):
    """``add(bconv(x), bconv(x'))``: both convs qualify for the add; the
    first takes it, the second must still run (before the block)."""
    g = Graph("two_branches")
    x = g.add_input("x", TensorSpec((1, 5, 5, 64)))
    convs = []
    for _ in range(2):
        q = g.add_node("lce_quantize", [x], [TensorSpec((1, 5, 5, 64), "bitpacked")])
        w = rng.choice(np.float32([-1.0, 1.0]), size=(3, 3, 64, 64))
        convs.append(g.add_node(
            "lce_bconv2d", [q.outputs[0]], [TensorSpec((1, 5, 5, 64))],
            attrs={"kernel_h": 3, "kernel_w": 3, "in_channels": 64,
                   "out_channels": 64},
            params={"filter_bits": pack_filters(w).bits},
        ))
    a = g.add_node("add", [c.outputs[0] for c in convs], [TensorSpec((1, 5, 5, 64))])
    g.outputs = [a.outputs[0]]
    g.verify()
    plan = compile_plan(g, batch_factor=2)
    assert [[op for _, op in cn.parts] for cn in plan.nodes] == [
        ["lce_quantize", "lce_bconv2d"],
        ["lce_quantize", "lce_bconv2d", "add"],
    ]
    assert plan.nodes[0].name == convs[1].name  # the block waits for it
    inputs = (_batched_input(g, 2, rng),)
    assert_bit_identical(plan.execute(inputs)[0], reference_outputs(g, inputs, 2))


def test_grouped_bconv_keeps_the_plain_call(rng):
    graph = SYNTHETIC_GRAPHS["grouped_bconv"](rng)
    plan = compile_plan(graph)
    assert plan.fused_blocks == 0
    assert [cn.op for cn in plan.nodes] == [n.op for n in graph.nodes]


# ----------------------------------------- what a fused plan reports

@pytest.fixture(scope="module", params=sorted(MODEL_REGISTRY))
def zoo_model(request):
    size = ZOO_INPUT_SIZE.get(request.param, 32)
    return convert(build_model(request.param, input_size=size))


def test_fused_plans_report_per_graph_node(zoo_model, rng):
    """node_times and plan.node spans keep one entry per graph node, a
    fused block's parts abut (they sum to its wall time), and the BGEMM
    span sits inside the convolution's part."""
    graph = zoo_model.graph
    plan = compile_plan(graph)
    x = _batched_input(graph, 1, rng)
    node_times: dict[str, float] = {}
    plan.execute((x,), node_times)
    assert list(node_times) == [name for cn in plan.nodes for name, _ in cn.parts]
    assert set(node_times) == {n.name for n in graph.nodes}
    assert len(node_times) == len(graph.nodes)

    tracer = Tracer()
    traced_times: dict[str, float] = {}
    plan.execute((x,), traced_times, tracer=tracer)
    spans = {s.args["node"]: s for s in tracer.spans() if s.name == "plan.node"}
    assert {(name, s.args["op"]) for name, s in spans.items()} == {
        (n.name, n.op) for n in graph.nodes
    }
    assert sum(s.name == "plan.node" for s in tracer.spans()) == len(graph.nodes)
    assert {name: s.dur_s for name, s in spans.items()} == traced_times
    bgemm = [s for s in tracer.spans() if s.name == "kernel.bgemm"]
    for cn in plan.nodes:
        parts = [spans[name] for name, _ in cn.parts]
        for before, after in zip(parts, parts[1:]):
            assert abs(before.end_s - after.start_s) < 1e-9  # no gap, no overlap
        if len(parts) > 1:
            conv = spans[cn.name]
            inside = [
                s for s in bgemm
                if conv.start_s <= s.start_s and s.end_s <= conv.end_s + 1e-9
            ]
            assert len(inside) == 1
    assert plan.fused_blocks == sum(len(cn.parts) > 1 for cn in plan.nodes)


def test_quicknet_and_birealnet_fuse_every_block():
    for name in ("quicknet_small", "birealnet18"):
        model = convert(build_model(name, input_size=32))
        plan = compile_plan(model.graph)
        triples = [cn for cn in plan.nodes if len(cn.parts) == 3]
        assert len(triples) == 16 == sum(
            n.op == "lce_bconv2d" for n in model.graph.nodes
        )
        assert all(
            [op for _, op in cn.parts] == ["lce_quantize", "lce_bconv2d", "add"]
            and (cn.name, cn.op) == cn.parts[1]
            for cn in triples
        )


# ------------------------------------------------- steady state of a plan

def _run_holding_every_value(plan, x):
    """``plan.execute`` by hand, keeping every node's output alive."""
    slots = {plan.input_slots[0]: x}
    for cn in plan.nodes:
        out = cn.fn([slots[s] for s in cn.input_slots])
        slots.update(zip(cn.output_slots, out if isinstance(out, tuple) else (out,)))
    return slots


@contextlib.contextmanager
def _held_values_stay_untouched(plan, x):
    """Run ``plan`` on ``x`` keeping every array it produced; after the
    body, none of them has changed or shares memory with the arena."""
    held = {
        slot: v.bits if isinstance(v, PackedTensor) else v
        for slot, v in _run_holding_every_value(plan, x).items()
    }
    copies = {slot: v.copy() for slot, v in held.items()}
    yield
    ws = plan.workspace
    for slot, value in held.items():
        name = plan.slot_names[slot]
        assert np.array_equal(value, copies[slot]), name
        assert not any(
            np.shares_memory(value, ws.buffer(buf)) for buf in ws.names()
        ), name


def test_outputs_never_alias_the_arena(rng):
    """A value held across the next execute is unchanged: what a bound
    kernel returns is a fresh array, never a view of its scratch."""
    model = convert(build_model("quicknet_small", input_size=32))
    plan = compile_plan(model.graph)
    _assert_float_nodes_bound(plan)
    x1, x2 = (_batched_input(model.graph, 1, rng) for _ in range(2))
    with _held_values_stay_untouched(plan, x1):
        plan.execute((x2,))


def _assert_float_nodes_bound(plan):
    """The plan's conv2d / depthwise / maxpool nodes run bound forms: their
    padded inputs and patch / tap matrices are in the arena."""
    names = plan.workspace.names()
    for role in ("pad/", "conv2d/patches", "depthwise/taps", "maxpool/rows"):
        assert any(name.startswith(role) for name in names), role


#: synthetic graphs whose plans bind every other float family: avgpool,
#: global pool, dense, int8 maxpool, stand-alone lce_quantize
BOUND_FLOAT_GRAPHS = ("float", "int8", "grouped_bconv", "se_block")


@pytest.mark.parametrize("graph_name", BOUND_FLOAT_GRAPHS)
def test_bound_float_outputs_never_alias_the_arena(graph_name, rng):
    graph = SYNTHETIC_GRAPHS[graph_name](rng)
    plan = compile_plan(graph)
    x1, x2 = (_batched_input(graph, 1, rng) for _ in range(2))
    with _held_values_stay_untouched(plan, x1):
        plan.execute((x2,))


@pytest.mark.parametrize("factor", range(1, 9))
def test_arena_constant_from_the_second_call(factor, rng):
    model = convert(build_model("quicknet_small", input_size=32))
    plan = compile_plan(model.graph, batch_factor=factor)
    _assert_float_nodes_bound(plan)
    x = _batched_input(model.graph, factor, rng)
    plan.execute((x,))
    ws = plan.workspace
    grows, nbytes = ws.grows, ws.nbytes
    for _ in range(3):
        plan.execute((x,))
    assert (ws.grows, ws.nbytes) == (grows, nbytes)


@pytest.mark.parametrize("graph_name", BOUND_FLOAT_GRAPHS)
@pytest.mark.parametrize("factor", (1, 3))
def test_bound_float_arena_constant_from_the_second_call(graph_name, factor, rng):
    graph = SYNTHETIC_GRAPHS[graph_name](rng)
    plan = compile_plan(graph, batch_factor=factor)
    x = _batched_input(graph, factor, rng)
    expected = reference_outputs(graph, (x,), factor)
    ws = plan.workspace
    grows, nbytes = ws.grows, ws.nbytes  # reserved at compile time
    for _ in range(3):
        assert_bit_identical(plan.execute((x,))[0], expected)
    assert (ws.grows, ws.nbytes) == (grows, nbytes)


def test_plan_rebinds_when_its_arena_grows_behind_it(rng):
    """Growing a buffer behind the bound kernels (here: by hand) replaces
    storage their views point into; the next call must rebind, not write
    through the stale views, and still match the oracle."""
    model = convert(build_model("quicknet_small", input_size=32))
    plan = compile_plan(model.graph)
    x = _batched_input(model.graph, 1, rng)
    expected = reference_outputs(model.graph, (x,), 1)
    assert_bit_identical(plan.execute((x,))[0], expected)
    ws = plan.workspace
    stale = {name: ws.buffer(name) for name in ws.names()}
    for name, buf in stale.items():
        ws.take(name, (buf.size + 64,), buf.dtype)  # reallocates every buffer
        buf.fill(0)  # the old storage: a stale view would read this
    assert all(ws.buffer(name) is not buf for name, buf in stale.items())
    grows = ws.grows
    assert_bit_identical(plan.execute((x,))[0], expected)
    assert_bit_identical(plan.execute((x,))[0], expected)
    assert ws.grows == grows, "rebinding must not allocate"
    # ... and the rebound kernels really write the new storage
    assert any(ws.buffer(name).any() for name in ws.names())


# ------------------------------------------- one arena for all of an engine

def test_every_batch_factor_of_an_engine_shares_one_arena(rng):
    """Factors 1, 8, 1, 3, 8 through one engine: every reply equals the
    Executor, the arena is as large as the largest plan alone would make it
    (not the sum over plans) and stops growing once every plan exists."""
    model = convert(build_model("quicknet_small", input_size=32))
    order = (1, 8, 1, 3, 8)
    inputs = {k: _batched_input(model.graph, k, rng) for k in set(order)}
    refs = {k: reference_outputs(model.graph, (x,), k) for k, x in inputs.items()}
    with Engine(model) as engine:
        for k in order:
            assert_bit_identical(engine.run(inputs[k]), refs[k])
        ws = engine.plan(1).workspace
        assert all(engine.plan(k).workspace is ws for k in order)
        alone = [compile_plan(model.graph, k).workspace.nbytes for k in set(order)]
        assert engine.stats().workspace_bytes == ws.nbytes == max(alone) < sum(alone)
        grows = ws.grows
        for k in order:
            assert_bit_identical(engine.run(inputs[k]), refs[k])
        assert ws.grows == grows and ws.nbytes == max(alone)


def test_outputs_survive_another_plan_running_over_the_same_buffers(rng):
    """Cross-plan form of ``test_outputs_never_alias_the_arena``: what the
    factor-1 plan returned is untouched after the factor-8 plan (compiled
    later, so it replaced and then overwrote the shared buffers) has run."""
    model = convert(build_model("quicknet_small", input_size=32))
    with Engine(model) as engine:
        x1, x8 = (_batched_input(model.graph, k, rng) for k in (1, 8))
        with _held_values_stay_untouched(engine.plan(1), x1):
            engine.run(x8)
        # ... and the factor-1 kernels rebind to the grown buffers
        assert_bit_identical(
            engine.run(x1), reference_outputs(model.graph, (x1,), 1)
        )

