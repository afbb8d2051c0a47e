"""Bound float kernels (:mod:`repro.kernels.bound`) against their eager
kernels, bit for bit, and the padded taps and whole-map form of the bound
binarized conv.

A bound form is compiled for one input shape, reserves its scratch in an
arena, binds views into it and runs only the calls that move data.  Each
test runs a form on fresh inputs and checks every result against the
eager kernel (dtype and every bit) and that it shares no memory with the
arena.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from repro.converter import convert
from repro.core.bconv2d import (
    BConv2DParams,
    BoundBConv2D,
    bconv2d,
    kmajor_words,
    pack_filters,
    reserve_bconv2d_workspace,
    whole_map_taps,
)
from repro.core.bitpack import PackedTensor
from repro.core.output_transform import compute_output_thresholds
from repro.core.quantize_ops import lce_quantize
from repro.core.types import Activation, OutputType, Padding
from repro.core.workspace import Workspace
from repro.graph.builder import GraphBuilder
from repro.graph.executor import Executor
from repro.kernels import (
    avgpool2d,
    conv2d_float,
    dense_float,
    depthwise_conv2d_float,
    global_avgpool,
    maxpool2d,
)
from repro.kernels.arithmetic import add
from repro.kernels.batchnorm import BatchNormParams
from repro.kernels.bound import (
    BoundAvgPool2D,
    BoundConv2D,
    BoundDense,
    BoundDepthwiseConv2D,
    BoundGlobalAvgPool,
    BoundLceQuantize,
    BoundMaxPool2D,
)
from repro.ops import get_spec
from repro.runtime import compile_plan
from repro.zoo import build_model

PADDINGS = (Padding.VALID, Padding.SAME_ZERO, Padding.SAME_ONE)
SAME = (Padding.SAME_ONE, Padding.SAME_ZERO)
ACTIVATIONS = tuple(Activation)


def _bind(form, workspace):
    for name, shape, dtype in form.scratch:
        workspace.reserve(name, math.prod(shape), dtype)
    return workspace.bound(form, form.bind)


def _check(form, eager, inputs, workspace=None):
    """``form`` bound in an arena equals ``eager`` on every input, every
    bit and the dtype, and its results never alias the arena."""
    workspace = workspace if workspace is not None else Workspace()
    run = _bind(form, workspace)
    for x in inputs:
        got, want = run(x), eager(x)
        if isinstance(want, PackedTensor):
            assert got.channels == want.channels
            got, want = got.bits, want.bits
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got.view(np.uint8), want.view(np.uint8))
        for name in workspace.names():
            assert not np.shares_memory(got, workspace.buffer(name)), name
    return workspace


def _inputs(rng, shape, count=2):
    return [rng.standard_normal(shape).astype(np.float32) for _ in range(count)]


GRID = list(itertools.product((1, 2), PADDINGS, (1, 2), (1, 3)))


@pytest.mark.parametrize("kernel", (1, 3))
@pytest.mark.parametrize("stride, padding, dilation, batch", GRID)
def test_conv2d_equals_eager(kernel, stride, padding, dilation, batch, rng):
    shape = (batch, 7, 6, 5)
    w = rng.standard_normal((kernel, kernel, 5, 4)).astype(np.float32)
    biases = (None, rng.standard_normal(4))
    for bias, activation in itertools.product(biases, ACTIVATIONS):
        args = dict(bias=bias, stride=stride, dilation=dilation,
                    padding=padding, activation=activation)
        _check(BoundConv2D(shape, w, **args),
               lambda x: conv2d_float(x, w, **args), _inputs(rng, shape))


@pytest.mark.parametrize("kernel", (1, 3))
@pytest.mark.parametrize("stride, padding, dilation, batch", GRID)
def test_depthwise_equals_eager(kernel, stride, padding, dilation, batch, rng):
    shape = (batch, 7, 6, 5)
    w = rng.standard_normal((kernel, kernel, 5)).astype(np.float32)
    biases = (None, rng.standard_normal(5))
    for bias, activation in itertools.product(biases, ACTIVATIONS):
        args = dict(bias=bias, stride=stride, dilation=dilation,
                    padding=padding, activation=activation)
        _check(BoundDepthwiseConv2D(shape, w, **args),
               lambda x: depthwise_conv2d_float(x, w, **args), _inputs(rng, shape))


POOLS = list(itertools.product(
    ((1, 1), (2, 2), (3, 3), (2, 3)), (None, 1, 2), (Padding.VALID, Padding.SAME_ZERO),
    (1, 3),
))


@pytest.mark.parametrize("window, stride, padding, batch", POOLS)
def test_pools_equal_eager(window, stride, padding, batch, rng):
    shape = (batch, 7, 6, 5)
    args = (*window, stride, padding)
    specials = _inputs(rng, shape, 3)
    specials[2][rng.random(shape) < 0.2] = np.nan
    specials[2][rng.random(shape) < 0.1] = -np.inf
    _check(BoundMaxPool2D(shape, *args), lambda x: maxpool2d(x, *args), specials)
    _check(BoundAvgPool2D(shape, *args), lambda x: avgpool2d(x, *args), specials)
    q = [(x * 40).clip(-128, 127).astype(np.int8) for x in specials[:2]]
    _check(BoundMaxPool2D(shape, *args, dtype="int8"), lambda x: maxpool2d(x, *args), q)


@pytest.mark.parametrize("batch", (1, 3))
def test_global_pool_dense_and_quantize_equal_eager(batch, rng):
    _check(BoundGlobalAvgPool((batch, 5, 3, 7)), global_avgpool,
           _inputs(rng, (batch, 5, 3, 7)))
    w = rng.standard_normal((7, 6)).astype(np.float32)
    biases = (None, rng.standard_normal(6))
    for bias, activation in itertools.product(biases, ACTIVATIONS):
        _check(BoundDense((batch, 7), w, bias, activation),
               lambda x: dense_float(x, w, bias, activation), _inputs(rng, (batch, 7)))
    for channels in (1, 20, 64, 100):
        shape = (batch, 3, 2, channels)
        xs = _inputs(rng, shape) + [(_inputs(rng, shape)[0] * 9).astype(np.int8)]
        _check(BoundLceQuantize(shape), lce_quantize, xs)


def test_forms_sharing_buffer_names_keep_their_borders(rng):
    """``a`` and ``c`` have one geometry, so one padded buffer; ``b``
    another geometry but the same role-named taps buffer.  Each form
    filled its border once, at bind, and every call still equals the eager
    kernel whatever ran in between."""
    a_shape, b_shape = (1, 8, 8, 4), (2, 5, 5, 4)
    wa, wb, wc = (rng.standard_normal((3, 3, 4)).astype(np.float32) for _ in range(3))
    forms = [
        (a_shape, wa, dict(padding=Padding.SAME_ONE)),
        (b_shape, wb, dict(stride=2, padding=Padding.SAME_ZERO)),
        (a_shape, wc, dict(padding=Padding.SAME_ONE, activation=Activation.RELU)),
    ]
    ws = Workspace()
    runs = [_bind(BoundDepthwiseConv2D(shape, w, **kw), ws) for shape, w, kw in forms]
    assert sum(name.startswith("pad/") for name in ws.names()) == 2
    for _ in range(2):
        for run, (shape, w, kw) in zip(runs, forms):
            (x,) = _inputs(rng, shape, 1)
            assert np.array_equal(run(x), depthwise_conv2d_float(x, w, **kw))


def test_bound_form_rejects_a_wrong_shape(rng):
    form = BoundMaxPool2D((1, 4, 4, 2), 2, 2, 1, Padding.SAME_ZERO)
    run = _bind(form, Workspace())
    with pytest.raises(ValueError, match="kernel expects"):
        run(np.zeros((1, 4, 4, 1), np.float32))  # would broadcast otherwise
    with pytest.raises(TypeError):
        _bind(BoundLceQuantize((1, 2, 2, 3)), Workspace())(np.zeros((1, 2, 2, 3), bool))


def test_plan_binds_every_float_family(rng):
    """A plan of a graph with every float family compiles each to its bound
    form: the arena holds their buffers after compile, before any call."""
    b = GraphBuilder((1, 9, 9, 3))
    x = b.conv2d(b.input, rng.standard_normal((3, 3, 3, 8)).astype(np.float32))
    x = b.depthwise_conv2d(x, rng.standard_normal((3, 3, 8)).astype(np.float32))
    x = b.maxpool2d(x, 3, 3, stride=1, padding=Padding.SAME_ZERO)
    x = b.avgpool2d(x, 2, 2, stride=1, padding=Padding.SAME_ZERO)
    x = b.global_avgpool(x)
    x = b.dense(x, rng.standard_normal((8, 4)).astype(np.float32))
    names = compile_plan(b.finish(x)).workspace.names()
    assert {"conv2d/patches", "depthwise/taps", "maxpool/rows/float32",
            "avgpool/taps"} <= set(names)
    assert sum(n.startswith("pad/") for n in names) == 4


# ----------------------------------------------------------- dead taps


def _small_map_net(rng, padding, output, quantize, shortcut, cin=96, hw=(1, 1)):
    """A converted 3x3 binarized conv on an ``hw`` map (on 1x1, 8 of 9 taps
    read only padding), after a float conv; with ``quantize`` the conv absorbs its
    ``lce_quantize``, with ``shortcut`` the residual add."""
    b = GraphBuilder((1, *hw, 8))
    x = b.conv2d(b.input, rng.standard_normal((1, 1, 8, cin)).astype(np.float32))
    y = b.binarize(x)
    y = b.conv2d(y, rng.standard_normal((3, 3, cin, cin)).astype(np.float32),
                 binary_weights=True, padding=padding)
    bn = BatchNormParams(
        gamma=rng.uniform(0.5, 1.5, cin).astype(np.float32),
        beta=rng.standard_normal(cin).astype(np.float32),
        mean=rng.standard_normal(cin).astype(np.float32),
        variance=rng.uniform(0.5, 1.5, cin).astype(np.float32),
    )
    y = b.batch_norm(y, bn)
    if output == "bitpacked":
        y = b.binarize(y)
        y = b.conv2d(y, rng.standard_normal((1, 1, cin, 4)).astype(np.float32),
                     binary_weights=True)
    elif shortcut:
        y = b.add(x, y)
    graph = convert(b.finish(y)).graph
    if not quantize:  # a second consumer keeps the quantize stand-alone
        q = next(n for n in graph.nodes if n.op == "lce_quantize")
        graph.outputs = [*graph.outputs, q.outputs[0]]
    return graph


def _dead_tap_conv(graph):
    return next(
        n for n in graph.nodes
        if n.op == "lce_bconv2d" and n.attrs["kernel_h"] == 3
    )


@pytest.mark.parametrize("padding", (Padding.SAME_ONE, Padding.SAME_ZERO))
@pytest.mark.parametrize("output, shortcut", (("float", False), ("float", True),
                                              ("bitpacked", False)))
@pytest.mark.parametrize("quantize", (True, False))
@pytest.mark.parametrize("cin", (96, 32))
def test_dead_taps_equal_the_executor(padding, output, shortcut, quantize, cin, rng):
    graph = _small_map_net(rng, padding, output, quantize, shortcut, cin)
    conv = _dead_tap_conv(graph)
    assert conv.attrs["output_type"] == output
    plan = compile_plan(graph)
    (node,) = [cn for cn in plan.nodes if cn.name == conv.name]
    assert (node.parts[0][1] == "lce_quantize") == quantize
    assert (node.parts[-1][1] == "add") == shortcut
    # K-major patches of the one live tap only (m = 1 pixel)
    assert plan.workspace.buffer("bgemm/at").size == kmajor_words(1, cin)
    for _ in range(2):
        x = rng.standard_normal((1, 1, 1, 8)).astype(np.float32)
        got = plan.execute((x,))
        want = Executor(graph).run(x)
        want = want if isinstance(want, tuple) else (want,)
        for g, w in zip(got, want):
            if isinstance(w, PackedTensor):
                g, w = g.bits, w.bits
            assert g.dtype == w.dtype and np.array_equal(g, w)


@pytest.mark.parametrize("padding", (Padding.SAME_ONE, Padding.SAME_ZERO))
def test_flipping_a_dead_tap_bit_moves_the_output(padding, rng):
    """The dead taps' contribution is read from their filter words: flip
    one bit of one.  One-padded, the plan's output changes — and still
    equals the Executor's, which multiplies every tap.  Zero-padded it must
    not change: the dead tap reads only zeros, and the kernel derives its
    offset from the flipped bits itself."""
    graph = _small_map_net(rng, padding, "float", True, False)
    x = rng.standard_normal((1, 1, 1, 8)).astype(np.float32)
    before = compile_plan(graph).execute((x,))[0]
    conv = _dead_tap_conv(graph)
    bits = conv.params["filter_bits"].copy()
    words = bits.shape[1] // 9
    bits[5, 0 * words] ^= np.uint64(1 << 7)  # tap (0, 0): dead on a 1x1 map
    conv.params["filter_bits"] = bits
    after = compile_plan(graph).execute((x,))[0]
    assert np.array_equal(after, Executor(graph).run(x))
    assert np.array_equal(after[..., :5], before[..., :5])  # other filters
    assert np.array_equal(after, before) == (padding is Padding.SAME_ZERO)


def test_live_taps_of_a_two_pixel_map(rng):
    """On a 1x2 map a 3x3 SAME conv reads the input through the middle
    kernel row only: each pixel's whole-map gather holds two of its taps,
    the other seven read padding there, and the plan equals the
    Executor."""
    params = BConv2DParams(3, 3, 8, 8, padding=Padding.SAME_ONE)
    assert whole_map_taps(params, 1, 2) == ((4, 5), (3, 4))
    assert whole_map_taps(params, 1, 1) == ((4,),)
    b = GraphBuilder((1, 1, 2, 8))
    y = b.binarize(b.input)
    y = b.conv2d(y, rng.standard_normal((3, 3, 8, 8)).astype(np.float32),
                 binary_weights=True, padding=Padding.SAME_ZERO)
    graph = convert(b.finish(y)).graph
    x = rng.standard_normal((1, 1, 2, 8)).astype(np.float32)
    assert np.array_equal(compile_plan(graph).execute((x,))[0], Executor(graph).run(x))


@pytest.mark.parametrize("hw", ((1, 2), (1, 3), (5, 4)))
@pytest.mark.parametrize("output, shortcut", (("float", True), ("bitpacked", False)))
def test_same_zero_is_the_padding_attribute_alone(hw, output, shortcut, rng):
    """Converted graphs carry no correction table: flipping only the
    ``padding`` attribute of a converted SAME_ONE conv to SAME_ZERO gives
    a legal graph, whose plan (on a whole map, off one, and on a map with
    an interior) equals the Executor and differs from the one-padded
    plan."""
    graph = _small_map_net(rng, Padding.SAME_ONE, output, True, shortcut, 72, hw)
    assert not any("padding_correction" in n.params for n in graph.nodes)
    x = rng.standard_normal((1, *hw, 8)).astype(np.float32)
    one_padded = compile_plan(graph).execute((x,))[0]
    _dead_tap_conv(graph).attrs["padding"] = Padding.SAME_ZERO
    graph.validate()
    got, want = compile_plan(graph).execute((x,))[0], Executor(graph).run(x)
    if isinstance(want, PackedTensor):
        got, want, one_padded = got.bits, want.bits, one_padded.bits
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert not np.array_equal(got, one_padded)


# ----------------------------------------------------------- whole maps

#: (in_h, in_w, kernel, stride, paddings): every window covers the map
WHOLE_MAPS = [
    *[(h, w, 3, 1, SAME) for h, w in ((1, 1), (1, 2), (2, 1), (2, 2))],
    (2, 2, 3, 2, SAME),  # 3x3 stride 2 on a 2x2 map: one output pixel
    (2, 2, 2, 1, (Padding.VALID,)),  # the kernel is the map
]


@pytest.mark.parametrize("cin", (32, 96, 130, 512))  # odd halves, a tail word
@pytest.mark.parametrize(
    "h, w, k, stride, padding",
    [(h, w, k, s, pad) for h, w, k, s, pads in WHOLE_MAPS for pad in pads],
)
def test_whole_map_equals_the_reference(h, w, k, stride, padding, cin, rng):
    """On a whole map the bound kernel runs one (n, pixels * cout) GEMM
    over one patch row per image, in the scratch its reservation made; it
    equals :func:`bconv2d` (what the Executor runs) for float, bitpacked
    and int8 output, with and without an absorbed quantize and shortcut,
    at batch 1, 3 and 8."""
    cout = 24
    params = BConv2DParams(k, k, cin, cout, stride=stride, padding=padding)
    assert whole_map_taps(params, h, w) is not None
    weights = rng.choice([-1.0, 1.0], (k, k, cin, cout)).astype(np.float32)
    filters = pack_filters(weights)
    mult = rng.uniform(0.5, 1.5, cout).astype(np.float32)
    bias = rng.standard_normal(cout).astype(np.float32)
    outputs = {
        "float": dict(multiplier=mult, bias=bias, activation=Activation.RELU),
        "bitpacked": dict(
            output_type=OutputType.BITPACKED,
            thresholds=compute_output_thresholds(params.depth, cout, mult, bias),
        ),
        "int8": dict(
            multiplier=mult, bias=bias, output_type=OutputType.INT8,
            int8_output_scale=0.5, int8_output_zero_point=3,
        ),
    }
    ws = Workspace()  # one arena for the grid, as in an engine
    for batch in (1, 3, 8):
        x = rng.standard_normal((batch, h, w, cin)).astype(np.float32)
        for name, output in outputs.items():
            want = bconv2d(lce_quantize(x), filters, params, **output)
            shortcuts = (None, 1) if name == "float" else (None,)
            for quantize, shortcut in itertools.product((False, True), shortcuts):
                kernel = BoundBConv2D(
                    filters, params, h, w, batch, quantize=quantize,
                    shortcut=shortcut, **output,
                )
                assert kernel.whole_map == whole_map_taps(params, h, w)
                reserve_bconv2d_workspace(ws, params, h, w, batch, quantize=quantize)
                grows = ws.grows
                run = kernel.bind(ws)
                assert ws.grows == grows  # reservation covers the dense form
                other = rng.standard_normal(want.shape).astype(np.float32)
                got = run(x if quantize else lce_quantize(x), other)
                expected = want if shortcut is None else add(want, other)
                if isinstance(expected, PackedTensor):
                    got, expected = got.bits, expected.bits
                assert got.dtype == expected.dtype
                assert np.array_equal(got, expected), (name, batch, quantize, shortcut)


@pytest.mark.parametrize("hw", ((1, 2), (2, 2)))
@pytest.mark.parametrize("padding", SAME)
@pytest.mark.parametrize("output, shortcut", (("float", False), ("float", True),
                                              ("bitpacked", False)))
@pytest.mark.parametrize("quantize", (True, False))
def test_whole_map_plan_equals_the_executor(hw, padding, output, shortcut, quantize, rng):
    """A converted net's whole-map conv, fused as a plan fuses it, equals
    the Executor image by image at batch 1, 3 and 8."""
    graph = _small_map_net(rng, padding, output, quantize, shortcut, 130, hw)
    params = BConv2DParams(3, 3, 130, 130, padding=padding)
    assert whole_map_taps(params, *hw) is not None
    executor = Executor(graph)
    for factor in (1, 3, 8):
        plan = compile_plan(graph, batch_factor=factor)
        x = rng.standard_normal((factor, *hw, 8)).astype(np.float32)
        got = plan.execute((x,))
        per_image = [executor.run(row[None]) for row in x]
        per_image = [w if isinstance(w, tuple) else (w,) for w in per_image]
        for i, g in enumerate(got):
            want = [image[i] for image in per_image]
            if isinstance(g, PackedTensor):
                g, want = g.bits, [w.bits for w in want]
            assert g.dtype == want[0].dtype
            assert np.array_equal(g, np.concatenate(want))


def test_whole_map_predicate():
    """True exactly where every window covers the map; each pixel's taps
    name the input pixels in row-major order."""
    for h, w, k, stride, paddings in WHOLE_MAPS:
        for padding in paddings:
            params = BConv2DParams(k, k, 8, 8, stride=stride, padding=padding)
            gather = whole_map_taps(params, h, w)
            assert gather is not None and {len(t) for t in gather} == {h * w}
    same = BConv2DParams(3, 3, 8, 8, padding=Padding.SAME_ONE)
    assert whole_map_taps(same, 2, 2) == ((4, 5, 7, 8), (3, 4, 6, 7),
                                          (1, 2, 4, 5), (0, 1, 3, 4))
    assert whole_map_taps(same, 1, 1) == ((4,),)
    for h, w in ((3, 3), (1, 3), (4, 4)):
        assert whole_map_taps(same, h, w) is None


@pytest.mark.parametrize("padding", SAME)
def test_flipping_a_tap_dead_at_one_pixel(padding, rng):
    """On a 1x2 map tap (1, 0) reads padding at output pixel 0 only, so it
    is left out of that pixel's gather and lands in the offset.  Flip one
    of its filter bits: one-padded, pixel 0 moves — and the output still
    equals the Executor's, which multiplies every tap.  Zero-padded, pixel
    0 must not move: there the tap reads only zeros, and the kernel derives
    its offset from the flipped bits itself."""
    graph = _small_map_net(rng, padding, "float", True, False, hw=(1, 2))
    x = rng.standard_normal((1, 1, 2, 8)).astype(np.float32)
    before = compile_plan(graph).execute((x,))[0]
    conv = _dead_tap_conv(graph)
    bits = conv.params["filter_bits"].copy()
    words = bits.shape[1] // 9
    bits[5, 3 * words] ^= np.uint64(1 << 7)  # tap (1, 0), filter 5
    conv.params["filter_bits"] = bits
    cin = conv.attrs["in_channels"]
    params = BConv2DParams(3, 3, cin, cin, padding=padding)
    assert [3 in taps for taps in whole_map_taps(params, 1, 2)] == [False, True]
    after = compile_plan(graph).execute((x,))[0]
    assert np.array_equal(after, Executor(graph).run(x))
    assert np.array_equal(after[..., :5], before[..., :5])  # other filters
    moved = not np.array_equal(after[:, 0, 0], before[:, 0, 0])
    assert moved == (padding is Padding.SAME_ONE)


@pytest.mark.parametrize("padding", SAME)
@pytest.mark.parametrize("width", (3, 4))
def test_dead_taps_off_a_whole_map(width, padding, rng):
    """On a 1x3 or 1x4 map no window covers the map: the kernel multiplies
    every tap, the top and bottom kernel rows too, which read only padding
    (odd halves at 130 channels), and equals the Executor."""
    params = BConv2DParams(3, 3, 130, 130, padding=padding)
    assert whole_map_taps(params, 1, width) is None
    filters = pack_filters(rng.choice([-1.0, 1.0], (3, 3, 130, 130)))
    BoundBConv2D(filters, params, 1, width, 1)
    assert list(filters.operands) == [(tuple(range(9)),)]
    graph = _small_map_net(rng, padding, "float", True, True, 130, (1, width))
    executor = Executor(graph)
    for factor in (1, 3):
        x = rng.standard_normal((factor, 1, width, 8)).astype(np.float32)
        got = compile_plan(graph, batch_factor=factor).execute((x,))[0]
        assert np.array_equal(got, np.concatenate([executor.run(r[None]) for r in x]))


def _whole_map_convs(graph):
    """``(in_h, in_w, in_channels)`` of each binarized conv on a whole map."""
    spec = get_spec("lce_bconv2d")
    found = []
    for node in graph.nodes:
        if node.op != "lce_bconv2d":
            continue
        a = spec.parse_attrs(node.attrs)
        params = BConv2DParams(a.kernel_h, a.kernel_w, a.in_channels,
                               a.out_channels, a.stride, a.dilation, a.padding)
        _, h, w, cin = graph.tensors[node.inputs[0]].shape
        if whole_map_taps(params, h, w) is not None:
            found.append((h, w, cin))
    return found


def test_quicknet_small_whole_map_convs():
    """At 224 px no QuickNet-small conv runs the whole-map form; at 64 px
    exactly its four 2x2x512 convs do."""
    assert _whole_map_convs(convert(build_model("quicknet_small")).graph) == []
    at_64 = convert(build_model("quicknet_small", input_size=64)).graph
    assert _whole_map_convs(at_64) == [(2, 2, 512)] * 4
