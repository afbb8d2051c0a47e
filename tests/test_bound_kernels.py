"""Bound float kernels (:mod:`repro.kernels.bound`) against their eager
kernels, bit for bit, and the dead-tap rule of the bound binarized conv.

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
from repro.core.bconv2d import BConv2DParams, kmajor_words, live_taps
from repro.core.bitpack import PackedTensor
from repro.core.quantize_ops import lce_quantize
from repro.core.types import Activation, Padding
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
from repro.runtime import compile_plan

PADDINGS = (Padding.VALID, Padding.SAME_ZERO, Padding.SAME_ONE)
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


def _one_pixel_net(rng, padding, output, quantize, shortcut, cin=96):
    """A converted 3x3 binarized conv on a 1x1 map (8 of 9 taps dead),
    after a float conv; with ``quantize`` the conv absorbs its
    ``lce_quantize``, with ``shortcut`` the residual add."""
    b = GraphBuilder((1, 1, 1, 8))
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
    graph = _one_pixel_net(rng, padding, output, quantize, shortcut, cin)
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
    one bit of one and the plan's output changes — and still equals the
    Executor's, which multiplies every tap."""
    graph = _one_pixel_net(rng, padding, "float", True, False)
    x = rng.standard_normal((1, 1, 1, 8)).astype(np.float32)
    before = compile_plan(graph).execute((x,))[0]
    conv = _dead_tap_conv(graph)
    bits = conv.params["filter_bits"].copy()
    words = bits.shape[1] // 9
    bits[5, 0 * words] ^= np.uint64(1 << 7)  # tap (0, 0): dead on a 1x1 map
    conv.params["filter_bits"] = bits
    after = compile_plan(graph).execute((x,))[0]
    assert not np.array_equal(before, after)
    assert np.array_equal(after, Executor(graph).run(x))
    assert np.array_equal(after[..., :5], before[..., :5])  # other filters


def test_live_taps_of_a_two_pixel_map(rng):
    """On a 1x2 map a 3x3 SAME conv has six dead taps (the top and bottom
    rows); the remaining three stay live, and the plan equals the
    Executor."""
    params = BConv2DParams(3, 3, 8, 8, padding=Padding.SAME_ONE)
    assert live_taps(params, 1, 2) == ((3, 4, 5), True)  # kx 0 / 2 read the border
    assert live_taps(params, 1, 1) == ((4,), False)
    assert live_taps(params, 3, 3) == (tuple(range(9)), True)
    b = GraphBuilder((1, 1, 2, 8))
    y = b.binarize(b.input)
    y = b.conv2d(y, rng.standard_normal((3, 3, 8, 8)).astype(np.float32),
                 binary_weights=True, padding=Padding.SAME_ZERO)
    graph = convert(b.finish(y)).graph
    x = rng.standard_normal((1, 1, 2, 8)).astype(np.float32)
    assert np.array_equal(compile_plan(graph).execute((x,))[0], Executor(graph).run(x))
