"""Full-precision layer op specs: convolutions, dense, pooling."""

from __future__ import annotations

import functools

import numpy as np

from repro.graph.ir import GraphError, TensorSpec
from repro.kernels import (
    avgpool2d,
    conv2d_float,
    dense_float,
    depthwise_conv2d_float,
    global_avgpool,
    maxpool2d,
)
from repro.kernels.bound import (
    BoundAvgPool2D,
    BoundConv2D,
    BoundDense,
    BoundDepthwiseConv2D,
    BoundGlobalAvgPool,
    BoundMaxPool2D,
)
from repro.ops.common import (
    POOL_ATTRS,
    conv_attrs,
    conv_out,
    enum_attr,
    bool_attr,
    infer_pool,
    plan_kernel,
    pool_args,
    pool_window_elems,
)
from repro.ops.registry import CLASS_FP_CONV, OpSpec, register
from repro.core.types import Activation


# ----------------------------------------------------------------- conv2d
def _infer_conv2d(specs, p, params):
    """NHWC conv geometry from the weight tensor (kh, kw, cin, cout)"""
    w = params["weights"]
    kh, kw, cin, cout = w.shape
    if specs[0].shape[-1] != cin:
        raise GraphError(f"conv2d input channels {specs[0].shape[-1]} != {cin}")
    n, oh, ow = conv_out(specs[0], kh, kw, p, "conv2d")
    return [TensorSpec((n, oh, ow, cout), specs[0].dtype)]


def _conv2d_kernel(node, p, ctx):
    def derive_weights():
        weights = node.params["weights"]
        if p.binary_weights:
            weights = np.where(weights < 0, np.float32(-1.0), np.float32(1.0))
        return weights

    weights = ctx.cache.get(node, "conv_weights", derive_weights)
    return plan_kernel(
        node, ctx, BoundConv2D, conv2d_float, weights, **_conv_args(node, p)
    )


def _conv_args(node, p) -> dict:
    return dict(
        bias=node.params.get("bias"),
        stride=p.stride,
        dilation=p.dilation,
        padding=p.padding,
        activation=p.activation,
    )


def _conv2d_cost(profile, node, p, input_specs, output_specs):
    """float GEMM roofline + im2col"""
    from repro.hw.latency import conv_cost

    n, h, w, _ = input_specs[0].shape
    kh, kw, cin, cout = node.params["weights"].shape
    return conv_cost(
        profile, "float32", n, h, w, cin, cout, kh, kw,
        stride=p.stride, dilation=p.dilation, padding=p.padding,
    )


register(
    OpSpec(
        name="conv2d",
        doc="float 2-D convolution (optionally with binarized weights)",
        attrs=conv_attrs() + (bool_attr("binary_weights"),),
        infer=_infer_conv2d,
        kernel=_conv2d_kernel,
        cost=_conv2d_cost,
        op_class=CLASS_FP_CONV,
        mac_layer=True,
    )
)


# ------------------------------------------------------- depthwise_conv2d
def _infer_depthwise(specs, p, params):
    """per-channel conv geometry from the (kh, kw, c) weight tensor"""
    w = params["weights"]
    kh, kw, c = w.shape
    if specs[0].shape[-1] != c:
        raise GraphError(f"depthwise input channels {specs[0].shape[-1]} != {c}")
    n, oh, ow = conv_out(specs[0], kh, kw, p, "depthwise_conv2d")
    return [TensorSpec((n, oh, ow, c), specs[0].dtype)]


def _depthwise_kernel(node, p, ctx):
    return plan_kernel(
        node, ctx, BoundDepthwiseConv2D, depthwise_conv2d_float,
        node.params["weights"], **_conv_args(node, p),
    )


def _depthwise_cost(profile, node, p, input_specs, output_specs):
    """MAC count at the depthwise vectorization efficiency"""
    from repro.hw.latency import DEPTHWISE_EFFICIENCY, LatencyBreakdown

    device = profile.device
    spec = output_specs[0]
    kh, kw, c = node.params["weights"].shape
    macs = float(np.prod(spec.shape)) * kh * kw
    mpc = device.sustained_macs_per_cycle["float32"] * DEPTHWISE_EFFICIENCY
    cycles = macs / mpc
    return LatencyBreakdown(
        overhead_s=device.op_overhead_s,
        accumulation_s=device.cycles_to_seconds(cycles),
    )


register(
    OpSpec(
        name="depthwise_conv2d",
        doc="float depthwise 2-D convolution",
        attrs=conv_attrs(),
        infer=_infer_depthwise,
        kernel=_depthwise_kernel,
        cost=_depthwise_cost,
        mac_layer=True,
    )
)


# ------------------------------------------------------------------ dense
def _infer_dense(specs, p, params):
    """feature axis maps through the (in, out) weight matrix"""
    w = params["weights"]
    if specs[0].shape[-1] != w.shape[0]:
        raise GraphError(f"dense input features {specs[0].shape[-1]} != {w.shape[0]}")
    return [TensorSpec(specs[0].shape[:-1] + (w.shape[1],), specs[0].dtype)]


def _dense_kernel(node, p, ctx):
    return plan_kernel(
        node, ctx, BoundDense, dense_float, node.params["weights"],
        bias=node.params.get("bias"), activation=p.activation,
    )


def _dense_cost(profile, node, p, input_specs, output_specs):
    """weight-streaming GEMV roofline"""
    from repro.hw.latency import LatencyBreakdown

    device = profile.device
    w = node.params["weights"]
    macs = float(np.prod(output_specs[0].shape[:-1])) * w.shape[0] * w.shape[1]
    weight_bytes = float(w.shape[0] * w.shape[1] * 4)
    compute = macs / device.sustained("float32", weight_bytes)
    memory = weight_bytes / device.dram_bytes_per_cycle
    return LatencyBreakdown(
        overhead_s=device.op_overhead_s,
        accumulation_s=device.cycles_to_seconds(max(compute, memory)),
        memory_bound=memory > compute,
    )


register(
    OpSpec(
        name="dense",
        doc="float fully-connected layer",
        attrs=(enum_attr("activation", Activation, Activation.NONE),),
        infer=_infer_dense,
        kernel=_dense_kernel,
        cost=_dense_cost,
        mac_layer=True,
    )
)


# ---------------------------------------------------------------- pooling
def _pool_cost(profile, node, p, input_specs, output_specs):
    """window-sized element traffic at the pool unit rate"""
    from repro.hw.latency import LatencyBreakdown

    device = profile.device
    elems = pool_window_elems(p, output_specs)
    cycles = elems / device.pool_elems_per_cycle
    return LatencyBreakdown(
        overhead_s=device.op_overhead_s, other_s=device.cycles_to_seconds(cycles)
    )


def _maxpool_kernel(node, p, ctx):
    # the bound form runs in the input's dtype: int8 in, int8 out
    dtype = ctx.specs[node.inputs[0]].dtype if ctx.specs else None
    form = functools.partial(BoundMaxPool2D, dtype=dtype)
    return plan_kernel(node, ctx, form, maxpool2d, *pool_args(p))


register(
    OpSpec(
        name="maxpool2d",
        doc="2-D max pooling (int8-transparent)",
        attrs=POOL_ATTRS,
        infer=lambda specs, p, params: infer_pool(specs, p, params, "maxpool2d"),
        kernel=_maxpool_kernel,
        cost=_pool_cost,
    )
)

register(
    OpSpec(
        name="avgpool2d",
        doc="2-D average pooling",
        attrs=POOL_ATTRS,
        infer=lambda specs, p, params: infer_pool(specs, p, params, "avgpool2d"),
        kernel=lambda node, p, ctx: plan_kernel(
            node, ctx, BoundAvgPool2D, avgpool2d, *pool_args(p)
        ),
        cost=_pool_cost,
    )
)


def _infer_gap(specs, p, params):
    """NHWC -> NC spatial mean"""
    from repro.ops.common import nhwc

    n, _, _, c = nhwc(specs[0], "global_avgpool")
    return [TensorSpec((n, c), specs[0].dtype)]


def _gap_cost(profile, node, p, input_specs, output_specs):
    """bandwidth over the reduced input"""
    from repro.hw.latency import bandwidth_cost

    return bandwidth_cost(profile, float(input_specs[0].nbytes))


register(
    OpSpec(
        name="global_avgpool",
        doc="global spatial average pooling",
        attrs=(),
        infer=_infer_gap,
        kernel=lambda node, p, ctx: plan_kernel(
            node, ctx, BoundGlobalAvgPool, global_avgpool
        ),
        cost=_gap_cost,
    )
)
