"""Elementwise / shape-plumbing op specs.

identity, binarize, relu, relu6, softmax, sigmoid, add, mul, concat,
pad_channels, reshape and batch_norm.
"""

from __future__ import annotations

import numpy as np

from repro.graph.ir import GraphError, TensorSpec
from repro.kernels import add, concat, mul, relu, relu6, reshape, softmax
from repro.kernels.batchnorm import fold_to_multiplier_bias
from repro.ops.common import (
    eltwise_cost,
    infer_same_shape,
    int_attr,
    shape_attr,
)
from repro.ops.registry import CLASS_FP_ADD, OpSpec, register


# ---------------------------------------------------------- trivial costs
def _overhead_only_cost(profile, node, p, input_specs, output_specs):
    """per-op dispatch overhead; no data is moved"""
    from repro.hw.latency import LatencyBreakdown

    return LatencyBreakdown(overhead_s=profile.device.op_overhead_s)


def _transcendental_cost(profile, node, p, input_specs, output_specs):
    """exp-heavy elementwise math (softmax / sigmoid)"""
    from repro.hw.latency import EXP_ELEMS_PER_CYCLE, LatencyBreakdown

    device = profile.device
    elems = float(output_specs[0].num_elements)
    return LatencyBreakdown(
        overhead_s=device.op_overhead_s,
        other_s=device.cycles_to_seconds(elems / EXP_ELEMS_PER_CYCLE),
    )


def _concat_cost(profile, node, p, input_specs, output_specs):
    """read + write of the concatenated output"""
    from repro.hw.latency import bandwidth_cost

    return bandwidth_cost(profile, 2 * float(output_specs[0].nbytes))


# -------------------------------------------------------------- identity
register(
    OpSpec(
        name="identity",
        doc="pass the input through unchanged",
        attrs=(),
        infer=infer_same_shape,
        kernel=lambda node, p, ctx: lambda ins: ins[0],
        cost=_overhead_only_cost,
    )
)

register(
    OpSpec(
        name="binarize",
        doc="training-time sign binarization (STE forward)",
        attrs=(),
        infer=infer_same_shape,
        kernel=lambda node, p, ctx: lambda ins: np.where(
            np.asarray(ins[0]) < 0, np.float32(-1.0), np.float32(1.0)
        ),
        cost=eltwise_cost,
    )
)

register(
    OpSpec(
        name="relu",
        doc="max(x, 0)",
        attrs=(),
        infer=infer_same_shape,
        kernel=lambda node, p, ctx: lambda ins: relu(ins[0]),
        cost=eltwise_cost,
    )
)

register(
    OpSpec(
        name="relu6",
        doc="clip(x, 0, 6)",
        attrs=(),
        infer=infer_same_shape,
        kernel=lambda node, p, ctx: lambda ins: relu6(ins[0]),
        cost=eltwise_cost,
    )
)


def _sigmoid_kernel(node, p, ctx):
    def fn(ins):
        x = np.asarray(ins[0], dtype=np.float32)
        # exp(-x) overflows to inf for x << 0; 1 / (1 + inf) = 0 is the limit.
        with np.errstate(over="ignore"):
            return 1.0 / (1.0 + np.exp(-x))

    return fn


register(
    OpSpec(
        name="softmax",
        doc="softmax over the last axis",
        attrs=(),
        infer=infer_same_shape,
        kernel=lambda node, p, ctx: lambda ins: softmax(ins[0]),
        cost=_transcendental_cost,
    )
)

register(
    OpSpec(
        name="sigmoid",
        doc="logistic activation",
        attrs=(),
        infer=infer_same_shape,
        kernel=_sigmoid_kernel,
        cost=_transcendental_cost,
    )
)


# ------------------------------------------------------ binary elementwise
def _infer_binary_elementwise(specs, p, params):
    """NumPy broadcasting of two inputs"""
    if len(specs) != 2:
        raise GraphError("add/mul take exactly two inputs")
    try:
        shape = tuple(
            int(d) for d in np.broadcast_shapes(specs[0].shape, specs[1].shape)
        )
    except ValueError:
        raise GraphError(
            f"shapes not broadcastable: {specs[0].shape} vs {specs[1].shape}"
        ) from None
    return [TensorSpec(shape, specs[0].dtype)]


register(
    OpSpec(
        name="add",
        doc="broadcast elementwise addition",
        attrs=(),
        infer=_infer_binary_elementwise,
        kernel=lambda node, p, ctx: lambda ins: add(ins[0], ins[1]),
        cost=eltwise_cost,
        op_class=CLASS_FP_ADD,
    )
)

register(
    OpSpec(
        name="mul",
        doc="broadcast elementwise multiplication",
        attrs=(),
        infer=_infer_binary_elementwise,
        kernel=lambda node, p, ctx: lambda ins: mul(ins[0], ins[1]),
        cost=eltwise_cost,
    )
)


# ----------------------------------------------------------------- concat
def _infer_concat(specs, p, params):
    """sum the concat axis, other dims must agree"""
    axis = p.axis % len(specs[0].shape)
    base = list(specs[0].shape)
    total = 0
    for s in specs:
        dims = list(s.shape)
        if dims[:axis] + dims[axis + 1 :] != base[:axis] + base[axis + 1 :]:
            raise GraphError(f"concat shape mismatch: {s.shape} vs {specs[0].shape}")
        total += dims[axis]
    base[axis] = total
    return [TensorSpec(tuple(base), specs[0].dtype)]


def _concat_kernel(node, p, ctx):
    axis = p.axis
    return lambda ins: concat(list(ins), axis=axis)


register(
    OpSpec(
        name="concat",
        doc="concatenate along one axis",
        attrs=(int_attr("axis", -1),),
        infer=_infer_concat,
        kernel=_concat_kernel,
        cost=_concat_cost,
    )
)


# ----------------------------------------------------------- pad_channels
def _infer_pad_channels(specs, p, params):
    """widen the channel axis by before+after"""
    if p.before < 0 or p.after < 0:
        raise GraphError("pad_channels amounts must be non-negative")
    shape = specs[0].shape[:-1] + (specs[0].shape[-1] + p.before + p.after,)
    return [TensorSpec(shape, specs[0].dtype)]


def _pad_channels_kernel(node, p, ctx):
    before, after = p.before, p.after

    def fn(ins):
        x = np.asarray(ins[0])
        pad = [(0, 0)] * (x.ndim - 1) + [(before, after)]
        return np.pad(x, pad)

    return fn


register(
    OpSpec(
        name="pad_channels",
        doc="zero-pad the channel axis",
        attrs=(int_attr("before", 0), int_attr("after", 0)),
        infer=_infer_pad_channels,
        kernel=_pad_channels_kernel,
        cost=eltwise_cost,
    )
)


# ---------------------------------------------------------------- reshape
def _infer_reshape(specs, p, params):
    """element count must be preserved"""
    if int(np.prod(p.shape)) != specs[0].num_elements:
        raise GraphError(
            f"reshape {specs[0].shape} -> {p.shape} changes element count"
        )
    return [TensorSpec(p.shape, specs[0].dtype)]


def _reshape_kernel(node, p, ctx):
    shape = p.shape
    if ctx.batch_factor != 1:
        shape = (shape[0] * ctx.batch_factor,) + shape[1:]
    return lambda ins: reshape(ins[0], shape)


register(
    OpSpec(
        name="reshape",
        doc="reinterpret the tensor shape",
        attrs=(shape_attr("shape"),),
        infer=_infer_reshape,
        kernel=_reshape_kernel,
        cost=_overhead_only_cost,
    )
)


# ------------------------------------------------------------- batch_norm
def _infer_batch_norm(specs, p, params):
    """channel count must match the BN parameters"""
    bn = params["bn"]
    if np.shape(bn.gamma)[0] != specs[0].shape[-1]:
        raise GraphError(
            f"batch_norm channels {np.shape(bn.gamma)[0]} != input {specs[0].shape[-1]}"
        )
    return [TensorSpec(specs[0].shape, specs[0].dtype)]


def _batch_norm_kernel(node, p, ctx):
    multiplier, bias = ctx.cache.get(
        node, "bn_folded", lambda: fold_to_multiplier_bias(node.params["bn"])
    )
    return lambda ins: (ins[0] * multiplier + bias).astype(np.float32)


register(
    OpSpec(
        name="batch_norm",
        doc="inference-mode batch normalization (folded multiplier/bias)",
        attrs=(),
        infer=_infer_batch_norm,
        kernel=_batch_norm_kernel,
        cost=eltwise_cost,
    )
)
