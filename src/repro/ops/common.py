"""Shared helpers for op definitions: schema shortcuts, NHWC geometry,
pooling infer/compile bodies, and bandwidth-style cost helpers."""

from __future__ import annotations

import math

import numpy as np

from repro.core.im2col import conv_geometry
from repro.core.types import Activation, Padding
from repro.graph.ir import GraphError, TensorSpec
from repro.ops.registry import AttrField, Attrs, KernelFn, OpContext


# ------------------------------------------------------- schema shortcuts
def int_attr(name: str, default: int | None = None, required: bool = False) -> AttrField:
    return AttrField(name, "int", default=default, required=required)


def float_attr(
    name: str, default: float | None = None, required: bool = False
) -> AttrField:
    return AttrField(name, "float", default=default, required=required)


def optional_float_attr(name: str) -> AttrField:
    return AttrField(name, "float", default=None, nullable=True)


def optional_int_attr(name: str) -> AttrField:
    return AttrField(name, "int", default=None, nullable=True)


def bool_attr(name: str, default: bool = False) -> AttrField:
    return AttrField(name, "bool", default=default)


def enum_attr(name: str, enum_type, default) -> AttrField:
    return AttrField(name, "enum", default=default, enum_type=enum_type)


def shape_attr(name: str) -> AttrField:
    return AttrField(name, "int_tuple", required=True)


#: the common convolution attribute quartet
def conv_attrs(default_padding: Padding = Padding.SAME_ZERO) -> tuple[AttrField, ...]:
    return (
        int_attr("stride", 1),
        int_attr("dilation", 1),
        enum_attr("padding", Padding, default_padding),
        enum_attr("activation", Activation, Activation.NONE),
    )


POOL_ATTRS: tuple[AttrField, ...] = (
    int_attr("pool_h", required=True),
    int_attr("pool_w", required=True),
    optional_int_attr("stride"),
    enum_attr("padding", Padding, Padding.VALID),
)


# ------------------------------------------------------------- inference
def nhwc(spec: TensorSpec, op: str) -> tuple[int, int, int, int]:
    if len(spec.shape) != 4:
        raise GraphError(f"{op} expects NHWC input, got shape {spec.shape}")
    return spec.shape  # type: ignore[return-value]


def conv_out(
    spec: TensorSpec, kh: int, kw: int, p: Attrs, op: str
) -> tuple[int, int, int]:
    n, h, w, _ = nhwc(spec, op)
    geom = conv_geometry(h, w, kh, kw, p.stride, p.dilation, p.padding)
    return n, geom.out_h, geom.out_w


def infer_same_shape(specs, p, params):
    """output mirrors the input spec"""
    return [TensorSpec(specs[0].shape, specs[0].dtype)]


def infer_pool(specs, p, params, op: str):
    """NHWC window geometry, channels preserved"""
    stride = p.stride or max(p.pool_h, p.pool_w)
    n, h, w, c = nhwc(specs[0], op)
    geom = conv_geometry(h, w, p.pool_h, p.pool_w, stride, 1, p.padding)
    return [TensorSpec((n, geom.out_h, geom.out_w, c), specs[0].dtype)]


# ------------------------------------------------------------ compilation
def plan_kernel(node, ctx: OpContext, form, eager, *args, **kwargs) -> KernelFn:
    """``eager(x, *args, **kwargs)`` as a kernel — or, compiling into a
    plan's arena, its bound form ``form(input_shape, *args, **kwargs)``
    (:mod:`repro.kernels.bound`): scratch reserved now, views bound on the
    first call and again after the arena grew."""
    if ctx.workspace is None or ctx.specs is None:  # the reference executor
        return lambda ins: eager(ins[0], *args, **kwargs)
    bound = form(ctx.specs[node.inputs[0]].shape, *args, **kwargs)
    arena, bind = ctx.workspace, bound.bind
    for name, shape, dtype in bound.scratch:
        arena.reserve(name, math.prod(shape), dtype)
    return lambda ins: arena.bound(bound, bind)(ins[0])


def pool_args(p: Attrs) -> tuple:
    """A 2-D pooling call's window arguments after ``x``."""
    return (p.pool_h, p.pool_w, p.stride, p.padding)


# ------------------------------------------------------------------ costs
def io_bytes(input_specs, output_specs) -> float:
    """Bytes touched reading every input and writing every output."""
    return float(
        sum(s.nbytes for s in input_specs) + sum(s.nbytes for s in output_specs)
    )


def eltwise_cost(profile, node, p, input_specs, output_specs):
    """bandwidth-bound elementwise traffic"""
    from repro.hw.latency import bandwidth_cost

    return bandwidth_cost(profile, io_bytes(input_specs, output_specs))


def pool_window_elems(p: Attrs, output_specs) -> float:
    """Window-sized element count of a pooling op's output."""
    window = p.pool_h * p.pool_w
    return float(np.prod(output_specs[0].shape)) * window


__all__ = [
    "POOL_ATTRS",
    "bool_attr",
    "conv_attrs",
    "conv_out",
    "eltwise_cost",
    "enum_attr",
    "float_attr",
    "infer_pool",
    "infer_same_shape",
    "int_attr",
    "io_bytes",
    "nhwc",
    "optional_float_attr",
    "optional_int_attr",
    "plan_kernel",
    "pool_args",
    "pool_window_elems",
    "shape_attr",
]
