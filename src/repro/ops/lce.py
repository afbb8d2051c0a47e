"""Binarized (LCE) op specs: quantize, dequantize, bconv2d, bmaxpool2d."""

from __future__ import annotations

from repro.core.bconv2d import (
    BConv2DParams,
    BoundBConv2D,
    PackedFilters,
    bconv2d,
    reserve_bconv2d_workspace,
)
from repro.core.bmaxpool import bmaxpool2d
from repro.core.output_transform import OutputThresholds
from repro.core.quantize_ops import lce_dequantize, lce_quantize
from repro.core.types import Activation, OutputType, Padding
from repro.graph.ir import GraphError, TensorSpec
from repro.kernels.bound import BoundLceQuantize
from repro.ops.common import (
    POOL_ATTRS,
    bool_attr,
    conv_out,
    enum_attr,
    infer_pool,
    int_attr,
    optional_float_attr,
    plan_kernel,
    pool_args,
)
from repro.ops.registry import (
    CLASS_LCE_BCONV,
    CLASS_LCE_QUANTIZE,
    OpSpec,
    register,
)


# ------------------------------------------------------------ pack/unpack
def _infer_lce_quantize(specs, p, params):
    """any real dtype in, bitpacked sign bits out"""
    if specs[0].dtype == "bitpacked":
        raise GraphError("lce_quantize input is already bitpacked")
    return [TensorSpec(specs[0].shape, "bitpacked")]


def _lce_quantize_cost(profile, node, p, input_specs, output_specs):
    """sign extraction + bit packing over the input"""
    from repro.hw.latency import LatencyBreakdown

    device = profile.device
    return LatencyBreakdown(
        overhead_s=device.op_overhead_s,
        transform_s=device.cycles_to_seconds(
            float(input_specs[0].nbytes) / device.pack_bytes_per_cycle
        ),
    )


register(
    OpSpec(
        name="lce_quantize",
        doc="binarize and bitpack activations (sign bits, 64/word)",
        attrs=(),
        infer=_infer_lce_quantize,
        kernel=lambda node, p, ctx: plan_kernel(
            node, ctx, BoundLceQuantize, lce_quantize
        ),
        cost=_lce_quantize_cost,
        op_class=CLASS_LCE_QUANTIZE,
        binary=True,
    )
)


def _infer_lce_dequantize(specs, p, params):
    """bitpacked in, {-1,+1} float32 out"""
    if specs[0].dtype != "bitpacked":
        raise GraphError("lce_dequantize expects bitpacked input")
    return [TensorSpec(specs[0].shape, "float32")]


def _lce_dequantize_cost(profile, node, p, input_specs, output_specs):
    """bit unpacking into float writes"""
    from repro.hw.latency import LatencyBreakdown

    device = profile.device
    return LatencyBreakdown(
        overhead_s=device.op_overhead_s,
        transform_s=device.cycles_to_seconds(
            float(output_specs[0].nbytes) / device.pack_bytes_per_cycle
        ),
    )


register(
    OpSpec(
        name="lce_dequantize",
        doc="unpack bitpacked sign bits to {-1,+1} float32",
        attrs=(),
        infer=_infer_lce_dequantize,
        kernel=lambda node, p, ctx: lambda ins: lce_dequantize(ins[0]),
        cost=_lce_dequantize_cost,
        binary=True,
        accepts_bitpacked=True,
    )
)


# ---------------------------------------------------------------- bconv2d
_BCONV_ATTRS = (
    int_attr("kernel_h", required=True),
    int_attr("kernel_w", required=True),
    int_attr("in_channels", required=True),
    int_attr("out_channels", required=True),
    int_attr("stride", 1),
    int_attr("dilation", 1),
    enum_attr("padding", Padding, Padding.SAME_ONE),
    int_attr("groups", 1),
    enum_attr("activation", Activation, Activation.NONE),
    bool_attr("scale_before_activation", default=True),
    enum_attr("output_type", OutputType, OutputType.FLOAT),
    optional_float_attr("int8_output_scale"),
    int_attr("int8_output_zero_point", 0),
)


def _infer_lce_bconv2d(specs, p, params):
    """bitpacked NHWC conv geometry; output dtype follows output_type"""
    if specs[0].dtype != "bitpacked":
        raise GraphError("lce_bconv2d expects bitpacked input")
    if specs[0].shape[-1] != p.in_channels:
        raise GraphError(
            f"lce_bconv2d input channels {specs[0].shape[-1]} != {p.in_channels}"
        )
    n, oh, ow = conv_out(specs[0], p.kernel_h, p.kernel_w, p, "lce_bconv2d")
    out_dtype = {
        OutputType.BITPACKED: "bitpacked",
        OutputType.INT8: "int8",
    }.get(p.output_type, "float32")
    return [TensorSpec((n, oh, ow, p.out_channels), out_dtype)]


def bconv2d_kernel(node, p, ctx, quantize=False, shortcut=None):
    """Kernel factory of ``lce_bconv2d``.

    With a plan workspace a ``groups == 1`` node compiles to a
    :class:`~repro.core.bconv2d.BoundBConv2D`, bound to that arena on its
    first call (and again after the arena grew).  ``quantize`` / ``shortcut``
    are :func:`repro.runtime.plan.compile_plan`'s peepholes (the kernel also
    does the ``lce_quantize`` feeding it / the ``add`` consuming it): the
    kernel then takes ``[x, shortcut]`` and stamps the boundaries between
    the absorbed nodes into its optional second argument.  The reference
    ``Executor`` (no workspace) and grouped convolutions get the exact
    +/-1 float reference :func:`~repro.core.bconv2d.bconv2d`, which pads
    with 0.0 or +1.0 itself, and reserve nothing.
    """

    def build_params():
        return BConv2DParams(
            kernel_h=p.kernel_h,
            kernel_w=p.kernel_w,
            in_channels=p.in_channels,
            out_channels=p.out_channels,
            stride=p.stride,
            dilation=p.dilation,
            padding=p.padding,
            groups=p.groups,
        )

    params = ctx.cache.get(node, "bconv_params", build_params)
    filters = ctx.cache.get(
        node,
        "packed_filters",
        lambda: PackedFilters(
            bits=node.params["filter_bits"],
            kernel_h=params.kernel_h,
            kernel_w=params.kernel_w,
            in_channels=params.in_channels // params.groups,
        ),
    )

    def build_thresholds():
        if "threshold" not in node.params:
            return None
        return OutputThresholds(
            threshold=node.params["threshold"], flip=node.params["threshold_flip"]
        )

    transform = dict(
        multiplier=node.params.get("multiplier"),
        bias=node.params.get("bias"),
        activation=p.activation,
        scale_before_activation=p.scale_before_activation,
        output_type=p.output_type,
        thresholds=ctx.cache.get(node, "thresholds", build_thresholds),
        int8_output_scale=p.int8_output_scale,
        int8_output_zero_point=p.int8_output_zero_point,
    )
    arena = ctx.workspace
    if arena is not None and ctx.specs is not None and params.groups == 1:
        # Everything shape-dependent happens here, at compile time.
        batch, in_h, in_w = ctx.specs[node.inputs[0]].shape[:3]
        reserve_bconv2d_workspace(arena, params, in_h, in_w, batch, quantize=quantize)
        # Packs the filters' K-major operand now, once per model: ``filters``
        # lives in the ParamCache, so every batch factor and replica shares it.
        kernel = BoundBConv2D(
            filters, params, in_h, in_w, batch,
            quantize=quantize, shortcut=shortcut, **transform,
        )
        bind = kernel.bind
        return lambda ins, marks=None: arena.bound(kernel, bind)(
            *ins, marks=marks
        )
    return lambda ins: bconv2d(ins[0], filters, params, **transform)


def _lce_bconv2d_cost(profile, node, p, input_specs, output_specs):
    """binary GEMM roofline + the selected output-transform path"""
    from repro.hw.latency import conv_cost

    n, h, w, _ = input_specs[0].shape
    return conv_cost(
        profile,
        "binary",
        n, h, w, p.in_channels, p.out_channels, p.kernel_h, p.kernel_w,
        stride=p.stride,
        dilation=p.dilation,
        padding=p.padding,
        bitpacked_output=p.output_type is OutputType.BITPACKED,
        fused_transform=node.params.get("multiplier") is not None,
        zero_padding_correction=p.padding is Padding.SAME_ZERO,
        int8_output=p.output_type is OutputType.INT8,
    )


register(
    OpSpec(
        name="lce_bconv2d",
        doc="binarized 2-D convolution (XOR-popcount BGEMM, fused transform)",
        attrs=_BCONV_ATTRS,
        infer=_infer_lce_bconv2d,
        kernel=bconv2d_kernel,
        cost=_lce_bconv2d_cost,
        op_class=CLASS_LCE_BCONV,
        binary=True,
        accepts_bitpacked=True,
        mac_layer=True,
    )
)


# -------------------------------------------------------------- bmaxpool
def _infer_lce_bmaxpool(specs, p, params):
    """bitpacked window pooling (bitwise OR of sign bits)"""
    if specs[0].dtype != "bitpacked":
        raise GraphError("lce_bmaxpool2d expects bitpacked input")
    return infer_pool(specs, p, params, "lce_bmaxpool2d")


def _bmaxpool_kernel(node, p, ctx):
    args = pool_args(p)
    return lambda ins: bmaxpool2d(ins[0], *args)


def _lce_bmaxpool_cost(profile, node, p, input_specs, output_specs):
    """word-granular bitwise pooling"""
    from repro.hw.latency import BPOOL_WORD_SPEEDUP, LatencyBreakdown, words_per_pixel

    device = profile.device
    n, oh, ow, c = output_specs[0].shape
    window = p.pool_h * p.pool_w
    word_ops = float(n * oh * ow * window * words_per_pixel(c))
    cycles = word_ops / (device.pool_elems_per_cycle * BPOOL_WORD_SPEEDUP)
    return LatencyBreakdown(
        overhead_s=device.op_overhead_s, other_s=device.cycles_to_seconds(cycles)
    )


register(
    OpSpec(
        name="lce_bmaxpool2d",
        doc="max pooling directly on bitpacked activations",
        attrs=POOL_ATTRS,
        infer=_infer_lce_bmaxpool,
        kernel=_bmaxpool_kernel,
        cost=_lce_bmaxpool_cost,
        binary=True,
        accepts_bitpacked=True,
    )
)
