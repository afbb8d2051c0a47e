"""The int8 rewrite: float convolutions/dense layers -> int8 kernels."""

from __future__ import annotations

import numpy as np

from repro.core.types import Activation
from repro.graph.ir import Graph, Node, TensorSpec
from repro.kernels.quantization import QuantParams, quantize_weights_per_channel
from repro.ptq.calibrate import TensorRanges, calibrate


def _quant_params(
    ranges: TensorRanges, tensor: str, alias: dict[str, str]
) -> QuantParams:
    lo, hi = ranges.range_of(alias.get(tensor, tensor))
    return QuantParams.from_range(lo, hi)


def _quantizable(node: Node) -> bool:
    if node.op == "dense":
        return True
    return node.op == "conv2d" and not node.attr("binary_weights")


def _rewrite_node(
    graph: Graph, node: Node, ranges: TensorRanges, alias: dict[str, str]
) -> None:
    in_params = _quant_params(ranges, node.inputs[0], alias)
    out_params = _quant_params(ranges, node.outputs[0], alias)
    weights = node.params["weights"]
    w_q, w_scales = quantize_weights_per_channel(weights)
    params: dict = {"weights_q": w_q, "w_scales": w_scales}
    bias = node.params.get("bias")
    if bias is not None:
        params["bias_q"] = np.round(
            np.asarray(bias, np.float64) / (in_params.scale * w_scales)
        ).astype(np.int64)

    index = graph.nodes.index(node)
    in_spec = graph.tensors[node.inputs[0]]
    out_spec = graph.tensors[node.outputs[0]]
    q_in = graph.insert_node(
        index,
        "quantize_int8",
        [node.inputs[0]],
        [TensorSpec(in_spec.shape, "int8")],
        attrs={"scale": in_params.scale, "zero_point": in_params.zero_point},
    )
    int8_op = graph.insert_node(
        index + 1,
        "conv2d_int8" if node.op == "conv2d" else "dense_int8",
        [q_in.outputs[0]],
        [TensorSpec(out_spec.shape, "int8")],
        attrs={
            **{
                k: node.attrs[k]
                for k in ("stride", "dilation", "padding")
                if k in node.attrs
            },
            "activation": Activation(node.attr("activation", Activation.NONE)),
            "in_scale": in_params.scale,
            "in_zero_point": in_params.zero_point,
            "out_scale": out_params.scale,
            "out_zero_point": out_params.zero_point,
        },
        params=params,
    )
    dq = graph.insert_node(
        index + 2,
        "dequantize_int8",
        [int8_op.outputs[0]],
        [TensorSpec(out_spec.shape, "float32")],
        attrs={"scale": out_params.scale, "zero_point": out_params.zero_point},
    )
    # Downstream rewrites must still find the calibrated range of the value
    # this dequantize now carries.
    alias[dq.outputs[0]] = alias.get(node.outputs[0], node.outputs[0])
    graph.replace_uses(node.outputs[0], dq.outputs[0])
    graph.remove_node(node)


def collapse_requant(graph: Graph) -> bool:
    """Collapse ``dequantize_int8 -> quantize_int8`` boundaries.

    When two int8 ops are adjacent, the float round-trip between them is
    replaced by a direct connection (identical parameters) or by a cheap
    int8 ``requantize_int8`` op (differing parameters), so int8 chains
    exchange int8 tensors just like TFLite's fully-quantized graphs.
    """
    changed = False
    for q in list(graph.nodes):
        if q.op != "quantize_int8":
            continue
        producer = graph.producer(q.inputs[0])
        if producer is None or producer.op != "dequantize_int8":
            continue
        if len(graph.consumers(producer.outputs[0])) != 1 or graph.is_output(
            producer.outputs[0]
        ):
            continue
        same = (
            producer.attrs["scale"] == q.attrs["scale"]
            and producer.attrs["zero_point"] == q.attrs["zero_point"]
        )
        if same:
            graph.replace_uses(q.outputs[0], producer.inputs[0])
            graph.remove_node(q)
            graph.remove_node(producer)
        else:
            index = graph.nodes.index(producer)
            spec = graph.tensors[q.outputs[0]]
            req = graph.insert_node(
                index,
                "requantize_int8",
                [producer.inputs[0]],
                [TensorSpec(spec.shape, "int8")],
                attrs={
                    "in_scale": producer.attrs["scale"],
                    "in_zero_point": producer.attrs["zero_point"],
                    "out_scale": q.attrs["scale"],
                    "out_zero_point": q.attrs["zero_point"],
                },
            )
            graph.replace_uses(q.outputs[0], req.outputs[0])
            graph.remove_node(q)
            graph.remove_node(producer)
        changed = True
    return changed


_POOL_OPS = ("maxpool2d",)


def sink_pool_through_quant(graph: Graph) -> bool:
    """Run max pooling on int8 data directly.

    Max commutes with the (monotone) affine quantization, so the pattern
    ``dequantize_int8 -> maxpool2d -> quantize_int8`` with identical
    parameters becomes an int8 max pool — the int8 analog of the paper's
    binarize-before-maxpool rewrite.
    """
    changed = False
    for pool in list(graph.nodes):
        if pool.op not in _POOL_OPS:
            continue
        producer = graph.producer(pool.inputs[0])
        if producer is None or producer.op != "dequantize_int8":
            continue
        if len(graph.consumers(producer.outputs[0])) != 1:
            continue
        consumers = graph.consumers(pool.outputs[0])
        if graph.is_output(pool.outputs[0]) or len(consumers) != 1:
            continue
        q = consumers[0]
        if q.op != "quantize_int8":
            continue
        index = graph.nodes.index(producer)
        out_spec = graph.tensors[pool.outputs[0]]
        int8_pool = graph.insert_node(
            index,
            pool.op,
            [producer.inputs[0]],
            [TensorSpec(out_spec.shape, "int8")],
            attrs=dict(pool.attrs),
        )
        same = (
            producer.attrs["scale"] == q.attrs["scale"]
            and producer.attrs["zero_point"] == q.attrs["zero_point"]
        )
        if same:
            replacement = int8_pool.outputs[0]
        else:
            # Pool at the producer's parameters, then step to the consumer's.
            req = graph.insert_node(
                index + 1,
                "requantize_int8",
                [int8_pool.outputs[0]],
                [TensorSpec(out_spec.shape, "int8")],
                attrs={
                    "in_scale": producer.attrs["scale"],
                    "in_zero_point": producer.attrs["zero_point"],
                    "out_scale": q.attrs["scale"],
                    "out_zero_point": q.attrs["zero_point"],
                },
            )
            replacement = req.outputs[0]
        graph.replace_uses(q.outputs[0], replacement)
        graph.remove_node(q)
        graph.remove_node(pool)
        graph.remove_node(producer)
        changed = True
    return changed


def sink_relu_through_quant(graph: Graph) -> bool:
    """Run ReLU in the quantized domain.

    ``dequantize -> relu`` is ``dequantize(max(q, zero_point))``: rewrite to
    an int8 clamp followed by the same dequantize, so the surrounding
    collapse passes can keep fusing the int8 chain.
    """
    changed = False
    for relu in list(graph.nodes):
        if relu.op != "relu":
            continue
        producer = graph.producer(relu.inputs[0])
        if producer is None or producer.op != "dequantize_int8":
            continue
        if len(graph.consumers(producer.outputs[0])) != 1 or graph.is_output(
            producer.outputs[0]
        ):
            continue
        index = graph.nodes.index(producer)
        spec = graph.tensors[relu.outputs[0]]
        int8_relu = graph.insert_node(
            index,
            "relu_int8",
            [producer.inputs[0]],
            [TensorSpec(spec.shape, "int8")],
            attrs={
                "scale": producer.attrs["scale"],
                "zero_point": producer.attrs["zero_point"],
            },
        )
        dq = graph.insert_node(
            index + 1,
            "dequantize_int8",
            [int8_relu.outputs[0]],
            [TensorSpec(spec.shape, "float32")],
            attrs=dict(producer.attrs),
        )
        graph.replace_uses(relu.outputs[0], dq.outputs[0])
        graph.remove_node(relu)
        graph.remove_node(producer)
        changed = True
    return changed


def quantize_residual_adds(graph: Graph, ranges: TensorRanges, alias: dict[str, str]) -> bool:
    """Rewrite ``add(dequantize, dequantize)`` into an int8 add.

    The shortcut Adds of a quantized ResNet run in the quantized domain in
    TFLite; this pass gives our PTQ graphs the same property so residual
    networks stay int8 end to end.
    """
    changed = False
    for add in list(graph.nodes):
        if add.op != "add":
            continue
        producers = [graph.producer(t) for t in add.inputs]
        if any(p is None or p.op != "dequantize_int8" for p in producers):
            continue
        if len({p.name for p in producers}) != 2:
            continue  # self-add of one tensor: leave in float
        out_key = alias.get(add.outputs[0], add.outputs[0])
        try:
            lo, hi = ranges.range_of(out_key)
        except KeyError:
            continue
        out_params = QuantParams.from_range(lo, hi)
        index = graph.nodes.index(add)
        out_spec = graph.tensors[add.outputs[0]]
        int8_add = graph.insert_node(
            index,
            "add_int8",
            [p.inputs[0] for p in producers],
            [TensorSpec(out_spec.shape, "int8")],
            attrs={
                "a_scale": producers[0].attrs["scale"],
                "a_zero_point": producers[0].attrs["zero_point"],
                "b_scale": producers[1].attrs["scale"],
                "b_zero_point": producers[1].attrs["zero_point"],
                "out_scale": out_params.scale,
                "out_zero_point": out_params.zero_point,
            },
        )
        dq = graph.insert_node(
            index + 1,
            "dequantize_int8",
            [int8_add.outputs[0]],
            [TensorSpec(out_spec.shape, "float32")],
            attrs={"scale": out_params.scale, "zero_point": out_params.zero_point},
        )
        alias[dq.outputs[0]] = out_key
        graph.replace_uses(add.outputs[0], dq.outputs[0])
        graph.remove_node(add)
        for p in producers:
            if not graph.consumers(p.outputs[0]) and not graph.is_output(
                p.outputs[0]
            ):
                graph.remove_node(p)
        changed = True
    return changed


def quantize_model(
    graph: Graph,
    calibration_batches: list[np.ndarray],
) -> Graph:
    """Post-training-quantize a float graph's conv/dense layers to int8.

    Binarized convolutions are left alone (they are already 1-bit); every
    other convolution and dense layer gets int8 weights (symmetric,
    per-output-channel) and int8 activations at calibrated ranges.

    The rewrite runs on ``graph.copy()``: the input is never mutated, and
    parameter arrays the rewrite keeps are shared with it read-only.
    """
    g = graph.copy()
    # Standalone batch norms would sit as float islands between int8 ops;
    # fold them into their convolutions first (the fusion the converter
    # also performs, cf. paper Section 3.1).
    from repro.graph.passes.fuse_output_transform import fuse_output_transform

    fuse_output_transform(g)
    ranges = calibrate(g, calibration_batches)
    alias: dict[str, str] = {}
    for node in list(g.nodes):
        if _quantizable(node):
            _rewrite_node(g, node, ranges, alias)
    while (
        collapse_requant(g)
        or sink_pool_through_quant(g)
        or sink_relu_through_quant(g)
        or quantize_residual_adds(g, ranges, alias)
    ):
        pass
    g.verify()
    return g
