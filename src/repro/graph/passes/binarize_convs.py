"""Replace emulated binarized convolutions with true ``LceBConv2d`` ops.

The training graph (built by Larq-style layers) represents a binarized
convolution as::

    binarize(x) -> conv2d(binary_weights=True, latent float weights)

This pass rewrites the pattern to::

    lce_quantize(x) -> lce_bconv2d(bitpacked filters)

performing binary weight compression on the way: the latent float weights
are reduced to 1 bit per value (the paper's 32x weight-size reduction).
The padding is the ``padding`` attribute alone: the bound kernel derives
a zero-padded conv's correction (Section 3.2) from its filter bits.
"""

from __future__ import annotations

import numpy as np

from repro.core.bconv2d import BConv2DParams, pack_filters
from repro.core.types import Activation, Padding
from repro.graph.ir import Graph, TensorSpec


def binarize_convs(graph: Graph) -> bool:
    changed = False
    for node in list(graph.nodes):
        if node.op != "conv2d" or not node.attr("binary_weights"):
            continue
        producer = graph.producer(node.inputs[0])
        if producer is None or producer.op != "binarize":
            continue
        source = producer.inputs[0]
        weights = node.params["weights"]
        kh, kw, cin, cout = weights.shape
        padding = Padding(node.attr("padding", Padding.SAME_ZERO))
        params = BConv2DParams(
            kernel_h=kh,
            kernel_w=kw,
            in_channels=cin,
            out_channels=cout,
            stride=int(node.attr("stride", 1)),
            dilation=int(node.attr("dilation", 1)),
            padding=padding,
        )
        in_spec = graph.tensors[source]
        index = graph.nodes.index(node)
        quantize = graph.insert_node(
            index,
            "lce_quantize",
            [source],
            [TensorSpec(in_spec.shape, "bitpacked")],
        )
        node_params: dict = {"filter_bits": pack_filters(weights).bits}
        if node.params.get("bias") is not None and np.any(node.params["bias"]):
            # A conv bias becomes part of the fused output transform.
            node_params["bias"] = np.asarray(node.params["bias"], np.float32)
        out_spec = graph.tensors[node.outputs[0]]
        bconv = graph.insert_node(
            index + 1,
            "lce_bconv2d",
            [quantize.outputs[0]],
            [TensorSpec(out_spec.shape, "float32")],
            attrs={
                "kernel_h": kh,
                "kernel_w": kw,
                "in_channels": cin,
                "out_channels": cout,
                "stride": params.stride,
                "dilation": params.dilation,
                "padding": padding,
                "activation": Activation(node.attr("activation", Activation.NONE)),
                "scale_before_activation": True,
                "output_type": "float",
            },
            params=node_params,
        )
        graph.replace_uses(node.outputs[0], bconv.outputs[0])
        graph.remove_node(node)
        changed = True
    return changed
