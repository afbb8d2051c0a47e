"""Swap MaxPool and binarization: ``max(sign(X)) == sign(max(X))``.

A full-precision MaxPool whose consumers are all ``LceQuantize`` nodes can
run *after* the binarization instead, on bitpacked data, as the cheap
bitwise-AND ``LceBMaxPool2d`` (paper Section 3.2).  This both shrinks the
tensor the pool reads 32x and removes float comparisons.  When the pool
fed several binarized convolutions, they all read the one bitpacked pool
output; the quantize inserted on the pool's input may duplicate one that
was already there, which ``dedupe_quantize`` merges afterwards.
"""

from __future__ import annotations

from repro.graph.ir import Graph, TensorSpec


def bmaxpool_swap(graph: Graph) -> bool:
    changed = False
    for node in list(graph.nodes):
        if node.op != "maxpool2d" or graph.is_output(node.outputs[0]):
            continue
        consumers = graph.consumers(node.outputs[0])
        if not consumers or any(c.op != "lce_quantize" for c in consumers):
            continue
        source = node.inputs[0]
        in_spec = graph.tensors[source]
        pool_out_spec = graph.tensors[node.outputs[0]]
        index = graph.nodes.index(node)
        quantize = graph.insert_node(
            index,
            "lce_quantize",
            [source],
            [TensorSpec(in_spec.shape, "bitpacked")],
        )
        bpool = graph.insert_node(
            index + 1,
            "lce_bmaxpool2d",
            [quantize.outputs[0]],
            [TensorSpec(pool_out_spec.shape, "bitpacked")],
            attrs=dict(node.attrs),
        )
        for consumer in consumers:
            graph.replace_uses(consumer.outputs[0], bpool.outputs[0])
            graph.remove_node(consumer)
        graph.remove_node(node)
        changed = True
    return changed
