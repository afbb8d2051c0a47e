"""Fuse batch normalization and activations into the preceding operator.

A convolution, dense layer or ``LceBConv2d`` absorbs the ``batch_norm`` /
``relu`` / ``relu6`` nodes that follow it, one at a time, while each is the
sole consumer of the op's output and the fused transform can still
represent it.  Both real-world layer orders, conv -> BN -> act and
QuickNet's conv -> act -> BN, therefore fuse in one sweep.

- **Batch norm into a float op.**  The per-channel multiplier folds
  directly into the weights — "for free" (paper Section 3.2) — unless an
  activation is already fused (an affine cannot fold through it).
- **Batch norm into ``LceBConv2d``.**  The binary weights cannot absorb a
  multiplier, so the BN becomes the op's two extra per-channel inputs
  (multiplier and bias) applied on the accumulators in the fused output
  transformation.  With no activation fused yet, affines compose
  (``m' = m2*m``, ``b' = m2*b + b2``).  After a fused activation with no
  affine before it, the BN lands *after* the activation, recorded as
  ``scale_before_activation=False``; after ``act(m*acc + b)`` the
  transform is not representable and the BN stays standalone.
- **Activation.**  A ``relu`` / ``relu6`` becomes the op's fused
  activation when it has none yet.  For ``LceBConv2d`` it is applied
  directly on the BGEMM accumulators (paper Section 3.2), after any fused
  affine, avoiding an extra pass over the output.
"""

from __future__ import annotations

import numpy as np

from repro.core.types import Activation
from repro.graph.ir import Graph, Node
from repro.graph.passes.common import bypass_node, sole_consumer
from repro.kernels.batchnorm import fold_into_conv, fold_to_multiplier_bias

_FLOAT_OPS = ("conv2d", "depthwise_conv2d", "dense")
_ACTIVATIONS = {"relu": Activation.RELU, "relu6": Activation.RELU6}


def _fuse_activation(producer: Node, activation: Activation) -> bool:
    if Activation(producer.attr("activation", Activation.NONE)) is not Activation.NONE:
        return False
    bconv = producer.op == "lce_bconv2d"
    if bconv and not producer.attr("scale_before_activation", True):
        return False  # an earlier fusion already placed a scale after an act
    producer.attrs["activation"] = activation
    if bconv:
        # With the activation fused last, the transform reads
        # act(multiplier * acc + bias): scale happens first.
        producer.attrs["scale_before_activation"] = True
    return True


def _fuse_into_float_op(producer: Node, bn) -> bool:
    if producer.op == "conv2d" and producer.attr("binary_weights"):
        return False  # latent binary weights cannot absorb a multiplier
    if Activation(producer.attr("activation", Activation.NONE)) is not Activation.NONE:
        return False  # cannot fold an affine through a nonlinearity
    # The multiplier broadcasts over the last (output-channel) axis of
    # conv2d, depthwise and dense weights alike.
    producer.params["weights"], producer.params["bias"] = fold_into_conv(
        producer.params["weights"], producer.params.get("bias"), bn
    )
    return True


def _fuse_into_bconv(producer: Node, bn) -> bool:
    m2, b2 = fold_to_multiplier_bias(bn)
    activation = Activation(producer.attr("activation", Activation.NONE))
    m1 = producer.params.get("multiplier")
    b1 = producer.params.get("bias")
    if activation is Activation.NONE:
        # Affine-after-affine composes regardless of order flags.
        channels = int(producer.attrs["out_channels"])
        m1 = np.ones(channels, np.float32) if m1 is None else np.asarray(m1, np.float32)
        b1 = np.zeros(channels, np.float32) if b1 is None else np.asarray(b1, np.float32)
        producer.params["multiplier"] = (m2 * m1).astype(np.float32)
        producer.params["bias"] = (m2 * b1 + b2).astype(np.float32)
        producer.attrs["scale_before_activation"] = True
    else:
        if m1 is not None or b1 is not None:
            return False  # act(m*acc+b) followed by affine is not representable
        # conv -> act -> BN: record the affine as happening after the act.
        producer.params["multiplier"] = m2.astype(np.float32)
        producer.params["bias"] = b2.astype(np.float32)
        producer.attrs["scale_before_activation"] = False
    return True


def _absorb(producer: Node, consumer: Node) -> bool:
    """Fold ``consumer`` into ``producer``'s transform; False if it cannot."""
    if consumer.op in _ACTIVATIONS:
        return _fuse_activation(producer, _ACTIVATIONS[consumer.op])
    if consumer.op != "batch_norm":
        return False
    if producer.op == "lce_bconv2d":
        return _fuse_into_bconv(producer, consumer.params["bn"])
    return _fuse_into_float_op(producer, consumer.params["bn"])


def fuse_output_transform(graph: Graph) -> bool:
    changed = False
    for node in list(graph.nodes):
        if node.op not in _FLOAT_OPS and node.op != "lce_bconv2d":
            continue
        if node.op == "lce_bconv2d" and node.attr("output_type") != "float":
            continue
        while (consumer := sole_consumer(graph, node.outputs[0])) is not None:
            if not _absorb(node, consumer):
                break
            bypass_node(graph, consumer)
            changed = True
    return changed
