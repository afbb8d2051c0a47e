"""QuickNet — the paper's simple, state-of-the-art BNN (Section 5.1).

Architecture (paper Figures 6a/6b, Table 3):

- **Stem**: a small 3x3 full-precision convolution with 16 filters
  (stride 2) followed by a depthwise separable convolution (strided
  depthwise 3x3 + pointwise 1x1), taking 224x224 input to 56x56 with
  ``k_0`` features.
- **Four residual sections** ``i = 0..3``: ``N_i`` binarized 3x3
  convolutions with ``k_i`` filters, each with a residual connection over
  the single layer.  All binarized layers use one-padding and ReLU,
  followed by batch normalization (conv -> ReLU -> BN).
- **Transition blocks** between sections: antialiased 3x3 max pooling
  (max pool + strided depthwise blur) then a full-precision 1x1
  convolution raising the feature count to ``k_{i+1}``.
- **Head**: global average pooling + full-precision dense to 1000 classes.
"""

from __future__ import annotations

from repro.core.types import Padding
from repro.graph.builder import GraphBuilder
from repro.graph.ir import Graph
from repro.zoo.common import (
    WeightFactory,
    antialiased_maxpool,
    binary_conv,
    classifier_head,
    conv_bn,
)

#: Table 3 configurations: (layers per section N, filters per section k).
QUICKNET_VARIANTS: dict[str, tuple[tuple[int, ...], tuple[int, ...]]] = {
    "small": ((4, 4, 4, 4), (32, 64, 256, 512)),
    "medium": ((4, 4, 4, 4), (64, 128, 256, 512)),
    "large": ((6, 8, 12, 6), (64, 128, 256, 512)),
}


def _residual_binary_layer(
    b: GraphBuilder, wf: WeightFactory, x: str, channels: int
) -> str:
    """One QuickNet layer: x + BN(ReLU(bconv(sign(x))))."""
    h = binary_conv(b, wf, x, channels, channels, kernel=3, padding=Padding.SAME_ONE)
    h = b.relu(h)
    h = b.batch_norm(h, wf.bn(channels))
    return b.add(h, x)


def quicknet(
    variant: str = "medium",
    input_size: int = 224,
    classes: int = 1000,
    seed: int = 42,
) -> Graph:
    """Build a QuickNet training graph.

    Args:
        variant: ``"small"``, ``"medium"`` or ``"large"`` (paper Table 3).
        input_size: spatial input resolution (224 in the paper; smaller
            values are handy in tests).
        classes: classifier output width.
        seed: weight-initialization seed.
    """
    try:
        layers, filters = QUICKNET_VARIANTS[variant]
    except KeyError:
        raise ValueError(
            f"unknown QuickNet variant {variant!r}; choose from {sorted(QUICKNET_VARIANTS)}"
        ) from None
    wf = WeightFactory(seed)
    b = GraphBuilder((1, input_size, input_size, 3), name=f"quicknet_{variant}")

    # Stem (Figure 6a): 3x3/2 conv to 16 features, then depthwise separable
    # conv to k_0 features at stride 2: 224 -> 112 -> 56.
    x = conv_bn(b, wf, b.input, 3, 16, kernel=3, stride=2)
    x = b.depthwise_conv2d(x, wf.depthwise(3, 3, 16), stride=2)
    x = conv_bn(b, wf, x, 16, filters[0], kernel=1, activation=False)

    for section, (n_layers, k) in enumerate(zip(layers, filters)):
        for _ in range(n_layers):
            x = _residual_binary_layer(b, wf, x, k)
        if section < len(filters) - 1:
            # Transition (Figure 6b): antialiased max pool + fp pointwise.
            x = antialiased_maxpool(b, x, k)
            x = conv_bn(
                b, wf, x, k, filters[section + 1], kernel=1, activation=False
            )
    x = b.relu(x)
    out = classifier_head(b, wf, x, filters[-1], classes)
    return b.finish(out)
