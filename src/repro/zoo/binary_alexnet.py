"""Binary AlexNet (Hubara et al., 2016) and XNOR-Net (Rastegari et al., 2016).

The earliest ImageNet BNNs: AlexNet bodies with every convolution except
the first binarized, and the large fully connected layers binarized too
(realized here as 1x1 binarized convolutions on a 1x1 spatial tensor,
which is how a binary engine executes them).  XNOR-Net adds per-channel
weight scaling factors, which the converter absorbs into the fused
multiplier of ``LceBConv2d``.

In the paper's Figure 10 these models are the "almost 2x slower than models
with the same number of MACs" outliers: giant 11x11/5x5 kernels and huge
dense layers map poorly onto modern cache hierarchies.
"""

from __future__ import annotations

import numpy as np

from repro.core.types import Padding
from repro.graph.builder import GraphBuilder
from repro.graph.ir import Graph
from repro.zoo.common import WeightFactory, classifier_head


def _binary_conv_block(
    b: GraphBuilder,
    wf: WeightFactory,
    x: str,
    cin: int,
    cout: int,
    kernel: int,
    pool: bool,
    scaled: bool,
) -> str:
    """binarize -> bconv -> (maxpool) -> BN, XNOR-style scaling optional."""
    h = b.binarize(x)
    h = b.conv2d(
        h, wf.binary(kernel, kernel, cin, cout),
        padding=Padding.SAME_ONE, binary_weights=True,
    )
    if scaled:
        # XNOR-Net weight scaling: a per-channel multiplier.  Express it as
        # a batch norm with zero shift so the converter's fusion handles it
        # exactly like the real engine does.
        from repro.kernels.batchnorm import BatchNormParams

        alphas = wf.rng.uniform(0.2, 1.0, cout).astype(np.float32)
        h = b.batch_norm(
            h,
            BatchNormParams(
                gamma=alphas,
                beta=np.zeros(cout, np.float32),
                mean=np.zeros(cout, np.float32),
                variance=np.ones(cout, np.float32),
            ),
        )
    if pool:
        h = b.maxpool2d(h, 3, 3, stride=2)
    return b.batch_norm(h, wf.bn(cout))


def _alexnet(
    name: str,
    scaled: bool,
    binary_classifier: bool,
    input_size: int,
    classes: int,
    seed: int,
) -> Graph:
    wf = WeightFactory(seed)
    b = GraphBuilder((1, input_size, input_size, 3), name=name)
    # First layer stays full precision: 11x11/4 conv + pool (as in BinaryNet).
    x = b.conv2d(b.input, wf.conv(11, 11, 3, 96), stride=4, padding=Padding.SAME_ZERO)
    x = b.maxpool2d(x, 3, 3, stride=2)
    x = b.batch_norm(x, wf.bn(96))

    x = _binary_conv_block(b, wf, x, 96, 256, kernel=5, pool=True, scaled=scaled)
    x = _binary_conv_block(b, wf, x, 256, 384, kernel=3, pool=False, scaled=scaled)
    x = _binary_conv_block(b, wf, x, 384, 384, kernel=3, pool=False, scaled=scaled)
    x = _binary_conv_block(b, wf, x, 384, 256, kernel=3, pool=True, scaled=scaled)

    # Binarized fully connected layers as 1x1 binarized convolutions on the
    # flattened feature map.
    n, h, w, c = b.spec(x).shape
    flat = h * w * c
    x = b.reshape(x, (n, 1, 1, flat))
    x = _binary_conv_block(b, wf, x, flat, 4096, kernel=1, pool=False, scaled=scaled)
    x = _binary_conv_block(b, wf, x, 4096, 4096, kernel=1, pool=False, scaled=scaled)
    if binary_classifier:
        # BinaryNet binarizes every layer including the classifier, which
        # is why the published model is only ~7.5 MB.
        h = b.binarize(x)
        h = b.conv2d(
            h, wf.binary(1, 1, 4096, classes),
            padding=Padding.SAME_ONE, binary_weights=True,
        )
        h = b.batch_norm(h, wf.bn(classes))
        h = b.reshape(h, (1, classes))
        out = b.softmax(h)
    else:
        out = classifier_head(b, wf, x, 4096, classes)
    return b.finish(out)


def binary_alexnet(input_size: int = 224, classes: int = 1000, seed: int = 31) -> Graph:
    """Binary AlexNet (BinaryNet): every layer after the first binarized,
    classifier included."""
    return _alexnet("binary_alexnet", False, True, input_size, classes, seed)


def xnornet(input_size: int = 224, classes: int = 1000, seed: int = 37) -> Graph:
    """XNOR-Net: weight scaling factors, full-precision first *and* last
    layers (Rastegari et al., 2016)."""
    return _alexnet("xnornet", True, False, input_size, classes, seed)
