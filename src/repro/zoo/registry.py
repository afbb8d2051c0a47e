"""Model registry: builders plus reported ImageNet accuracies.

The accuracy numbers are the pretrained Larq-Zoo top-1 validation
accuracies the paper reports in Figures 7/10/13/15 (which "may deviate
slightly from numbers reported in the original papers").  We cannot train
ImageNet in this environment (see DESIGN.md substitutions), so accuracy is
carried as registry data while latency and MAC counts are *measured* from
the graphs this zoo builds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.graph.ir import Graph
from repro.zoo.alexnet_variants import binary_alexnet, xnornet
from repro.zoo.densenet_variants import binarydensenet
from repro.zoo.meliusnet import meliusnet22
from repro.zoo.quicknet_variants import quicknet
from repro.zoo.resnet_variants import birealnet18, realtobinarynet


@dataclass(frozen=True)
class ModelInfo:
    """One zoo entry."""

    name: str
    family: str
    builder: Callable[..., Graph]
    top1_accuracy: float  # reported ImageNet top-1, percent
    year: int
    #: Larq Zoo's published converted-model size, MB (fidelity check only)
    reported_size_mb: float = 0.0
    notes: str = ""

    def build(self, **kwargs) -> Graph:
        return self.builder(**kwargs)


MODEL_REGISTRY: dict[str, ModelInfo] = {
    info.name: info
    for info in [
        ModelInfo(
            "binary_alexnet", "alexnet", binary_alexnet, 36.30, 2016, 7.49,
            "BinaryNet AlexNet (Hubara et al., 2016)",
        ),
        ModelInfo(
            "xnornet", "alexnet", xnornet, 44.96, 2016, 22.8,
            "XNOR-Net with weight scaling (Rastegari et al., 2016)",
        ),
        ModelInfo(
            "birealnet18", "resnet", birealnet18, 57.47, 2018, 4.03,
            "Bi-Real Net 18 (Liu et al., 2018)",
        ),
        ModelInfo(
            "realtobinarynet", "resnet", realtobinarynet, 65.01, 2020, 5.13,
            "Real-to-Binary Net (Martinez et al., 2020)",
        ),
        ModelInfo(
            "binarydensenet28", "densenet",
            lambda **kw: binarydensenet(28, **kw), 60.91, 2019, 4.12,
            "BinaryDenseNet 28 (Bethge et al., 2019)",
        ),
        ModelInfo(
            "binarydensenet37", "densenet",
            lambda **kw: binarydensenet(37, **kw), 62.89, 2019, 5.13,
            "BinaryDenseNet 37 (Bethge et al., 2019)",
        ),
        ModelInfo(
            "binarydensenet45", "densenet",
            lambda **kw: binarydensenet(45, **kw), 63.54, 2019, 7.54,
            "BinaryDenseNet 45 (Bethge et al., 2019)",
        ),
        ModelInfo(
            "meliusnet22", "meliusnet", meliusnet22, 62.40, 2020, 3.88,
            "MeliusNet-22 (Bethge et al., 2020)",
        ),
        ModelInfo(
            "quicknet_small", "quicknet",
            lambda **kw: quicknet("small", **kw), 59.40, 2021, 4.00,
            "QuickNet Small (this paper, Table 3 row 1)",
        ),
        ModelInfo(
            "quicknet", "quicknet",
            lambda **kw: quicknet("medium", **kw), 63.30, 2021, 4.17,
            "QuickNet (this paper, Table 3 row 2)",
        ),
        ModelInfo(
            "quicknet_large", "quicknet",
            lambda **kw: quicknet("large", **kw), 66.90, 2021, 5.40,
            "QuickNet Large (this paper, Table 3 row 3)",
        ),
    ]
}


def build_model(name: str, **kwargs) -> Graph:
    """Build a zoo model's training graph by registry name."""
    try:
        info = MODEL_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown model {name!r}; available: {sorted(MODEL_REGISTRY)}"
        ) from None
    return info.build(**kwargs)
