"""The Larq-Zoo analog: training-graph builders for the paper's models.

Each builder returns a *training graph* (emulated binarization) that
:func:`repro.converter.convert` turns into an LCE inference model.  Weights
are deterministic random initializations — architecture and geometry are
what the paper's latency experiments measure; reported ImageNet accuracies
live in :mod:`repro.zoo.registry` (see DESIGN.md for the substitution note).

Builders:

- :func:`quicknet` — the paper's QuickNet (small / medium / large, Table 3).
- :func:`birealnet18` — Bi-Real Net (Liu et al., 2018).
- :func:`realtobinarynet` — Real-to-Binary Net (Martinez et al., 2020).
- :func:`binarydensenet` — BinaryDenseNet 28/37/45 (Bethge et al., 2019).
- :func:`meliusnet22` — MeliusNet (Bethge et al., 2020).
- :func:`binary_alexnet` — Binary AlexNet (Hubara et al., 2016).
- :func:`xnornet` — XNOR-Net (Rastegari et al., 2016).
- :func:`binary_resnet18` — the shortcut-ablation ResNet-18 variants of
  Figure 8 (A: shortcuts everywhere, B: regular blocks only, C: none).
"""

from repro.zoo.alexnet_variants import binary_alexnet, xnornet
from repro.zoo.densenet_variants import binarydensenet
from repro.zoo.meliusnet import meliusnet22
from repro.zoo.quicknet_variants import quicknet
from repro.zoo.registry import MODEL_REGISTRY, ModelInfo, build_model
from repro.zoo.resnet_variants import (
    binary_resnet18,
    birealnet18,
    realtobinarynet,
    resnet18_float,
)

__all__ = [
    "MODEL_REGISTRY",
    "ModelInfo",
    "binary_alexnet",
    "binary_resnet18",
    "binarydensenet",
    "birealnet18",
    "build_model",
    "meliusnet22",
    "quicknet",
    "realtobinarynet",
    "resnet18_float",
    "xnornet",
]
