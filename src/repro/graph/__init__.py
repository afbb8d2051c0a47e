"""Graph IR, builder, executor and model serialization.

The paper's converter is built on MLIR and its runtime on TensorFlow Lite.
This subpackage provides our equivalents:

- :mod:`repro.graph.ir` — a small dataflow graph IR (named tensors, nodes
  with attributes and parameter arrays, verification).
- :mod:`repro.graph.builder` — a functional builder API used by the model
  zoo and the training layers.
- :mod:`repro.graph.executor` — the reference interpreter running graphs
  on the NumPy kernels, with per-node value recording for PTQ calibration.
- :mod:`repro.graph.serialization` — the "LCE model file": a compact
  binary format with 1-bit packed binary weights.
- :mod:`repro.graph.passes` — the converter's graph-transformation passes.
"""

from repro.graph.builder import GraphBuilder
from repro.graph.executor import Executor
from repro.graph.ir import Graph, Node, TensorSpec
from repro.graph.serialization import load_model, save_model

__all__ = [
    "Executor",
    "Graph",
    "GraphBuilder",
    "Node",
    "TensorSpec",
    "load_model",
    "save_model",
]
