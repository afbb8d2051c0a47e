"""The LCE converter: one API endpoint, like the PyPI package's converter.

:func:`convert` maps a *training graph* (float-emulated binarized ops, as
built by :mod:`repro.training.layers` or :mod:`repro.zoo`) to an optimized
*inference graph* with true LCE operators, fused transforms and bitpacked
weights — the role the paper's MLIR-based converter plays (Section 3.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.graph.ir import Graph
from repro.graph.passes import run_passes


@dataclass(frozen=True)
class ConversionReport:
    """What the pass pipeline did to the graph (``pass_changes``: 1 for each
    pass that changed it, else 0)."""

    nodes_before: int
    nodes_after: int
    pass_changes: dict[str, int] = field(default_factory=dict)
    param_bytes_before: int = 0
    param_bytes_after: int = 0

    @property
    def weight_compression(self) -> float:
        """Model-parameter size ratio before/after conversion.

        Binary weights shrink 32x (1 bit vs float32); the overall factor
        depends on the binary fraction of the model.
        """
        if self.param_bytes_after == 0:
            return float("inf")
        return self.param_bytes_before / self.param_bytes_after


@dataclass(frozen=True)
class ConvertedModel:
    """An inference-ready model: optimized graph + conversion report."""

    graph: Graph
    report: ConversionReport


def convert(training_graph: Graph) -> ConvertedModel:
    """Convert a training graph into an optimized LCE inference model.

    Runs :data:`repro.graph.passes.PASSES` once each, in dependency order:
    emulated binarized convolutions become ``LceBConv2d`` with bitpacked
    weights; dead emulation ops are removed; batch norms and activations
    fuse into the preceding ops; MaxPools move behind binarization;
    back-to-back binarized convolutions exchange bitpacked data via
    precomputed thresholds.  The graph is validated on entry and after
    every pass, so the last pass's check is the result's.

    The passes run on ``training_graph.copy()``, so the input is never
    mutated: its structure is copied and its parameter arrays are shared
    read-only with the converted graph wherever a pass keeps them.  Pass
    ``build_model(...)`` straight in when the training graph is not needed
    afterwards, so its float weights can be freed.

    Args:
        training_graph: graph built by the zoo / training layers.
    """
    graph = training_graph.copy()
    graph.validate()
    nodes_before = len(graph)
    bytes_before = graph.param_nbytes()
    changes = run_passes(graph)
    report = ConversionReport(
        nodes_before=nodes_before,
        nodes_after=len(graph),
        pass_changes=changes,
        param_bytes_before=bytes_before,
        param_bytes_after=graph.param_nbytes(),
    )
    return ConvertedModel(graph=graph, report=report)
