"""Converter passes: training graph -> optimized LCE inference graph.

Each submodule implements one graph transformation from Section 3.1 of the
paper as ``pass_fn(graph) -> bool``, returning whether anything changed.
:data:`PASSES` lists them in dependency order — each pass only creates
matches for passes after it — so :func:`run_passes` runs every pass exactly
once, the role the MLIR pass manager plays in the paper's converter:

- ``canonicalize`` strips no-op nodes so the patterns below match;
- ``binarize_convs`` creates the ``LceBConv2d`` / ``LceQuantize`` pairs and
  leaves the emulation ``binarize`` nodes dead;
- ``dce`` drops them, so the pools and convolutions that fed them have one
  consumer again;
- ``fuse_output_transform`` folds batch norms and activations into their
  producers, both layer orders at once;
- ``bmaxpool_swap`` moves MaxPools behind binarization, inserting a
  quantize on the pool's input;
- ``dedupe_quantize`` merges quantizes that read the same tensor, including
  the ones the swap inserts;
- ``bitpacked_chain`` runs last, so its thresholds capture the complete
  fused transform and every convolution has a single quantize consumer.
"""

from __future__ import annotations

from typing import Callable

from repro.graph.ir import Graph, GraphError
from repro.graph.passes import (
    binarize_convs,
    bitpacked_chain,
    bmaxpool_swap,
    canonicalize,
    dce,
    dedupe_quantize,
    fuse_output_transform,
)

PassFn = Callable[[Graph], bool]

PASSES: tuple[tuple[str, PassFn], ...] = (
    ("canonicalize", canonicalize.canonicalize),
    ("binarize_convs", binarize_convs.binarize_convs),
    ("dce", dce.dce),
    ("fuse_output_transform", fuse_output_transform.fuse_output_transform),
    ("bmaxpool_swap", bmaxpool_swap.bmaxpool_swap),
    ("dedupe_quantize", dedupe_quantize.dedupe_quantize),
    ("bitpacked_chain", bitpacked_chain.bitpacked_chain),
)


def run_passes(
    graph: Graph, passes: tuple[tuple[str, PassFn], ...] = PASSES
) -> dict[str, int]:
    """Run each pass once, in order; return ``{name: 1 if it changed the graph}``.

    The graph is validated after **every** pass — whether or not the pass
    reported a change, so a buggy pass that mutates but returns ``False``
    cannot skip verification — with the full :meth:`Graph.validate` stack
    (structure, attr schemas and the dataflow analyses).  A failure raises
    :class:`GraphError` naming the pass that broke the graph and the rule
    it violated.
    """
    changes: dict[str, int] = {}
    for name, fn in passes:
        changes[name] = int(bool(fn(graph)))
        try:
            graph.validate()
        except GraphError as exc:
            raise GraphError(f"pass {name!r} left the graph invalid: {exc}") from exc
    return changes


__all__ = ["PASSES", "run_passes"]
