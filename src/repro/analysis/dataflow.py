"""Graph dataflow analyses: the converter's MLIR-style verification layer.

The G-rules (``RULES``, docs/architecture.md §8) over a
:class:`repro.graph.ir.Graph`, each invariant in one place: G001 is
:meth:`Graph.verify`, G002 is :func:`repro.ops.validate_graph` plus the
registry's shape/dtype re-inference, and G003 and G005 check the
bitpacked word layout and fusion legality of every ``lce_bconv2d`` — the
paper's Section 3.2 correctness story, which nothing else checks on a
loaded ``.lce`` file.

:func:`analyze_graph` returns diagnostics; :func:`check_graph` raises a
:class:`~repro.graph.ir.GraphError` on any finding and is what
``Graph.validate`` runs, so illegal graphs are rejected at every pass,
plan compilation, executor construction and save/load — before they can
reach a kernel.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.diagnostics import Diagnostic, error
from repro.core.bitpack import WORD_BITS, packed_words
from repro.core.types import OutputType
from repro.graph.ir import Graph, GraphError, Node, TensorSpec
from repro.ops.registry import get_spec, validate_graph


def _specs_equal(a: TensorSpec, b: TensorSpec) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype


def _check_inference(graph: Graph, node: Node, diags: list[Diagnostic]) -> None:
    """G002: registry re-inference must reproduce the recorded specs.

    Runs after ``validate_graph``, so the op is registered and its
    attributes parse.
    """
    where = f"node {node.name!r} ({node.op})"
    spec = get_spec(node.op)
    p = spec.parse_attrs(node.attrs)
    in_specs = [graph.tensors[t] for t in node.inputs]
    for t, in_spec in zip(node.inputs, in_specs):
        if in_spec.dtype == "bitpacked" and not spec.accepts_bitpacked:
            diags.append(
                error(
                    "G002", where,
                    f"bitpacked tensor {t!r} feeds a float-domain op",
                    hint="insert lce_dequantize or keep the chain in lce_* ops",
                )
            )
            return
    try:
        inferred = spec.infer(in_specs, p, node.params)
    except GraphError as exc:
        diags.append(error("G002", where, str(exc)))
        return
    if len(inferred) != len(node.outputs):
        diags.append(
            error("G002", where,
                  f"produces {len(node.outputs)} outputs, inference expects "
                  f"{len(inferred)}")
        )
        return
    for t, got in zip(node.outputs, inferred):
        recorded = graph.tensors[t]
        if not _specs_equal(recorded, got):
            diags.append(
                error(
                    "G002", where,
                    f"output {t!r} recorded as {recorded.dtype}{recorded.shape} "
                    f"but re-inference gives {got.dtype}{got.shape}",
                    hint="a pass changed attrs/inputs without updating specs",
                )
            )


def _stray_padding_bits(filter_bits: np.ndarray, cout: int, cin_g: int) -> bool:
    """Whether any filter sets a bit past ``cin_g`` in a tap's tail word."""
    padding = np.packbits(np.arange(WORD_BITS) >= cin_g % WORD_BITS).view(np.uint64)
    tails = filter_bits.reshape(cout, -1, packed_words(cin_g))[:, :, -1]
    return bool(np.bitwise_and(tails, padding).any())


def _check_bconv(graph: Graph, node: Node, diags: list[Diagnostic]) -> None:
    """G003/G005 over one ``lce_bconv2d`` node."""
    where = f"node {node.name!r} (lce_bconv2d)"
    p = get_spec("lce_bconv2d").parse_attrs(node.attrs)

    # ---- G003: bitpacked word layout -------------------------------------
    if p.in_channels % p.groups or p.out_channels % p.groups:
        diags.append(
            error("G003", where,
                  f"groups={p.groups} must divide in_channels={p.in_channels} "
                  f"and out_channels={p.out_channels}")
        )
        return
    cin_g = p.in_channels // p.groups
    fb = node.params.get("filter_bits")
    if fb is None:
        diags.append(
            error("G003", where, "missing 'filter_bits' parameter",
                  hint="pack the latent weights with core.bconv2d.pack_filters")
        )
    else:
        expected = (p.out_channels, p.kernel_h * p.kernel_w * packed_words(cin_g))
        shape = tuple(getattr(fb, "shape", ()))
        if shape != expected:
            diags.append(
                error(
                    "G003", where,
                    f"filter_bits shape {shape} != expected {expected} "
                    f"(cout, kh*kw*ceil(cin_g/{WORD_BITS}))",
                )
            )
        elif getattr(fb, "dtype", None) is not None and fb.dtype.name != "uint64":
            diags.append(
                error("G003", where,
                      f"filter_bits must be uint64 words, got {fb.dtype}")
            )
        elif cin_g % WORD_BITS and _stray_padding_bits(fb, p.out_channels, cin_g):
            diags.append(
                error("G003", where,
                      f"filter_bits set channel-padding bits past in_channels "
                      f"{cin_g} of a filter's tail word: the XOR-popcount "
                      "would count them",
                      hint="pack the latent weights with core.bconv2d.pack_filters")
            )

    # ---- G005: fusion legality -------------------------------------------
    has_thr = "threshold" in node.params
    has_flip = "threshold_flip" in node.params
    if p.output_type is OutputType.BITPACKED:
        if not (has_thr and has_flip):
            diags.append(
                error(
                    "G005", where,
                    "bitpacked output requires precomputed 'threshold' and "
                    "'threshold_flip' params",
                    hint="the bitpacked_chain pass computes them via "
                    "compute_output_thresholds",
                )
            )
        for leftover in ("multiplier", "bias"):
            if node.params.get(leftover) is not None:
                diags.append(
                    error(
                        "G005", where,
                        f"bitpacked output with a leftover {leftover!r}: the "
                        "transform is already folded into the thresholds, so "
                        "applying it again would be inexact",
                    )
                )
        for name in ("threshold", "threshold_flip"):
            arr = node.params.get(name)
            if arr is not None:
                shape = tuple(getattr(arr, "shape", ()))
                if shape != (p.out_channels,):
                    diags.append(
                        error("G005", where,
                              f"{name} shape {shape} != ({p.out_channels},)")
                    )
    else:
        if has_thr or has_flip:
            diags.append(
                error(
                    "G005", where,
                    f"threshold params on a {p.output_type.value}-output conv: "
                    "stale fusion artifacts",
                )
            )
    if p.output_type is OutputType.INT8 and p.int8_output_scale is None:
        diags.append(
            error("G005", where,
                  "int8 output requires the int8_output_scale attribute")
        )


def analyze_graph(graph: Graph) -> list[Diagnostic]:
    """Run every graph rule; returns the findings (possibly empty).

    G001 is :meth:`Graph.verify` and G002 starts with
    :func:`~repro.ops.registry.validate_graph`: the first
    :class:`GraphError` either raises is reported under that id and stops
    the node rules, which need an SSA graph of registered, well-formed
    nodes.
    """
    for rule, check in (("G001", Graph.verify), ("G002", validate_graph)):
        try:
            check(graph)
        except GraphError as exc:
            return [error(rule, f"graph {graph.name!r}", str(exc))]
    diags: list[Diagnostic] = []
    for node in graph.nodes:
        _check_inference(graph, node, diags)
        if node.op == "lce_bconv2d":
            _check_bconv(graph, node, diags)
    return diags


def check_graph(graph: Graph, where: str = "") -> None:
    """Raise :class:`GraphError` if any dataflow rule reports a finding.

    The error names the first violation (rule id included) and the total
    count; ``where`` prefixes the message with the enforcement point (a
    pass name, "compile_plan", ...).
    """
    errors = analyze_graph(graph)
    if not errors:
        return
    first = errors[0]
    prefix = f"{where}: " if where else ""
    more = f" (+{len(errors) - 1} more)" if len(errors) > 1 else ""
    raise GraphError(f"{prefix}dataflow analysis failed: {first.format()}{more}")
