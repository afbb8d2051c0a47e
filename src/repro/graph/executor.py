"""Graph interpreter: runs a graph on NumPy inputs.

This is the runtime-analog of the extended TensorFlow Lite interpreter.
Bitpacked tensors flow as :class:`~repro.core.bitpack.PackedTensor` values;
everything else as ``np.ndarray``.  The executor validates produced values
against the graph's inferred specs, frees dead intermediates (unless asked
to record them, as PTQ calibration does), and resolves each node to a kernel
through the :mod:`repro.ops` registry — the same kernel closures a
:class:`~repro.runtime.plan.CompiledPlan` executes, compiled per node at
construction time with a private :class:`~repro.ops.OpContext`.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.bitpack import PackedTensor
from repro.graph.ir import Graph
from repro.ops import KernelFn, OpContext, check_value, compile_node

Value = Any  # np.ndarray | PackedTensor


class Executor:
    """Interprets a graph over NumPy inputs.

    Args:
        graph: a validated graph.
        record_values: keep every intermediate tensor in :attr:`values`
            (for debugging / PTQ calibration); otherwise dead values are
            freed as execution proceeds.

    The reference path is not timed: per-node measurements come from the
    ``plan.node`` spans of a traced :class:`~repro.runtime.Engine` run.
    """

    def __init__(self, graph: Graph, record_values: bool = False) -> None:
        graph.validate()
        self.graph = graph
        self.record_values = record_values
        self.values: dict[str, Value] = {}
        # Specs let factories resolve static geometry (indirections) at
        # construction; no workspace — the reference path keeps allocating.
        ctx = OpContext(specs=graph.tensors)
        self._kernels: list[KernelFn] = [compile_node(n, ctx) for n in graph.nodes]

    def run(self, *inputs: Value) -> Value | tuple[Value, ...]:
        """Execute the graph; returns the output value(s)."""
        if len(inputs) != len(self.graph.inputs):
            raise ValueError(
                f"graph takes {len(self.graph.inputs)} inputs, got {len(inputs)}"
            )
        # Liveness: last node index using each tensor.
        last_use: dict[str, int] = {}
        for idx, node in enumerate(self.graph.nodes):
            for t in node.inputs:
                last_use[t] = idx
        values: dict[str, Value] = {}
        for name, value in zip(self.graph.inputs, inputs):
            # Store the *converted* array: a Python list must not pass the
            # spec check only to reach kernels as a raw list.  Lists take
            # the spec dtype so they behave like the equivalent ndarray.
            spec = self.graph.tensors[name]
            if (
                not isinstance(value, (PackedTensor, np.ndarray))
                and spec.dtype != "bitpacked"
            ):
                value = np.asarray(value, dtype=spec.dtype)
            check_value(value, self.graph.tensors[name], name)
            values[name] = value

        for idx, node in enumerate(self.graph.nodes):
            out = self._kernels[idx]([values[t] for t in node.inputs])
            outs = out if isinstance(out, tuple) else (out,)
            for t, v in zip(node.outputs, outs):
                check_value(v, self.graph.tensors[t], t)
                values[t] = v
            if not self.record_values:
                for t in node.inputs:
                    if (
                        last_use.get(t) == idx
                        and t not in self.graph.outputs
                        and t in values
                    ):
                        del values[t]
        if self.record_values:
            self.values = values
        result = tuple(values[t] for t in self.graph.outputs)
        return result[0] if len(result) == 1 else result
