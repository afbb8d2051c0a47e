"""Plan compilation: turn a graph into a ready-to-run execution plan.

The reference :class:`repro.graph.executor.Executor` compiles its kernels
per instance; a :class:`CompiledPlan` additionally freezes liveness and
batching decisions for a whole serving configuration:

- **dispatch resolution** — each node compiles to a closure through the
  :mod:`repro.ops` registry (:func:`repro.ops.compile_node`), with its
  attributes already parsed and its parameter structs already built;
- **bound kernels** — convolutions, pooling, ``dense`` and stand-alone
  ``lce_quantize`` compile to forms bound for their static input shapes
  (:mod:`repro.kernels.bound`, :class:`~repro.core.bconv2d.BoundBConv2D`);
- **block fusion** — two peepholes (:func:`_blocks`) let a ``lce_bconv2d``
  absorb the ``lce_quantize`` feeding it and the residual ``add`` consuming
  it, so a binarized block runs as one bound kernel; the graph (and the
  reference executor) is untouched and timing stays per graph node;
- **liveness / free lists** — tensors live in integer slots; each compiled
  node carries the slots that die after it runs;
- **prepacked-weight caching** — derived artifacts (packed-filter wrappers,
  binarized float weights, folded BN coefficients, quantization params) are
  memoized in a :class:`ParamCache` keyed by node, so plans compiled for
  other batch sizes of the same graph reuse them;
- **one scratch arena** — kernel factories reserve their buffers in the
  :class:`~repro.core.workspace.Workspace` the caller passes (an engine's
  own, for every batch factor); :meth:`CompiledPlan.execute` holds its
  lock while the nodes run, so plans sharing an arena serialise.

Bit-exactness contract: a plan's output is bit-identical to the reference
executor's output for the graph's own batch size, and bit-identical to the
*concatenation of per-base-batch reference runs* for rebatched plans.  The
compiler does nothing to earn the latter; every kernel computes a sample's
result independently of what it is batched with.  ``conv2d`` and ``dense``
— the only kernels backed by a float BLAS GEMM, whose results depend on the
row count — issue one GEMM per image / row, eager and bound forms alike
(:func:`repro.kernels.conv2d.conv_gemm`, :mod:`repro.kernels.dense`).  All
binarized and int8 kernels are exact integer arithmetic; the remaining
float kernels are elementwise or reduce along non-batch axes only, which
NumPy evaluates identically for any leading extent.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.bitpack import PackedTensor
from repro.core.workspace import Workspace
from repro.graph.ir import Graph, TensorSpec
from repro.ops import (
    KernelFn,
    OpContext,
    ParamCache,
    Value,
    check_value,
    compile_node,
    get_spec,
)
from repro.obs.trace import NULL_TRACER
from repro.ops.lce import bconv2d_kernel
from repro.runtime.rebatch import rebatched_specs

if TYPE_CHECKING:  # pragma: no cover - import only for type checkers
    from repro.obs.trace import Tracer


@dataclass(frozen=True)
class CompiledNode:
    """One executed node, ready to run: resolved kernel, slots, free list.

    Usually one graph node; a fused block (:func:`_blocks`) covers two or
    three.  Its ``name`` / ``op`` are the convolution's and its ``fn`` takes
    an optional second argument: a list it appends a ``perf_counter``
    reading to at each boundary between :attr:`parts`.
    """

    name: str
    op: str
    fn: KernelFn
    input_slots: tuple[int, ...]
    output_slots: tuple[int, ...]
    #: slots whose values die after this node runs
    frees: tuple[int, ...]
    #: ``(name, op)`` of each graph node this one executes
    parts: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class CompiledPlan:
    """An executable plan for one (graph, batch factor) pair."""

    graph: Graph
    batch_factor: int
    nodes: tuple[CompiledNode, ...]
    num_slots: int
    input_slots: tuple[int, ...]
    output_slots: tuple[int, ...]
    #: batched spec and tensor name per slot, for value validation
    slot_specs: tuple[TensorSpec, ...]
    slot_names: tuple[str, ...]
    #: the scratch arena the kernels are bound into — the engine's, shared
    #: with its other plans; kernel factories reserved their buffers at
    #: compile time, so steady-state execution is allocation-free
    workspace: Workspace = field(default_factory=Workspace)
    #: True when the source graph passed the full static-analysis stack
    #: (``Graph.validate``: structure, schemas, dataflow rules G001-G005)
    #: at compile time.  :func:`compile_plan` always sets this; it is False
    #: only for hand-assembled plans that bypassed validation.
    verified: bool = False

    @property
    def fused_blocks(self) -> int:
        """Executed nodes that cover more than one graph node."""
        return sum(len(cn.parts) > 1 for cn in self.nodes)

    def execute(
        self,
        inputs: Sequence[Value],
        node_times: dict[str, float] | None = None,
        tracer: Tracer = NULL_TRACER,
    ) -> tuple[Value, ...]:
        """Run the plan; always returns a tuple of output values.

        Args:
            inputs: one value per graph input, already batched to this
                plan's batch factor.
            node_times: when given, filled with wall-clock seconds per
                *graph* node — a fused block's wall time, split at the
                boundaries its kernel stamped.
            tracer: when enabled, the run records a
                ``plan.execute`` span with one nested ``plan.node`` span per
                graph node (same intervals as ``node_times``); kernels deep
                in :mod:`repro.core` attach their own sub-spans through the
                ambient :func:`repro.obs.trace.active_tracer`.
        """
        if len(inputs) != len(self.input_slots):
            raise ValueError(
                f"plan takes {len(self.input_slots)} inputs, got {len(inputs)}"
            )
        slots: list[Value] = [None] * self.num_slots
        for slot, value in zip(self.input_slots, inputs):
            spec = self.slot_specs[slot]
            # Same conversion rule as the reference executor: lists take
            # the spec dtype so they behave like the equivalent ndarray.
            if (
                not isinstance(value, (PackedTensor, np.ndarray))
                and spec.dtype != "bitpacked"
            ):
                value = np.asarray(value, dtype=spec.dtype)
            check_value(value, spec, self.slot_names[slot])
            slots[slot] = value
        # Exclusive use of the arena: other plans of the engine (and other
        # threads on this one) wait here, outside the span.
        with self.workspace.lock, tracer.span(
            "plan.execute", batch_factor=self.batch_factor, nodes=len(self.nodes)
        ):
            self._run_nodes(slots, node_times, tracer)
        return tuple(slots[s] for s in self.output_slots)

    def _run_nodes(
        self,
        slots: list[Value],
        node_times: dict[str, float] | None,
        tracer: Tracer,
    ) -> None:
        clock = time.perf_counter
        # plan.node encloses the kernels' sub-spans; the node spans are
        # recorded after the call, one per graph node covered.
        scope = tracer.scope
        tracing = tracer.enabled
        for cn in self.nodes:
            ins = [slots[s] for s in cn.input_slots]
            marks: list[float] = []
            with scope("plan.node"):
                start = clock()
                out = cn.fn(ins, marks) if len(cn.parts) > 1 else cn.fn(ins)
                end = clock()
            edges = (start, *marks, end)
            for (name, op), t0, t1 in zip(cn.parts, edges, edges[1:]):
                if node_times is not None:
                    node_times[name] = t1 - t0
                if tracing:
                    tracer.record("plan.node", t0, t1 - t0, node=name, op=op)
            outs = out if isinstance(out, tuple) else (out,)
            for slot, v in zip(cn.output_slots, outs):
                check_value(v, self.slot_specs[slot], self.slot_names[slot])
                slots[slot] = v
            for s in cn.frees:
                slots[s] = None


def _blocks(graph: Graph, specs: dict[str, TensorSpec]) -> list[list]:
    """The graph's nodes grouped into what one kernel executes, in order:
    ``[node]``, or a ``groups == 1`` ``lce_bconv2d`` with the neighbours it
    absorbs.  Two independent, conservative peepholes:

    - the ``lce_quantize`` producing the conv's input, when the conv is
      that tensor's only use and it is not a graph output;
    - the ``add`` that is the only use of the conv's float32 output (not a
      graph output), when its other operand has the very same spec — no
      broadcasting, no dtype promotion.

    A block stands where its last node stood, so every operand exists.
    """
    uses = Counter(t for node in graph.nodes for t in node.inputs)
    producer = {t: node for node in graph.nodes for t in node.outputs}
    user = {t: node for node in graph.nodes for t in node.inputs}

    def interior(t: str) -> bool:
        return uses[t] == 1 and t not in graph.outputs

    block_of: dict[str, list] = {}
    for conv in graph.nodes:
        if conv.op != "lce_bconv2d" or conv.attrs.get("groups", 1) != 1:
            continue
        src, dst = conv.inputs[0], conv.outputs[0]
        block = [conv]
        if interior(src) and src in producer and producer[src].op == "lce_quantize":
            block.insert(0, producer[src])
        add = user.get(dst)
        if interior(dst) and specs[dst].dtype == "float32" and add.op == "add":
            # an add of two convolutions goes to the first of them
            if add.name not in block_of and all(
                specs[t] == specs[dst] for t in add.inputs
            ):
                block.append(add)
        for node in block:
            block_of[node.name] = block
    blocks = (block_of.get(node.name, [node]) for node in graph.nodes)
    return [block for node, block in zip(graph.nodes, blocks) if node is block[-1]]


def compile_plan(
    graph: Graph,
    batch_factor: int = 1,
    num_threads: int = 1,
    cache: ParamCache | None = None,
    workspace: Workspace | None = None,
) -> CompiledPlan:
    """Compile ``graph`` into a :class:`CompiledPlan`.

    Args:
        graph: a validated graph (training or converted).
        batch_factor: run ``batch_factor`` copies of the graph's base batch
            per call; tensor specs are re-inferred for the batched shapes.
        num_threads: vestigial, must be 1 (``bench/`` passes it by keyword).
        cache: shared :class:`ParamCache`; a fresh one is used if omitted.
        workspace: the owner's arena, grown to hold this plan too; a fresh
            one if omitted.
    """
    if batch_factor < 1:
        raise ValueError(f"batch_factor must be positive, got {batch_factor}")
    if num_threads != 1:
        raise ValueError(f"num_threads must be 1, got {num_threads}")
    graph.validate()
    cache = cache if cache is not None else ParamCache()
    specs = rebatched_specs(graph, batch_factor)
    workspace = workspace if workspace is not None else Workspace()
    ctx = OpContext(
        batch_factor=batch_factor,
        cache=cache,
        specs=specs,
        workspace=workspace,
    )

    # (fn, graph nodes covered, input tensors, output tensors) per executed node
    executed: list[tuple[KernelFn, list, list[str], list[str]]] = []
    for block in _blocks(graph, specs):
        if len(block) == 1:
            (node,) = block
            executed.append((compile_node(node, ctx), block, node.inputs, node.outputs))
            continue
        # A block takes what its nodes took from outside it: the first
        # node's input and, with an add, that add's other operand.
        conv = next(n for n in block if n.op == "lce_bconv2d")
        inputs, shortcut = list(block[0].inputs), None
        if block[-1] is not conv:
            shortcut = 1 - block[-1].inputs.index(conv.outputs[0])
            inputs.append(block[-1].inputs[shortcut])
        fn = bconv2d_kernel(
            conv, get_spec(conv.op).parse_attrs(conv.attrs), ctx,
            quantize=block[0] is not conv, shortcut=shortcut,
        )
        executed.append((fn, block, inputs, block[-1].outputs))

    # Slot assignment: graph inputs first, then executed outputs in order.
    slot_of: dict[str, int] = {}
    slot_names: list[str] = []
    for t in graph.inputs:
        slot_of[t] = len(slot_names)
        slot_names.append(t)
    for _, _, _, outputs in executed:
        for t in outputs:
            slot_of[t] = len(slot_names)
            slot_names.append(t)

    # Liveness: last executed node using each tensor (the rule the
    # reference executor applies to graph nodes at every run).
    last_use: dict[str, int] = {}
    for pos, (_, _, inputs, _) in enumerate(executed):
        for t in inputs:
            last_use[t] = pos

    compiled: list[CompiledNode] = []
    for pos, (fn, covered, inputs, outputs) in enumerate(executed):
        # a block is named after its convolution
        anchor = next((n for n in covered if n.op == "lce_bconv2d"), covered[0])
        compiled.append(
            CompiledNode(
                name=anchor.name,
                op=anchor.op,
                fn=fn,
                input_slots=tuple(slot_of[t] for t in inputs),
                output_slots=tuple(slot_of[t] for t in outputs),
                frees=tuple(
                    slot_of[t]
                    for t in dict.fromkeys(inputs)
                    if last_use[t] == pos and t not in graph.outputs
                ),
                parts=tuple((n.name, n.op) for n in covered),
            )
        )

    return CompiledPlan(
        graph=graph,
        batch_factor=batch_factor,
        nodes=tuple(compiled),
        num_slots=len(slot_names),
        input_slots=tuple(slot_of[t] for t in graph.inputs),
        output_slots=tuple(slot_of[t] for t in graph.outputs),
        slot_specs=tuple(specs[t] for t in slot_names),
        slot_names=tuple(slot_names),
        workspace=workspace,
        verified=True,  # graph.validate() above ran the dataflow analyses
    )
