"""A small dataflow-graph IR: the substrate of the converter.

Graphs are DAGs of :class:`Node` objects connected by named tensors.  Each
node carries an operator name, attribute dictionary, and parameter arrays
(weights, biases, precomputed thresholds, ...).  Parameters live on nodes —
not as graph tensors — which keeps rewrites local: a pass that fuses a batch
norm simply edits the consumer's params and deletes the BN node.

Conventions:

- tensors are produced by exactly one node (SSA-like), except graph inputs;
- node order in :attr:`Graph.nodes` is a valid topological order, maintained
  by construction and checked by :meth:`Graph.verify`;
- dtypes are strings: ``"float32"``, ``"int8"``, ``"int32"``,
  ``"bitpacked"`` (uint64 words + true channel count).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Iterator

import numpy as np

VALID_DTYPES = ("float32", "int8", "int32", "bitpacked")


@dataclass(frozen=True)
class TensorSpec:
    """Static description of a tensor flowing through the graph."""

    shape: tuple[int, ...]
    dtype: str = "float32"

    def __post_init__(self) -> None:
        if self.dtype not in VALID_DTYPES:
            raise ValueError(f"unknown dtype {self.dtype!r}")
        if any(int(d) <= 0 for d in self.shape):
            raise ValueError(f"non-positive dimension in shape {self.shape}")
        object.__setattr__(self, "shape", tuple(int(d) for d in self.shape))

    @property
    def num_elements(self) -> int:
        return int(np.prod(self.shape)) if self.shape else 1

    @property
    def nbytes(self) -> int:
        """Storage footprint of one such tensor.

        Bitpacked tensors store ceil(C/64) uint64 words per pixel — the 32x
        activation-size reduction of the paper's Section 3.2.
        """
        if self.dtype == "bitpacked":
            c = self.shape[-1]
            words = -(-c // 64)
            return int(np.prod(self.shape[:-1])) * words * 8
        itemsize = {"float32": 4, "int32": 4, "int8": 1}[self.dtype]
        return self.num_elements * itemsize


@dataclass
class Node:
    """One operator instance."""

    name: str
    op: str
    inputs: list[str]
    outputs: list[str]
    attrs: dict[str, Any] = field(default_factory=dict)
    params: dict[str, Any] = field(default_factory=dict)

    def attr(self, key: str, default: Any = None) -> Any:
        return self.attrs.get(key, default)

    def param_nbytes(self) -> int:
        """Total serialized size of this node's parameter arrays."""
        total = 0
        for value in self.params.values():
            nbytes = getattr(value, "nbytes", None)
            if nbytes is not None:
                total += int(nbytes)
        return total


class GraphError(ValueError):
    """Raised when a graph violates its structural invariants."""


def _read_only(value: Any) -> Any:
    """A non-writeable view of an ndarray; any other value unchanged."""
    if not isinstance(value, np.ndarray):
        return value
    view = value.view()
    view.flags.writeable = False
    return view


class Graph:
    """A DAG of nodes over named tensors, in topological order."""

    def __init__(self, name: str = "graph") -> None:
        self.name = name
        self.nodes: list[Node] = []
        self.tensors: dict[str, TensorSpec] = {}
        self.inputs: list[str] = []
        self.outputs: list[str] = []
        self._counter = 0

    def copy(self) -> Graph:
        """A structural copy that shares this graph's parameter arrays.

        Nodes, their ``inputs`` / ``outputs`` lists and ``attrs`` /
        ``params`` dicts are new, as are the graph's ``tensors``,
        ``inputs`` and ``outputs``, so rewriting the copy never changes
        this graph.  Every ndarray param is shared as a read-only view: a
        pass that writes into one raises ``ValueError`` instead of
        corrupting this graph's model, and the copy costs no second set
        of weights.  Other params (frozen records such as
        ``BatchNormParams``) are shared as they are.
        """
        g = Graph(self.name)
        g.nodes = [
            replace(
                n,
                inputs=list(n.inputs),
                outputs=list(n.outputs),
                attrs=dict(n.attrs),
                params={k: _read_only(v) for k, v in n.params.items()},
            )
            for n in self.nodes
        ]
        g.tensors = dict(self.tensors)
        g.inputs = list(self.inputs)
        g.outputs = list(self.outputs)
        g._counter = self._counter
        return g

    # ---------------------------------------------------------------- build
    def fresh_name(self, hint: str) -> str:
        """A tensor/node name that is unique within this graph."""
        self._counter += 1
        return f"{hint}_{self._counter}"

    def add_input(self, name: str, spec: TensorSpec) -> str:
        if name in self.tensors:
            raise GraphError(f"tensor {name!r} already exists")
        self.tensors[name] = spec
        self.inputs.append(name)
        return name

    def add_node(
        self,
        op: str,
        inputs: Iterable[str],
        output_specs: Iterable[TensorSpec],
        attrs: dict[str, Any] | None = None,
        params: dict[str, Any] | None = None,
        name: str | None = None,
    ) -> Node:
        """Append a node; its output tensors are created and named after it."""
        inputs = list(inputs)
        for t in inputs:
            if t not in self.tensors:
                raise GraphError(f"node consumes unknown tensor {t!r}")
        name = name or self.fresh_name(op)
        if any(n.name == name for n in self.nodes):
            raise GraphError(f"node {name!r} already exists")
        outputs = []
        for i, spec in enumerate(output_specs):
            tname = name if i == 0 else f"{name}:{i}"
            if tname in self.tensors:
                raise GraphError(f"tensor {tname!r} already exists")
            self.tensors[tname] = spec
            outputs.append(tname)
        node = Node(
            name=name,
            op=op,
            inputs=inputs,
            outputs=outputs,
            attrs=dict(attrs or {}),
            params=dict(params or {}),
        )
        self.nodes.append(node)
        return node

    def insert_node(
        self,
        index: int,
        op: str,
        inputs: Iterable[str],
        output_specs: Iterable[TensorSpec],
        attrs: dict[str, Any] | None = None,
        params: dict[str, Any] | None = None,
        name: str | None = None,
    ) -> Node:
        """Like :meth:`add_node` but inserts at a topological position.

        Used by rewrite passes, which must place replacement nodes where the
        replaced node sat so the node list stays topologically ordered.
        """
        node = self.add_node(op, inputs, output_specs, attrs, params, name)
        self.nodes.remove(node)
        self.nodes.insert(index, node)
        return node

    # ---------------------------------------------------------------- query
    def node(self, name: str) -> Node:
        for n in self.nodes:
            if n.name == name:
                return n
        raise KeyError(name)

    def producer(self, tensor: str) -> Node | None:
        """The node producing ``tensor`` (None for graph inputs)."""
        for n in self.nodes:
            if tensor in n.outputs:
                return n
        if tensor in self.inputs:
            return None
        raise KeyError(f"unknown tensor {tensor!r}")

    def consumers(self, tensor: str) -> list[Node]:
        return [n for n in self.nodes if tensor in n.inputs]

    def is_output(self, tensor: str) -> bool:
        return tensor in self.outputs

    def __iter__(self) -> Iterator[Node]:
        return iter(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)

    def ops_by_type(self, op: str) -> list[Node]:
        return [n for n in self.nodes if n.op == op]

    # -------------------------------------------------------------- rewrite
    def replace_uses(self, old: str, new: str) -> None:
        """Redirect every consumer of ``old`` (and graph outputs) to ``new``."""
        if new not in self.tensors:
            raise GraphError(f"unknown replacement tensor {new!r}")
        for n in self.nodes:
            n.inputs = [new if t == old else t for t in n.inputs]
        self.outputs = [new if t == old else t for t in self.outputs]

    def remove_node(self, node: Node) -> None:
        """Remove a node whose outputs have no remaining uses."""
        for t in node.outputs:
            if self.consumers(t) or self.is_output(t):
                raise GraphError(
                    f"cannot remove {node.name!r}: output {t!r} still in use"
                )
        self.nodes.remove(node)
        for t in node.outputs:
            del self.tensors[t]

    # --------------------------------------------------------------- verify
    def verify(self) -> None:
        """Check structural invariants; raise :class:`GraphError` if broken."""
        seen_nodes: set[str] = set()
        produced: set[str] = set(self.inputs)
        for t in self.inputs:
            if t not in self.tensors:
                raise GraphError(f"input {t!r} has no spec")
        for n in self.nodes:
            if n.name in seen_nodes:
                raise GraphError(f"duplicate node name {n.name!r}")
            seen_nodes.add(n.name)
            for t in n.inputs:
                if t not in produced:
                    raise GraphError(
                        f"node {n.name!r} consumes {t!r} before it is produced "
                        "(order is not topological)"
                    )
            for t in n.outputs:
                if t in produced:
                    raise GraphError(f"tensor {t!r} produced more than once")
                if t not in self.tensors:
                    raise GraphError(f"output {t!r} of {n.name!r} has no spec")
                produced.add(t)
        for t in self.outputs:
            if t not in produced:
                raise GraphError(f"graph output {t!r} is never produced")
        # No dangling tensor specs.
        for t in self.tensors:
            if t not in produced:
                raise GraphError(f"tensor spec {t!r} has no producer")

    def validate(self) -> None:
        """Every graph rule; raise :class:`GraphError` naming the first.

        :func:`repro.analysis.dataflow.check_graph`: :meth:`verify` (G001),
        :func:`repro.ops.validate_graph` — each op registered, its
        attributes well-formed, a latency model or an exemption — then
        spec re-inference, bitpack word layout and fusion legality, each
        checked once.  Runs at every executor/plan
        construction and at convert/save/load time, so illegal graphs
        fail before execution.
        """
        # Local import: the analysis imports this module.
        from repro.analysis.dataflow import check_graph

        check_graph(self)

    # ----------------------------------------------------------------- misc
    def param_nbytes(self) -> int:
        """Total parameter storage of the graph (the model size)."""
        return sum(n.param_nbytes() for n in self.nodes)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Graph({self.name!r}, nodes={len(self.nodes)}, "
            f"inputs={self.inputs}, outputs={self.outputs})"
        )
