"""The single per-op knowledge table: :class:`OpSpec` and its registry.

Every LCE operator is described exactly once, by one :class:`OpSpec`
bundling

- a declared **attribute schema** (:class:`AttrField` tuple) parsed into a
  typed attribute struct by :meth:`OpSpec.parse_attrs`;
- the **shape-inference** hook consumed by the graph builder, the verifier
  and batch re-inference (:func:`infer_output_specs`);
- a **kernel factory** ``kernel(node, p, ctx) -> KernelFn`` that both the
  reference :class:`~repro.graph.executor.Executor` and the runtime's
  :class:`~repro.runtime.plan.CompiledPlan` compile through
  (:func:`compile_node`);
- a required **cost hook** consumed by :func:`node_cost` (and through
  it :func:`repro.hw.latency.graph_latency`);
- an **op-class label** consumed by the Table-4 breakdown
  (:func:`repro.experiments.table4.quicknet_table4_rows`) and trace
  calibration.

Adding an op is one :func:`register` call — the executor, the plan
compiler, shape inference, the latency model, ``Graph.validate()`` and
the ``python -m repro.cli ops`` table all pick it up from here.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

import numpy as np

from repro.core.bitpack import PackedTensor
from repro.graph.ir import GraphError, Node, TensorSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.workspace import Workspace
    from repro.hw.device import DeviceModel, DeviceProfile
    from repro.hw.latency import LatencyBreakdown

Value = Any  # np.ndarray | PackedTensor
KernelFn = Callable[[Sequence[Value]], Value]

#: op-class labels (the buckets of the paper's Table 4 operator breakdown)
CLASS_LCE_BCONV = "LceBConv2d"
CLASS_LCE_QUANTIZE = "LceQuantize"
CLASS_FP_CONV = "Full precision Conv2D"
CLASS_FP_ADD = "Full precision Add"
CLASS_FP_OTHER = "All other full precision"

OP_CLASSES = (
    CLASS_LCE_QUANTIZE,
    CLASS_LCE_BCONV,
    CLASS_FP_CONV,
    CLASS_FP_ADD,
    CLASS_FP_OTHER,
)

class ParamCache:
    """Memoized derived/prepacked weights, keyed by ``(node name, kind)``.

    One cache belongs to one graph (node names are unique per graph); the
    :class:`~repro.runtime.engine.Engine` shares a single cache across all
    the plans it compiles, so the second batch size compiles without
    re-deriving a single weight.  Populated only under the engine's plan
    lock; reads after that are of immutable entries.
    """

    def __init__(self) -> None:
        self._store: dict[tuple[str, str], Any] = {}
        self.hits = 0
        self.misses = 0

    def get(self, node: Node, kind: str, build: Callable[[], Any]) -> Any:
        key = (node.name, kind)
        try:
            value = self._store[key]
        except KeyError:
            self.misses += 1
            value = self._store[key] = build()
            return value
        self.hits += 1
        return value

    def __len__(self) -> int:
        return len(self._store)


@dataclass(frozen=True)
class OpContext:
    """Everything a kernel factory may depend on.

    ``specs`` maps tensor names to their (batched) :class:`TensorSpec`, so
    factories can resolve static input geometry at compile time — the
    executor passes the graph's own specs, plan compilation the rebatched
    ones.  ``workspace`` is the scratch arena the plan runs in (its
    engine's); factories that support it reserve their buffers at compile
    time and run allocation-free (absent for the reference executor, which
    keeps the allocating path).
    """

    batch_factor: int = 1
    cache: ParamCache = field(default_factory=ParamCache)
    specs: Mapping[str, TensorSpec] | None = None
    workspace: Workspace | None = None


# ------------------------------------------------------- attribute schema
@dataclass(frozen=True)
class AttrField:
    """One declared node attribute: name, type, default, requiredness.

    ``kind`` is one of ``int``, ``float``, ``bool``, ``str``, ``enum``
    (with ``enum_type`` set) and ``int_tuple``.  ``nullable`` fields accept
    ``None`` (e.g. a pool's implicit stride).  Parsing coerces serialized
    values (JSON numbers, enum value strings, lists) back to typed Python
    values and raises :class:`GraphError` on anything malformed.
    """

    name: str
    kind: str = "int"
    default: Any = None
    required: bool = False
    nullable: bool = False
    enum_type: type[enum.Enum] | None = None

    def parse(self, attrs: Mapping[str, Any]) -> Any:
        if self.name not in attrs:
            if self.required:
                raise GraphError(f"missing required attribute {self.name!r}")
            return self.default
        value = attrs[self.name]
        if value is None:
            if self.nullable:
                return None
            raise GraphError(f"attribute {self.name!r} must not be None")
        try:
            return self._coerce(value)
        except (TypeError, ValueError) as exc:
            raise GraphError(
                f"malformed attribute {self.name!r}={value!r}: {exc}"
            ) from None

    def _coerce(self, value: Any) -> Any:
        if self.kind == "int":
            if isinstance(value, (bool, str)):
                raise ValueError("expected an integer")
            return int(value)
        if self.kind == "float":
            if isinstance(value, (bool, str)):
                raise ValueError("expected a number")
            return float(value)
        if self.kind == "bool":
            return bool(value)
        if self.kind == "str":
            if not isinstance(value, str):
                raise ValueError("expected a string")
            return value
        if self.kind == "enum":
            assert self.enum_type is not None
            return self.enum_type(value)
        if self.kind == "int_tuple":
            return tuple(int(d) for d in value)
        raise AssertionError(f"unknown attr kind {self.kind!r}")

    def describe(self) -> str:
        """One-line schema rendering for the ``repro.cli ops`` table."""
        if self.kind == "enum":
            assert self.enum_type is not None
            typ = "|".join(m.value for m in self.enum_type)
        else:
            typ = self.kind
        if self.required:
            return f"{self.name}: {typ}"
        return f"{self.name}: {typ} = {_short_default(self.default)}"


def _short_default(value: Any) -> str:
    if isinstance(value, enum.Enum):
        return value.value
    return repr(value)


#: parsed attribute struct passed to infer / kernel / cost hooks
Attrs = SimpleNamespace

InferFn = Callable[[list[TensorSpec], Attrs, dict[str, Any]], list[TensorSpec]]
CompileFn = Callable[[Node, Attrs, OpContext], KernelFn]
#: cost hooks price against a :class:`~repro.hw.device.DeviceProfile` — the
#: analytic constants live on ``profile.device``; per-op-class calibration
#: is applied once, by :func:`node_cost`, after the hook returns
CostFn = Callable[
    ["DeviceProfile", Node, Attrs, list[TensorSpec], list[TensorSpec]],
    "LatencyBreakdown",
]


# ----------------------------------------------------------------- OpSpec
@dataclass(frozen=True)
class OpSpec:
    """Everything the engine knows about one operator."""

    name: str
    #: attribute schema; the source of truth for build/convert/load validation
    attrs: tuple[AttrField, ...]
    #: shape/dtype inference hook
    infer: InferFn
    #: kernel factory shared by the interpreter and compiled plans
    kernel: CompileFn
    #: latency hook for :func:`node_cost`; every op has one
    cost: CostFn
    #: op-class label (Table-4 bucket)
    op_class: str = CLASS_FP_OTHER
    #: True for binarized-domain ops (``lce_*``)
    binary: bool = False
    #: True when the op's kernel understands bitpacked (PackedTensor)
    #: inputs; the dataflow analysis (rule G002) rejects any bitpacked
    #: tensor feeding an op without this flag
    accepts_bitpacked: bool = False
    #: True for MAC layers that anchor a Figure-5 layer stack
    mac_layer: bool = False
    #: one-line human description for the ``repro.cli ops`` table
    doc: str = ""

    def parse_attrs(self, attrs: Mapping[str, Any]) -> Attrs:
        """Parse raw node attributes into a typed struct per the schema."""
        try:
            return SimpleNamespace(
                **{f.name: f.parse(attrs) for f in self.attrs}
            )
        except GraphError as exc:
            raise GraphError(f"op {self.name!r}: {exc}") from None

    def validate_node(self, node: Node) -> None:
        """Schema-check one node; raise :class:`GraphError` naming it.

        A key the schema does not declare is an error, not ignored: a
        misspelt key would otherwise load as the field's default.
        """
        undeclared = set(node.attrs).difference(f.name for f in self.attrs)
        if undeclared:
            raise GraphError(
                f"node {node.name!r}: op {self.name!r}: undeclared "
                f"attribute keys {sorted(undeclared)}"
            )
        try:
            self.parse_attrs(node.attrs)
        except GraphError as exc:
            raise GraphError(f"node {node.name!r}: {exc}") from None

    def schema(self) -> str:
        """The attribute schema as one display string."""
        return ", ".join(f.describe() for f in self.attrs) or "(no attributes)"


_OPS: dict[str, OpSpec] = {}


def register(spec: OpSpec) -> OpSpec:
    """Add one :class:`OpSpec` to the registry; rejects duplicates."""
    if spec.name in _OPS:
        raise ValueError(f"op {spec.name!r} is already registered")
    _OPS[spec.name] = spec
    return spec


def get_spec(op: str) -> OpSpec:
    """The :class:`OpSpec` for ``op``; raises :class:`GraphError`."""
    try:
        return _OPS[op]
    except KeyError:
        raise GraphError(f"no kernel for op {op!r}") from None


def op_names() -> tuple[str, ...]:
    """All registered op names, sorted."""
    return tuple(sorted(_OPS))


def all_specs() -> tuple[OpSpec, ...]:
    """All registered specs, sorted by op name."""
    return tuple(_OPS[name] for name in sorted(_OPS))


# ------------------------------------------------------- registry lookups
def infer_output_specs(
    op: str,
    input_specs: list[TensorSpec],
    attrs: Mapping[str, Any],
    params: dict[str, Any],
) -> list[TensorSpec]:
    """Infer output specs via the registry; :class:`GraphError` on bad ops."""
    spec = _OPS.get(op)
    if spec is None:
        raise GraphError(f"no shape inference for op {op!r}")
    return spec.infer(input_specs, spec.parse_attrs(attrs), params)


def compile_node(node: Node, ctx: OpContext | None = None) -> KernelFn:
    """Compile one node to a ready-to-call kernel closure.

    The single kernel-resolution point: the reference executor compiles
    through here with a per-instance context, and plan compilation with the
    engine's shared cache/threading context.
    """
    spec = get_spec(node.op)
    ctx = ctx if ctx is not None else OpContext()
    return spec.kernel(node, spec.parse_attrs(node.attrs), ctx)


def node_cost(
    device: DeviceModel | DeviceProfile,
    node: Node,
    input_specs: list[TensorSpec],
    output_specs: list[TensorSpec],
) -> "LatencyBreakdown":
    """Cost one node via its registered hook; ValueError for an unknown op.

    The single calibration point of the cost stack: the hook prices the
    node against the profile's analytic constants, then the profile's
    per-op-class work factor and overhead replacement are applied here —
    so ``graph_latency``, experiments tables and plan scheduling all
    see the same calibrated estimate.  A raw
    :class:`DeviceModel` (or the ``default`` profile) applies no
    calibration and reproduces the historical estimates bit-for-bit.
    """
    from repro.hw.device import as_profile  # local import: hw imports us

    spec = _OPS.get(node.op)
    if spec is None:
        raise ValueError(f"no latency model for op {node.op!r}")
    profile = as_profile(device)
    breakdown = spec.cost(
        profile, node, spec.parse_attrs(node.attrs), input_specs, output_specs
    )
    return breakdown.scaled(
        profile.factor(spec.op_class, node.op),
        profile.overhead_s(spec.op_class, node.op),
    )


def op_class_of(op: str) -> str:
    """Profiler op-class label; unregistered ops fall in the default class."""
    spec = _OPS.get(op)
    return spec.op_class if spec is not None else CLASS_FP_OTHER


def is_binary_op(op: str) -> bool:
    """Whether ``op`` runs in the binarized domain (``lce_*`` family)."""
    spec = _OPS.get(op)
    return spec.binary if spec is not None else op.startswith("lce_")


def mac_layer_ops() -> tuple[str, ...]:
    """Ops anchoring a per-layer profile stack (convolutions / dense)."""
    return tuple(name for name in sorted(_OPS) if _OPS[name].mac_layer)


def validate_graph(graph) -> None:
    """Registry-validate every node: known op and well-formed attributes.

    Raises :class:`GraphError` naming the offending node.  Called by
    :meth:`repro.graph.ir.Graph.validate`.
    """
    for node in graph.nodes:
        spec = _OPS.get(node.op)
        if spec is None:
            raise GraphError(
                f"node {node.name!r}: no kernel for op {node.op!r}"
            )
        spec.validate_node(node)


# --------------------------------------------------------- value checking
def check_value(value: Value, spec: TensorSpec, tensor: str) -> None:
    """Check a produced runtime value against its tensor spec."""
    if spec.dtype == "bitpacked":
        if not isinstance(value, PackedTensor):
            raise GraphError(f"{tensor}: expected PackedTensor, got {type(value)}")
        if value.shape != spec.shape:
            raise GraphError(f"{tensor}: shape {value.shape} != spec {spec.shape}")
    else:
        if not isinstance(value, np.ndarray):
            raise GraphError(f"{tensor}: expected ndarray, got {type(value)}")
        if tuple(value.shape) != spec.shape:
            raise GraphError(f"{tensor}: shape {value.shape} != spec {spec.shape}")
