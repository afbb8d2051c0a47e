"""Per-node latency profiles."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.executor import Executor
from repro.graph.ir import Graph
from repro.hw.device import DeviceModel
from repro.hw.latency import LatencyBreakdown, node_latency
from repro.obs.export import node_seconds
from repro.obs.trace import Tracer
from repro.ops import is_binary_op


@dataclass(frozen=True)
class NodeProfile:
    """Profile record for one node."""

    name: str
    op: str
    index: int
    breakdown: LatencyBreakdown
    #: wall-clock seconds of the NumPy kernel (when measured), else None
    measured_s: float | None = None

    @property
    def simulated_s(self) -> float:
        return self.breakdown.total_s

    @property
    def is_binary(self) -> bool:
        return is_binary_op(self.op)


def profile_graph(
    device: DeviceModel,
    graph: Graph,
    measure: bool = False,
    input_value: np.ndarray | None = None,
    tracer: Tracer | None = None,
) -> list[NodeProfile]:
    """Profile every node of a graph on a device model.

    Args:
        device: simulated device.
        graph: (usually converted) inference graph.
        measure: also run the graph once through the executor and record
            NumPy wall-clock per node — useful for sanity-checking that the
            *relative* cost structure of the real kernels agrees with the
            model.
        input_value: input tensor for the measured run; random data with
            the graph's input shape when omitted.
        tracer: span-backed measured mode (implies ``measure``): the run
            records ``executor.node`` spans into this tracer, and measured
            seconds are taken from those spans
            (:func:`repro.obs.export.node_seconds`) — the same intervals a
            Chrome-trace export of the tracer shows, so the profile and
            the trace agree to the microsecond.
    """
    measured: dict[str, float] = {}
    if measure or tracer is not None:
        ex = Executor(graph, tracer=tracer)
        ex.run(_default_input(graph) if input_value is None else input_value)
        if tracer is not None and tracer.enabled:
            measured = node_seconds(tracer.spans(), names=("executor.node",))
        else:
            measured = dict(ex.node_times)

    return _profiles(device, graph, measured)


def _default_input(graph: Graph) -> np.ndarray:
    spec = graph.tensors[graph.inputs[0]]
    rng = np.random.default_rng(0)
    return rng.standard_normal(spec.shape).astype(np.float32)


def profile_engine(
    device: DeviceModel,
    engine,
    input_value: np.ndarray | None = None,
) -> list[NodeProfile]:
    """Profile every node using measured wall-clock from an engine run.

    Same report as :func:`profile_graph` with ``measure=True``, but the
    measured times come from one :class:`repro.runtime.Engine` execution —
    i.e. the compiled-plan path — rather than the reference interpreter.  When the engine carries an enabled
    tracer, its per-node times are the ``plan.node`` span durations, so
    this profile and a Chrome-trace export of the same run agree exactly.

    Args:
        device: simulated device (for the analytical breakdown column).
        engine: a :class:`repro.runtime.Engine`.
        input_value: input for the measured run; random data with the
            engine graph's base input shape when omitted.
    """
    graph = engine.graph
    engine.run(_default_input(graph) if input_value is None else input_value)
    return _profiles(device, graph, engine.last_node_times)


@dataclass(frozen=True)
class MemoryProfile:
    """Steady-state memory footprint of the compiled-plan hot path."""

    #: scratch-arena bytes across every compiled plan and executing thread
    workspace_bytes: int
    #: process-level indirection cache: entries / bytes / lookup hits
    indirection_entries: int
    indirection_bytes: int
    indirection_hits: int

    def describe(self) -> str:
        """One display line for the CLI benchmark/profile reports."""
        return (
            f"workspace arena: {self.workspace_bytes / 1e6:.2f} MB; "
            f"indirection cache: {self.indirection_entries} entries "
            f"({self.indirection_bytes / 1e6:.2f} MB, "
            f"{self.indirection_hits} hits)"
        )


def memory_profile(engine) -> MemoryProfile:
    """Workspace-arena and indirection-cache footprint of an engine.

    Complements the latency profiles above: the arena bytes are what the
    plan path preallocated to run allocation-free, and the indirection
    cache holds the compile-time im2col plans shared across plans/threads.
    A view over the unified metrics registry
    (:meth:`repro.runtime.Engine.metrics_snapshot`): the same gauges back
    ``repro.cli stats`` and the benchmark JSON snapshot blocks.
    """
    snap = engine.metrics_snapshot()
    return MemoryProfile(
        workspace_bytes=snap["workspace.bytes_reserved"],
        indirection_entries=snap["indirection.entries"],
        indirection_bytes=snap["indirection.bytes"],
        indirection_hits=snap["indirection.hits"],
    )


def _profiles(
    device: DeviceModel, graph: Graph, measured: dict[str, float]
) -> list[NodeProfile]:
    profiles = []
    for index, node in enumerate(graph.nodes):
        breakdown = node_latency(
            device,
            node,
            [graph.tensors[t] for t in node.inputs],
            [graph.tensors[t] for t in node.outputs],
        )
        profiles.append(
            NodeProfile(
                name=node.name,
                op=node.op,
                index=index,
                breakdown=breakdown,
                measured_s=measured.get(node.name),
            )
        )
    return profiles
