"""Per-node latency profiles."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.executor import Executor
from repro.graph.ir import Graph
from repro.hw.device import DeviceModel
from repro.hw.latency import LatencyBreakdown, node_latency
from repro.obs.export import node_seconds
from repro.obs.trace import NULL_TRACER, Tracer
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
    tracer: Tracer = NULL_TRACER,
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
        tracer: when enabled, span-backed measured mode (implies
            ``measure``): the run records ``executor.node`` spans into
            this tracer, and measured
            seconds are taken from those spans
            (:func:`repro.obs.export.node_seconds`) — the same intervals a
            Chrome-trace export of the tracer shows, so the profile and
            the trace agree to the microsecond.
    """
    measured: dict[str, float] = {}
    if measure or tracer.enabled:
        ex = Executor(graph, tracer=tracer)
        ex.run(_default_input(graph) if input_value is None else input_value)
        if tracer.enabled:
            measured = node_seconds(tracer.spans(), names=("executor.node",))
        else:
            measured = dict(ex.node_times)

    return _profiles(device, graph, measured)


def _default_input(graph: Graph) -> np.ndarray:
    spec = graph.tensors[graph.inputs[0]]
    rng = np.random.default_rng(0)
    return rng.standard_normal(spec.shape).astype(np.float32)


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
