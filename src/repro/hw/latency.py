"""Per-op and per-graph latency estimation.

Costs follow a roofline structure: the GEMM-shaped ops take
``max(compute cycles, memory-traffic cycles)`` plus explicit im2col and
output-transformation stages (the stages of ``LceBConv2d`` in the paper's
Section 3.2); everything else is bandwidth-like.  All rates come from the
:class:`~repro.hw.device.DeviceModel` profile.

The per-op formulas live on each operator's
:class:`~repro.ops.registry.OpSpec` cost hook; this module owns the shared
machinery those hooks compose — :class:`LatencyBreakdown`, the convolution
roofline :func:`conv_cost`, :func:`bandwidth_cost` and the tuning
constants — plus graph-level aggregation.  Each estimate returns a
:class:`LatencyBreakdown`, so experiments can split a convolution into its
accumulation loop and output transformation — the subdivision paper
Table 4 reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.im2col import conv_geometry
from repro.core.types import Padding
from repro.graph.ir import Graph
from repro.hw.device import DeviceModel, DeviceProfile, as_profile

_BYTES = {"float32": 4.0, "int8": 1.0, "int32": 4.0}

#: depthwise convolutions vectorize poorly relative to dense GEMMs
DEPTHWISE_EFFICIENCY = 0.6
#: softmax-ish transcendental ops, elements per cycle
EXP_ELEMS_PER_CYCLE = 0.25
#: bitwise-AND pooling processes packed words ~4x faster than float pooling
BPOOL_WORD_SPEEDUP = 4.0
#: parallel efficiency of compute-bound GEMM stages per extra thread (Ruy)
_GEMM_PARALLEL_EFFICIENCY = 0.85
#: bandwidth-bound stages saturate shared DRAM and scale worse
_BANDWIDTH_PARALLEL_EFFICIENCY = 0.45


def words_per_pixel(channels: int) -> int:
    """uint64 words per pixel of a bitpacked tensor with ``channels``."""
    return -(-channels // 64)


@dataclass(frozen=True)
class LatencyBreakdown:
    """Seconds spent in each stage of one op."""

    overhead_s: float = 0.0
    im2col_s: float = 0.0
    accumulation_s: float = 0.0
    transform_s: float = 0.0
    other_s: float = 0.0
    memory_bound: bool = False

    @property
    def total_s(self) -> float:
        return (
            self.overhead_s
            + self.im2col_s
            + self.accumulation_s
            + self.transform_s
            + self.other_s
        )

    @property
    def total_ms(self) -> float:
        return self.total_s * 1e3

    def __add__(self, other: "LatencyBreakdown") -> "LatencyBreakdown":
        return LatencyBreakdown(
            overhead_s=self.overhead_s + other.overhead_s,
            im2col_s=self.im2col_s + other.im2col_s,
            accumulation_s=self.accumulation_s + other.accumulation_s,
            transform_s=self.transform_s + other.transform_s,
            other_s=self.other_s + other.other_s,
            memory_bound=self.memory_bound or other.memory_bound,
        )

    def scaled(
        self, factor: float, overhead_s: float | None = None
    ) -> "LatencyBreakdown":
        """Apply per-op-class calibration to this estimate.

        ``factor`` multiplies every *work* stage (im2col, accumulation,
        transform, other); ``overhead_s`` replaces the fixed dispatch
        overhead when given.  ``scaled(1.0)`` is the identity, so
        uncalibrated profiles reproduce the raw estimate bit-for-bit.
        """
        if factor < 0:
            raise ValueError(f"factor must be >= 0, got {factor}")
        if factor == 1.0 and overhead_s is None:
            return self
        return LatencyBreakdown(
            overhead_s=self.overhead_s if overhead_s is None else overhead_s,
            im2col_s=self.im2col_s * factor,
            accumulation_s=self.accumulation_s * factor,
            transform_s=self.transform_s * factor,
            other_s=self.other_s * factor,
            memory_bound=self.memory_bound,
        )

    def with_threads(self, threads: int) -> "LatencyBreakdown":
        """Multi-threaded execution of this op (paper: LCE inherits Ruy's
        multi-threading; DaBNN has none).

        Compute-bound stages (GEMM accumulation, im2col, transforms) scale
        with near-linear efficiency; memory-bound work saturates the shared
        DRAM interface and scales poorly; per-op dispatch stays serial.
        """
        if threads <= 0:
            raise ValueError(f"threads must be positive, got {threads}")
        if threads == 1:
            return self
        eff = (
            _BANDWIDTH_PARALLEL_EFFICIENCY
            if self.memory_bound
            else _GEMM_PARALLEL_EFFICIENCY
        )
        speedup = 1.0 + (threads - 1) * eff
        bw_speedup = 1.0 + (threads - 1) * _BANDWIDTH_PARALLEL_EFFICIENCY
        return LatencyBreakdown(
            overhead_s=self.overhead_s,
            im2col_s=self.im2col_s / bw_speedup,
            accumulation_s=self.accumulation_s / speedup,
            transform_s=self.transform_s / speedup,
            other_s=self.other_s / bw_speedup,
            memory_bound=self.memory_bound,
        )


# ------------------------------------------------------------- convolutions
def conv_cost(
    device: DeviceModel | DeviceProfile,
    precision: str,
    batch: int,
    in_h: int,
    in_w: int,
    in_channels: int,
    out_channels: int,
    kernel_h: int,
    kernel_w: int,
    stride: int = 1,
    dilation: int = 1,
    padding: Padding = Padding.SAME_ZERO,
    bitpacked_output: bool = False,
    fused_transform: bool = False,
    zero_padding_correction: bool = False,
    int8_output: bool = False,
) -> LatencyBreakdown:
    """Latency of one 2-D convolution at the given precision.

    ``precision`` is ``"float32"``, ``"int8"`` or ``"binary"``.  For binary
    convolutions, ``bitpacked_output`` selects the thresholding output path
    and ``fused_transform`` the float path with per-channel multiplier/bias;
    ``zero_padding_correction`` adds the extra correction step the paper
    describes for zero-padded binarized convolutions.

    Accepts a raw :class:`DeviceModel` or a :class:`DeviceProfile`; the
    roofline always prices against the profile's analytic constants —
    per-op-class calibration factors are applied once, at
    :func:`repro.ops.registry.node_cost`.
    """
    device = as_profile(device).device
    geom = conv_geometry(in_h, in_w, kernel_h, kernel_w, stride, dilation, padding)
    pixels = batch * geom.out_h * geom.out_w
    depth = kernel_h * kernel_w * in_channels
    macs = float(pixels) * depth * out_channels

    if precision == "binary":
        # LCE pads channels to a multiple of 32; the kernel's work is the
        # *padded* MAC count, at 32-bit half-word depth granularity.
        padded_cin = 32 * (-(-in_channels // 32))
        depth_words = kernel_h * kernel_w * padded_cin / 64.0
        weight_bytes = depth_words * 8.0 * out_channels
        patch_bytes = pixels * depth_words * 8.0
        row_eff = depth_words / (depth_words + device.binary_row_overhead_words)
        # Very large bitpacked im2col buffers thrash L2 and degrade the
        # sustained BGEMM rate (the binary kernel is so fast it becomes
        # sensitive to patch-streaming bandwidth).
        if patch_bytes > 2.0 * device.l2_bytes:
            row_eff *= device.binary_patch_spill_penalty
        macs = float(pixels) * kernel_h * kernel_w * padded_cin * out_channels
    else:
        elem = _BYTES[precision if precision != "binary" else "float32"]
        weight_bytes = depth * elem * out_channels
        patch_bytes = pixels * depth * elem
        row_eff = depth / (depth + device.gemm_row_overhead_elems)
        if in_channels <= 4:
            row_eff *= device.stem_channel_penalty

    # Register tiles cover several output rows (im2col pixels); GEMMs with
    # few rows (e.g. binarized FC layers executed as 1x1 convolutions on a
    # 1x1 spatial tensor) leave most of the tile idle.
    pixel_tile_eff = pixels / (pixels + 4.0)

    mpc = device.sustained(precision, weight_bytes) * row_eff * pixel_tile_eff
    compute_cycles = macs / mpc

    if bitpacked_output:
        out_elem_bytes = words_per_pixel(out_channels) * 8.0 / out_channels
    elif int8_output or precision == "int8":
        out_elem_bytes = _BYTES["int8"]
    else:
        out_elem_bytes = _BYTES["float32"]
    out_bytes = pixels * out_channels * out_elem_bytes
    traffic = weight_bytes + patch_bytes + out_bytes
    memory_cycles = traffic / device.dram_bytes_per_cycle
    accumulation_cycles = max(compute_cycles, memory_cycles)

    im2col_cycles = patch_bytes / device.im2col_bytes_per_cycle

    out_elems = float(pixels) * out_channels
    if precision == "int8" or (precision == "binary" and int8_output):
        transform_cycles = out_elems / device.requant_elems_per_cycle
    elif precision == "binary" and bitpacked_output:
        transform_cycles = out_elems / device.threshold_elems_per_cycle
    elif precision == "binary":
        # Float output: int32 accumulators -> float with fused channel ops.
        rate = device.transform_elems_per_cycle
        transform_cycles = out_elems / rate
    else:
        transform_cycles = 0.0  # float GEMM writes final values directly
    if zero_padding_correction:
        transform_cycles += out_elems / device.transform_elems_per_cycle

    return LatencyBreakdown(
        overhead_s=device.op_overhead_s,
        im2col_s=device.cycles_to_seconds(im2col_cycles),
        accumulation_s=device.cycles_to_seconds(accumulation_cycles),
        transform_s=device.cycles_to_seconds(transform_cycles),
        memory_bound=memory_cycles > compute_cycles,
    )


def bandwidth_cost(
    device: DeviceModel | DeviceProfile, bytes_touched: float
) -> LatencyBreakdown:
    """Bandwidth-bound cost of touching ``bytes_touched`` bytes once."""
    device = as_profile(device).device
    cycles = bytes_touched / device.eltwise_bytes_per_cycle
    return LatencyBreakdown(
        overhead_s=device.op_overhead_s, other_s=device.cycles_to_seconds(cycles)
    )


# -------------------------------------------------------------- graph costs
@dataclass(frozen=True)
class GraphLatency:
    """Latency of a whole graph, with the per-node detail."""

    per_node: dict[str, LatencyBreakdown] = field(default_factory=dict)

    @property
    def total_s(self) -> float:
        return sum(b.total_s for b in self.per_node.values())

    @property
    def total_ms(self) -> float:
        return self.total_s * 1e3


def graph_latency(
    device: DeviceModel | DeviceProfile, graph: Graph, threads: int = 1
) -> GraphLatency:
    """Estimate end-to-end latency of a graph.

    ``threads > 1`` models LCE's Ruy-inherited multi-threaded inference;
    see :meth:`LatencyBreakdown.with_threads`.  ``device`` may be a
    calibrated :class:`DeviceProfile` — every consumer (``cli profile``,
    experiments tables, speedup analysis) then prices against the same
    fitted constants.
    """
    from repro.ops import node_cost  # local import: op cost hooks import us

    profile = as_profile(device)
    per_node: dict[str, LatencyBreakdown] = {}
    for node in graph.nodes:
        input_specs = [graph.tensors[t] for t in node.inputs]
        output_specs = [graph.tensors[t] for t in node.outputs]
        cost = node_cost(profile, node, input_specs, output_specs)
        per_node[node.name] = cost.with_threads(threads)
    return GraphLatency(per_node=per_node)


def align_spans(
    device: DeviceModel | DeviceProfile, graph: Graph, spans, threads: int = 1
) -> dict[str, tuple[float, float]]:
    """Per-node (measured_s, simulated_s) pairs from recorded trace spans.

    The measured side sums the ``plan.node`` spans of a traced
    :class:`~repro.runtime.Engine` run (see
    :func:`repro.obs.export.node_seconds`), so simulated-vs-measured
    comparisons share the trace's clock discipline; the simulated side is
    :func:`graph_latency`.  Nodes without a recorded span are omitted.
    """
    from repro.obs.export import node_seconds  # local: obs must not need hw

    measured = node_seconds(spans)
    simulated = graph_latency(device, graph, threads=threads).per_node
    return {
        name: (measured[name], simulated[name].total_s)
        for name in simulated
        if name in measured
    }
