"""``LceBConv2d`` — the primary binarized operator.

The optimized implementation has the paper's three stages (Section 3.2):

1. **im2col** rearranges bitpacked input activations so the convolution
   becomes a binary matrix multiplication;
2. **BGEMM** performs the XOR-popcount multiply-accumulate;
3. an **output transformation** applies the fused channel-wise
   multiplier/bias and activation and writes float output, or thresholds
   the accumulators straight into bitpacked output.

One-padding (padding with +1.0) is free because +1.0 packs to zero bits.
Zero-padded binarized convolutions are supported through an extra
correction step — each padded tap contributed ``+1 * w`` to the
accumulator where a zero input should have contributed nothing, so the
per-tap weight sums at padded positions are subtracted.  This is exactly
why the paper reports one-padding as the faster option.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.core.bgemm import (
    bgemm_blocked,
    bgemm_kmajor,
    bgemm_scratch_spec,
    pack_kmajor,
)
from repro.core.bitpack import PackedTensor, pack_bits, packed_words, unpack_bits
from repro.core.kernel_config import DEFAULT_CONFIG, KernelConfig
from repro.core.indirection import (
    Indirection,
    get_indirection,
    im2col_direct,
    im2col_indirect,
)
from repro.core.im2col import conv_geometry, padded_tap_mask
from repro.core.workspace import Workspace, WorkspacePool
from repro.core.output_transform import (
    OutputThresholds,
    accumulators_to_bitpacked,
    accumulators_to_float,
)
from repro.core.types import Activation, OutputType, Padding


@dataclass(frozen=True)
class PackedFilters:
    """Bitpacked convolution filters in BGEMM row layout.

    ``bits`` has shape ``(out_channels, kernel_h * kernel_w * words_per_tap)``
    — one row per filter, matching the patch rows produced by
    :func:`repro.core.im2col.im2col_packed` (taps major, channel bits packed
    within each tap).
    """

    bits: np.ndarray
    kernel_h: int
    kernel_w: int
    in_channels: int

    @property
    def out_channels(self) -> int:
        return self.bits.shape[0]

    @property
    def nbytes(self) -> int:
        return self.bits.nbytes

    @cached_property
    def kmajor(self) -> np.ndarray:
        """``bits`` transposed to the ``(words, out_channels)`` layout of
        :func:`repro.core.bgemm.bgemm_kmajor`, computed on first use —
        plan compilation touches it so the copy is made once per model."""
        return np.ascontiguousarray(self.bits.T)


@dataclass(frozen=True)
class BConv2DParams:
    """Static hyper-parameters of a binarized convolution."""

    kernel_h: int
    kernel_w: int
    in_channels: int
    out_channels: int
    stride: int = 1
    dilation: int = 1
    padding: Padding = Padding.SAME_ONE
    groups: int = 1

    def __post_init__(self) -> None:
        if min(
            self.kernel_h,
            self.kernel_w,
            self.in_channels,
            self.out_channels,
            self.stride,
            self.dilation,
            self.groups,
        ) <= 0:
            raise ValueError(f"invalid BConv2D parameters: {self}")
        if self.in_channels % self.groups or self.out_channels % self.groups:
            raise ValueError(
                f"groups={self.groups} must divide in_channels="
                f"{self.in_channels} and out_channels={self.out_channels}"
            )

    @property
    def depth(self) -> int:
        """Dot-product length: +/-1 operands per output element."""
        return self.kernel_h * self.kernel_w * (self.in_channels // self.groups)

    @property
    def macs_per_pixel(self) -> int:
        return self.depth * self.out_channels


def pack_filters(weights: np.ndarray) -> PackedFilters:
    """Bitpack HWIO convolution filters into BGEMM row layout.

    Args:
        weights: ``(kernel_h, kernel_w, in_channels, out_channels)`` array of
            +/-1 values (any float/int dtype; only signs are read).
    """
    if weights.ndim != 4:
        raise ValueError(f"expected HWIO filters, got {weights.ndim}-D")
    kh, kw, cin, cout = weights.shape
    # (cout, kh, kw, cin): pack the channel axis per tap, then flatten taps.
    per_tap = pack_bits(np.transpose(weights, (3, 0, 1, 2)))
    bits = per_tap.bits.reshape(cout, kh * kw * per_tap.bits.shape[-1])
    return PackedFilters(
        bits=np.ascontiguousarray(bits), kernel_h=kh, kernel_w=kw, in_channels=cin
    )


def zero_padding_correction(
    weights: np.ndarray,
    params: BConv2DParams,
    in_h: int,
    in_w: int,
) -> np.ndarray:
    """Accumulator correction for zero-padded binarized convolutions.

    Returns an int32 array of shape ``(out_h * out_w, out_channels)`` to be
    subtracted from the one-padded accumulators.  Computed once per layer by
    the converter (weights and geometry are static).
    """
    geom = conv_geometry(
        in_h, in_w, params.kernel_h, params.kernel_w, params.stride,
        params.dilation, Padding.SAME_ZERO,
    )
    mask = padded_tap_mask(
        in_h, in_w, params.kernel_h, params.kernel_w, params.stride,
        params.dilation, geom,
    )  # (pixels, taps)
    # Per-tap weight sums over input channels: what a +1-valued padded tap
    # contributes to each output channel.
    tap_sums = weights.reshape(
        params.kernel_h * params.kernel_w, params.in_channels, params.out_channels
    ).sum(axis=1)
    return (mask.astype(np.int32) @ tap_sums.astype(np.int32)).astype(np.int32)


def bconv2d(
    x: PackedTensor,
    filters: PackedFilters,
    params: BConv2DParams,
    multiplier: np.ndarray | float | None = None,
    bias: np.ndarray | float | None = None,
    activation: Activation = Activation.NONE,
    scale_before_activation: bool = True,
    output_type: OutputType = OutputType.FLOAT,
    thresholds: OutputThresholds | None = None,
    padding_correction: np.ndarray | None = None,
    int8_output_scale: float | None = None,
    int8_output_zero_point: int = 0,
    indirection: Indirection | None = None,
    workspace: Workspace | None = None,
    config: KernelConfig | None = None,
) -> np.ndarray | PackedTensor:
    """Execute a binarized 2-D convolution.

    Args:
        x: bitpacked NHWC input (e.g. the output of ``LceQuantize``).
        filters: bitpacked filters from :func:`pack_filters`.
        params: static convolution parameters.
        multiplier, bias: fused per-channel transform (folded batch norm).
        activation: fused activation function.
        scale_before_activation: transform order (see output_transform).
        output_type: write float values or threshold into bitpacked output.
        thresholds: required when ``output_type`` is ``BITPACKED``; computed
            by the converter via
            :func:`repro.core.output_transform.compute_output_thresholds`.
        padding_correction: required when ``params.padding`` is
            ``SAME_ZERO``; from :func:`zero_padding_correction`.
        indirection: precomputed im2col plan from
            :func:`repro.core.indirection.get_indirection`.  Compiled plans
            pass the indirection pinned at compile time; eager callers can
            omit it and the process-level cache supplies it.
        workspace: scratch arena for the padded/patch/XOR/popcount/
            accumulator temporaries.  With a workspace the steady-state call
            performs no NumPy allocations; without one behaviour matches the
            original allocating path.  Results are bit-identical either way.
        config: a :class:`~repro.core.kernel_config.KernelConfig` choosing
            the BGEMM tiling and im2col strategy.  Every config is
            bit-exactness-preserving; ``None`` means
            :data:`~repro.core.kernel_config.DEFAULT_CONFIG`, which is
            what every plan runs.

    Returns:
        ``(N, out_h, out_w, out_channels)`` float32 array, or a
        :class:`PackedTensor` of the same logical shape.
    """
    if x.channels != params.in_channels:
        raise ValueError(
            f"input has {x.channels} channels, params expect {params.in_channels}"
        )
    if filters.out_channels != params.out_channels:
        raise ValueError(
            f"filters have {filters.out_channels} output channels, "
            f"params expect {params.out_channels}"
        )
    n, in_h, in_w, _ = x.bits.shape
    if indirection is None:
        indirection = get_indirection(
            in_h, in_w, params.kernel_h, params.kernel_w, params.stride,
            params.dilation, params.padding,
        )
    geom = indirection.geom
    if config is None:
        config = DEFAULT_CONFIG
    if params.groups > 1:
        acc = _grouped_accumulators(
            x, filters, params, indirection, workspace, config
        )
    else:
        patches = _im2col(x, indirection, workspace, config)
        out = None
        if workspace is not None:
            out = workspace.take(
                "bconv/acc", (patches.shape[0], params.out_channels), np.int32
            )
        acc = _bgemm(
            patches, filters, params.depth,
            out=out, workspace=workspace, config=config,
        )
    acc = acc.reshape(n, geom.out_h * geom.out_w, params.out_channels)

    if params.padding is Padding.SAME_ZERO:
        if padding_correction is None:
            raise ValueError("SAME_ZERO padding requires a padding_correction")
        # In place: acc is freshly computed (or workspace-owned) and the
        # output transforms below copy, so nothing aliases it.
        np.subtract(acc, padding_correction[None, :, :], out=acc)

    acc = acc.reshape(n, geom.out_h, geom.out_w, params.out_channels)

    if output_type is OutputType.BITPACKED:
        if thresholds is None:
            raise ValueError("BITPACKED output requires precomputed thresholds")
        return accumulators_to_bitpacked(acc, thresholds)
    if output_type is OutputType.INT8:
        if int8_output_scale is None:
            raise ValueError("INT8 output requires int8_output_scale")
        from repro.core.output_transform import accumulators_to_int8

        return accumulators_to_int8(
            acc,
            params.out_channels,
            int8_output_scale,
            int8_output_zero_point,
            multiplier=multiplier,
            bias=bias,
            activation=activation,
            scale_before_activation=scale_before_activation,
        )
    return accumulators_to_float(
        acc,
        params.out_channels,
        multiplier=multiplier,
        bias=bias,
        activation=activation,
        scale_before_activation=scale_before_activation,
    )


def _im2col(
    x: PackedTensor,
    indirection: Indirection,
    workspace: Workspace | None,
    config: KernelConfig,
) -> np.ndarray:
    """Materialize patches via the config's strategy (identical layouts)."""
    if config.im2col == "direct":
        return im2col_direct(x, indirection, workspace)
    return im2col_indirect(x, indirection, workspace)


def _bgemm(
    a: np.ndarray,
    filters: PackedFilters,
    depth: int,
    out: np.ndarray | None = None,
    workspace: Workspace | None = None,
    config: KernelConfig = DEFAULT_CONFIG,
    columns: slice = slice(None),
) -> np.ndarray:
    """Patches x filters (output channels ``columns`` of them).

    With a workspace: patches are packed K-major into ``bgemm/at`` and
    multiplied against the pre-packed K-major filters.  Without one: the
    allocating reference BGEMM.  Bit-identical either way.
    """
    if workspace is not None:
        return bgemm_kmajor(
            pack_kmajor(a, workspace, "bgemm/at"),
            filters.kmajor[:, columns], depth, out, workspace,
            tile_m=config.tile_m, tile_n=config.tile_n,
            tile_k_words=config.tile_k_words,
        )
    return bgemm_blocked(
        a, filters.bits[columns], depth,
        tile_m=config.tile_m, tile_n=config.tile_n, out=out,
    )


def _grouped_accumulators(
    x: PackedTensor,
    filters: PackedFilters,
    params: BConv2DParams,
    indirection: Indirection | None = None,
    workspace: Workspace | None = None,
    config: KernelConfig = DEFAULT_CONFIG,
) -> np.ndarray:
    """Grouped convolution: per-group im2col + BGEMM into one accumulator.

    When the per-group channel count is word-aligned (``cin_g % 64 == 0``,
    the common case) each group's input is a direct word-slice of the packed
    tensor and each group's filters are a direct row-slice of the packed
    filter matrix — channel blocks pack independently into whole words, so
    the slices equal what re-packing the dense slices would produce (on the
    workspace path: a column slice of the K-major filters).
    Otherwise groups straddle word boundaries and the input is unpacked and
    re-packed per group (grouped binarized convolutions are rare enough —
    none of the paper's models use them — that the repack is acceptable).
    Both branches are bit-identical (covered by a dedicated test).
    """
    n, in_h, in_w, _ = x.bits.shape
    if indirection is None:
        indirection = get_indirection(
            in_h, in_w, params.kernel_h, params.kernel_w, params.stride,
            params.dilation, params.padding,
        )
    cin_g = params.in_channels // params.groups
    cout_g = params.out_channels // params.groups
    m = n * indirection.pixels
    word_aligned = cin_g % 64 == 0
    if workspace is not None:
        acc = workspace.take("bconv/acc", (m, params.out_channels), np.int32)
    else:
        acc = np.empty((m, params.out_channels), np.int32)
    if not word_aligned:
        dense_x = unpack_bits(x)
        dense_w = unpack_filters(filters)
    words_g = packed_words(cin_g)
    for g in range(params.groups):
        columns = slice(g * cout_g, (g + 1) * cout_g)
        if word_aligned:
            xg = PackedTensor(
                x.bits[..., g * words_g : (g + 1) * words_g], channels=cin_g
            )
            wg, wg_columns = filters, columns
        else:
            xg = pack_bits(dense_x[..., g * cin_g : (g + 1) * cin_g])
            wg, wg_columns = pack_filters(dense_w[:, :, :, columns]), slice(None)
        patches = _im2col(xg, indirection, workspace, config)
        _bgemm(
            patches, wg, params.depth,
            out=acc[:, columns], workspace=workspace, config=config,
            columns=wg_columns,
        )
    return acc


def reserve_bconv2d_workspace(
    pool: WorkspacePool | Workspace,
    params: BConv2DParams,
    in_h: int,
    in_w: int,
    batch: int,
    config: KernelConfig | None = None,
) -> Indirection:
    """Reserve every scratch buffer one ``bconv2d`` call will take.

    Called by kernel factories at plan-compile time so the plan's
    :class:`~repro.core.workspace.WorkspacePool` preallocates the arena at
    the max size over all nodes.  ``config`` must match what the run-time
    call will use — tile sizes change the BGEMM scratch shapes, and
    reserving the wrong ones would make steady-state calls grow the arena
    (breaking the no-allocation contract).  Returns the (memoized)
    indirection for the geometry so the factory can pin it on the node's
    params.
    """
    if config is None:
        config = DEFAULT_CONFIG
    ind = get_indirection(
        in_h, in_w, params.kernel_h, params.kernel_w, params.stride,
        params.dilation, params.padding,
    )
    words = packed_words(params.in_channels)
    m = batch * ind.pixels
    if ind.has_spatial_padding:
        pool.reserve(
            "bconv/padded", batch * ind.padded_h * ind.padded_w * words, np.uint64
        )
    pool.reserve("bconv/patches", m * ind.taps * words, np.uint64)
    pool.reserve("bconv/acc", m * params.out_channels, np.int32)
    # Grouped calls run one BGEMM per group, each over that group's
    # channels only; the derived K depth follows that narrower shape.
    for name, size, dtype in bgemm_scratch_spec(
        m,
        params.out_channels // params.groups,
        ind.taps * packed_words(params.in_channels // params.groups),
        tile_m=config.tile_m, tile_n=config.tile_n,
        tile_k_words=config.tile_k_words,
    ):
        pool.reserve(name, size, dtype)
    return ind


def unpack_filters(filters: PackedFilters) -> np.ndarray:
    """Decode packed filters back to +/-1 HWIO floats (inverse of
    :func:`pack_filters`)."""
    cout = filters.out_channels
    kh, kw, cin = filters.kernel_h, filters.kernel_w, filters.in_channels
    words = -(-cin // 64)
    per_tap = filters.bits.reshape(cout, kh, kw, words)
    dense = unpack_bits(PackedTensor(per_tap, channels=cin))
    return np.transpose(dense, (1, 2, 3, 0))


def bconv2d_reference(
    x_float: np.ndarray,
    weights: np.ndarray,
    params: BConv2DParams,
    multiplier: np.ndarray | float | None = None,
    bias: np.ndarray | float | None = None,
    activation: Activation = Activation.NONE,
    scale_before_activation: bool = True,
) -> np.ndarray:
    """Float emulation of a binarized convolution — the gold standard.

    Binarizes inputs and weights to +/-1 floats and runs a plain float
    convolution with the requested padding semantics (one-padding pads with
    +1.0; zero-padding with 0.0).  Used in tests to pin down the optimized
    path bit-for-bit, mirroring the training-time emulated graph.
    """
    from repro.core.im2col import im2col_float  # local to avoid cycle noise

    signs_x = np.where(np.asarray(x_float) < 0, -1.0, 1.0).astype(np.float32)
    signs_w = np.where(np.asarray(weights) < 0, -1.0, 1.0).astype(np.float32)
    pad_value = 1.0 if params.padding is Padding.SAME_ONE else 0.0
    n = x_float.shape[0]
    cin_g = params.in_channels // params.groups
    cout_g = params.out_channels // params.groups
    group_accs = []
    geom = None
    for g in range(params.groups):
        xg = signs_x[..., g * cin_g : (g + 1) * cin_g]
        wg = signs_w[:, :, :, g * cout_g : (g + 1) * cout_g]
        patches, geom = im2col_float(
            xg, params.kernel_h, params.kernel_w, params.stride,
            params.dilation, params.padding, pad_value=pad_value,
        )
        group_accs.append(patches @ wg.reshape(-1, cout_g))
    acc = np.concatenate(group_accs, axis=-1)
    acc = acc.reshape(n, geom.out_h, geom.out_w, params.out_channels)
    return accumulators_to_float(
        acc.astype(np.int32),
        params.out_channels,
        multiplier=multiplier,
        bias=bias,
        activation=activation,
        scale_before_activation=scale_before_activation,
    )
