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

import time
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from repro.core.bgemm import (
    bgemm_blocked,
    bgemm_scratch_spec,
    bind_kmajor,
    derive_panel,
)
from repro.core.bitpack import (
    WORD_BITS,
    PackedTensor,
    pack_bits,
    packed_words,
    popcount,
    unpack_bits,
)
from repro.core.kernel_config import DEFAULT_CONFIG, KernelConfig
from repro.core.im2col import (
    ConvGeometry,
    conv_geometry,
    im2col_float,
    im2col_packed,
    padded_tap_mask,
    windows,
)
from repro.core.workspace import Workspace
from repro.core.output_transform import (
    OutputThresholds,
    broadcast_channel,
    accumulators_to_bitpacked,
    accumulators_to_float,
    accumulators_to_int8,
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
        """:meth:`kmajor_of` every tap, once per model (plan compilation
        touches it)."""
        return self.kmajor_of(range(self.kernel_h * self.kernel_w))

    def kmajor_of(self, taps) -> np.ndarray:
        """The ``(kmajor_words, out_channels)`` operand the bound kernel
        multiplies over ``taps``: per filter, each tap's 32-bit halves back
        to back (a zero tail half when their count is odd), transposed."""
        cout, cin, taps = self.out_channels, self.in_channels, list(taps)
        halves = -(-cin // 32)
        dense = np.zeros((cout, 2 * kmajor_words(len(taps), cin)), np.uint32)
        all_taps = self.kernel_h * self.kernel_w
        per_tap = self.bits.view(np.uint32).reshape(cout, all_taps, -1)
        dense[:, : len(taps) * halves] = per_tap[:, taps, :halves].reshape(cout, -1)
        return np.ascontiguousarray(dense.view(np.uint64).T)


def kmajor_words(taps: int, in_channels: int) -> int:
    """K of the bound kernel's K-major operands: every tap's
    ``ceil(in_channels / 32)`` 32-bit halves back to back, paired into
    uint64 words.  When that half count is even (``in_channels % 64`` is 0
    or above 32) the layout is byte-identical to whole words per tap."""
    return -(-taps * -(-in_channels // 32) // 2)


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

    The bits equal ``pack_bits(np.transpose(weights, (3, 0, 1, 2)))`` with
    its taps flattened, but are packed in the weights' own HWIO order:
    ``w < 0`` goes into a zero-padded ``(kh, kw, words * 64, cout)`` bool
    array, ``np.packbits`` runs down the channel axis, and only the 8x
    smaller bytes are transposed to ``(cout, taps * words)``.

    Args:
        weights: ``(kernel_h, kernel_w, in_channels, out_channels)`` array of
            +/-1 values (any float/int dtype; only signs are read).
    """
    if weights.ndim != 4:
        raise ValueError(f"expected HWIO filters, got {weights.ndim}-D")
    kh, kw, cin, cout = weights.shape
    words = packed_words(cin)
    signs = np.zeros((kh, kw, words * WORD_BITS, cout), bool)
    np.less(weights, 0, out=signs[:, :, :cin])
    packed = np.packbits(signs, axis=2)  # (kh, kw, words * 8, cout) bytes
    bits = np.ascontiguousarray(np.moveaxis(packed, 3, 0)).view(np.uint64)
    return PackedFilters(
        bits=bits.reshape(cout, kh * kw * words), kernel_h=kh, kernel_w=kw,
        in_channels=cin,
    )


@lru_cache(maxsize=1024)  # a model has a few dozen geometries
def live_taps(
    params: BConv2DParams, in_h: int, in_w: int
) -> tuple[tuple[int, ...], bool]:
    """The taps that read the input at some output pixel, and whether one
    of them reads padding at another.  The rest are *dead*: they read
    padding at every pixel (8 of the 9 taps of a 3x3 SAME convolution on a
    1x1 map), a per-channel constant the bound kernel adds instead of
    multiplying."""
    geom = conv_geometry(
        in_h, in_w, params.kernel_h, params.kernel_w, params.stride,
        params.dilation, params.padding,
    )
    reads = padded_tap_mask(
        in_h, in_w, params.kernel_h, params.kernel_w, params.stride,
        params.dilation, geom,
    )
    live = tuple(np.flatnonzero(~reads.all(0)).tolist())
    return live, bool(reads[:, live].any())


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
) -> np.ndarray | PackedTensor:
    """Execute a binarized 2-D convolution: the allocating reference.

    im2col, BGEMM and output transform, one after the other, each into
    fresh arrays.  This is what the ``Executor`` runs and what every
    :class:`BoundBConv2D` must equal bit for bit.

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

    Returns:
        ``(N, out_h, out_w, out_channels)`` float32 array, or a
        :class:`PackedTensor` of the same logical shape.
    """
    if x.channels != params.in_channels:
        raise ValueError(
            f"input has {x.channels} channels, params expect {params.in_channels}"
        )
    finish = _output_transform(
        filters, params, padding_correction, multiplier, bias, activation,
        scale_before_activation, output_type, thresholds, int8_output_scale,
        int8_output_zero_point,
    )
    n, in_h, in_w, _ = x.bits.shape
    geom = conv_geometry(
        in_h, in_w, params.kernel_h, params.kernel_w, params.stride,
        params.dilation, params.padding,
    )
    acc = _accumulators(x, filters, params, n * geom.out_h * geom.out_w)
    if params.padding is Padding.SAME_ZERO:
        # In place: acc is freshly computed and the output transforms
        # copy, so nothing aliases it.
        acc = acc.reshape(n, geom.out_h * geom.out_w, params.out_channels)
        np.subtract(acc, padding_correction[None, :, :], out=acc)
    return finish(acc.reshape(n, geom.out_h, geom.out_w, params.out_channels))


def _accumulators(
    x: PackedTensor, filters: PackedFilters, params: BConv2DParams, m: int
) -> np.ndarray:
    """``(m, out_channels)`` int32 accumulators: im2col + BGEMM per group.

    A group whose channel count is word-aligned (``cin_g % 64 == 0``, and
    always the single group of an ungrouped convolution) is a direct
    word-slice of the packed input and a direct row-slice of the packed
    filters — channel blocks pack independently into whole words, so the
    slices equal what re-packing the dense slices would produce.
    Otherwise groups straddle word boundaries and the input is unpacked and
    re-packed per group (grouped binarized convolutions are rare enough —
    none of the paper's models use them — that the repack is acceptable).
    Both branches are bit-identical (covered by a dedicated test).
    """
    cin_g = params.in_channels // params.groups
    cout_g = params.out_channels // params.groups
    words_g = packed_words(cin_g)
    sliceable = params.groups == 1 or cin_g % 64 == 0
    if not sliceable:
        dense_x = unpack_bits(x)
        dense_w = unpack_filters(filters)
    acc = np.empty((m, params.out_channels), np.int32)
    for g in range(params.groups):
        columns = slice(g * cout_g, (g + 1) * cout_g)
        if sliceable:
            xg = PackedTensor(
                x.bits[..., g * words_g : (g + 1) * words_g], channels=cin_g
            )
            wg = filters.bits[columns]
        else:
            xg = pack_bits(dense_x[..., g * cin_g : (g + 1) * cin_g])
            wg = pack_filters(dense_w[:, :, :, columns]).bits
        patches, _ = im2col_packed(
            xg, params.kernel_h, params.kernel_w, params.stride,
            params.dilation, params.padding,
        )
        bgemm_blocked(patches, wg, params.depth, out=acc[:, columns])
    return acc


def _output_transform(
    filters: PackedFilters,
    params: BConv2DParams,
    padding_correction: np.ndarray | None,
    multiplier,
    bias,
    activation: Activation,
    scale_before_activation: bool,
    output_type: OutputType,
    thresholds: OutputThresholds | None = None,
    int8_output_scale: float | None = None,
    int8_output_zero_point: int = 0,
):
    """The static checks of a convolution, then its reference output stage
    as ``finish(acc)`` over ``(N, out_h, out_w, C)`` int32 accumulators."""
    cout = params.out_channels
    if filters.out_channels != cout:
        raise ValueError(
            f"filters have {filters.out_channels} output channels, "
            f"params expect {cout}"
        )
    if params.padding is Padding.SAME_ZERO and padding_correction is None:
        raise ValueError("SAME_ZERO padding requires a padding_correction")
    if output_type is OutputType.BITPACKED:
        if thresholds is None:
            raise ValueError("BITPACKED output requires precomputed thresholds")
        return lambda acc: accumulators_to_bitpacked(acc, thresholds)
    if output_type is OutputType.INT8 and int8_output_scale is None:
        raise ValueError("INT8 output requires int8_output_scale")
    fused = dict(
        multiplier=multiplier, bias=bias, activation=activation,
        scale_before_activation=scale_before_activation,
    )
    if output_type is OutputType.INT8:
        return lambda acc: accumulators_to_int8(
            acc, cout, int8_output_scale, int8_output_zero_point, **fused
        )
    return lambda acc: accumulators_to_float(acc, cout, **fused)


class BoundBConv2D:
    """A ``groups == 1`` binarized convolution compiled for one input shape
    (docs/architecture.md §6 has the full account).

    Construction does what depends only on static shapes: checks,
    geometry, epilogue.  :meth:`bind` slices every view a call touches out
    of a :class:`~repro.core.workspace.Workspace` and returns
    ``run(x, shortcut=None, marks=None)``, which is then only the NumPy
    calls that move data.  ``quantize``: ``x`` is the float tensor a
    single-consumer ``lce_quantize`` would have packed.  ``shortcut``: the
    position (0 or 1) of the shortcut among the two inputs of the residual
    ``add`` the kernel absorbed; ``run`` then takes that tensor.  ``run``
    appends a ``time.perf_counter()`` reading to ``marks`` at each boundary
    between absorbed graph nodes.  The other arguments are
    :func:`bconv2d`'s, and so — bit for bit — is the result.
    """

    def __init__(
        self,
        filters: PackedFilters,
        params: BConv2DParams,
        in_h: int,
        in_w: int,
        batch: int,
        *,
        multiplier: np.ndarray | float | None = None,
        bias: np.ndarray | float | None = None,
        activation: Activation = Activation.NONE,
        scale_before_activation: bool = True,
        output_type: OutputType = OutputType.FLOAT,
        padding_correction: np.ndarray | None = None,
        config: KernelConfig | None = None,
        quantize: bool = False,
        shortcut: int | None = None,
        **output_args,  # thresholds, int8_output_scale, int8_output_zero_point
    ) -> None:
        if params.groups != 1:
            raise ValueError("BoundBConv2D handles groups == 1 only")
        if shortcut is not None and output_type is not OutputType.FLOAT:
            raise ValueError("only a float output can absorb a shortcut add")
        from repro.kernels.arithmetic import add  # local: kernels imports core

        self._add = add  # the absorbed add node's own kernel
        self._finish = _output_transform(
            filters, params, padding_correction, multiplier, bias, activation,
            scale_before_activation, output_type, **output_args,
        )
        self.params = params
        self.config = config if config is not None else DEFAULT_CONFIG
        self.in_shape = (batch, in_h, in_w, params.in_channels)
        self.quantize = quantize
        self.shortcut = shortcut
        # Dead taps leave K: only the live ones are multiplied, and the
        # dead ones' constant one-padded contribution joins the SAME_ZERO
        # correction in one int32 offset added to the accumulators.
        live, self._border = live_taps(params, in_h, in_w)
        self.live = live
        cin, offset = params.in_channels, None
        dead = [t for t in range(params.kernel_h * params.kernel_w) if t not in live]
        self._bt = filters.kmajor_of(live) if dead else filters.kmajor
        if dead:  # each reads +1 everywhere: cin - 2 * popcount of its words
            words = filters.bits.reshape(params.out_channels, -1, packed_words(cin))
            ones = popcount(words[:, dead]).sum((1, 2), dtype=np.int32)
            offset = np.int32(len(dead) * cin) - 2 * ones
        if params.padding is Padding.SAME_ZERO:
            correction = np.asarray(padding_correction, np.int32)
            offset = (-correction if offset is None else offset - correction)[None]
        self._offset = offset
        # Float output: apply_transform, one in-place NumPy call per step.
        self._steps = None
        if output_type is OutputType.FLOAT:
            mult = broadcast_channel(multiplier, params.out_channels, 1.0)
            shift = broadcast_channel(bias, params.out_channels, 0.0)
            scale = [
                lambda f, out: np.multiply(f, mult, out=out),
                lambda f, out: np.add(f, shift, out=out),
            ]
            clip = [] if activation is Activation.NONE else [activation.apply]
            self._steps = scale + clip if scale_before_activation else clip + scale

    def bind(self, workspace: Workspace):
        """``run`` over views cut from ``workspace``.  Valid while the
        arena's buffers are the ones it was cut from: plans hold it through
        :meth:`repro.core.workspace.Workspace.bound`, which rebinds when
        ``workspace.grows`` moved."""
        p, cfg = self.params, self.config
        n, in_h, in_w, cin = in_shape = self.in_shape
        geom = conv_geometry(
            in_h, in_w, p.kernel_h, p.kernel_w, p.stride, p.dilation, p.padding
        )
        words = packed_words(cin)
        out_h, out_w, cout = geom.out_h, geom.out_w, p.out_channels
        m, live = n * out_h * out_w, self.live
        taps = len(live)
        quantize, add_at = self.quantize, self.shortcut
        steps, finish, offset = self._steps, self._finish, self._offset
        add = self._add

        if quantize:
            sign = workspace.take("bconv/sign", (n, in_h, in_w, words * 64), np.bool_)
            sign_x = sign[..., :cin]
            sign_pad = sign[..., cin:] if cin < words * 64 else None
        padded = workspace.take(
            "bconv/padded", (n, *_padded_hw(geom, in_h, in_w), words), np.uint64
        )
        top, left = geom.pad_top, geom.pad_left
        interior = padded[:, top : top + in_h, left : left + in_w]
        has_border = self._border  # a live tap reads it

        # im2col as strided copies of a view — tap (ky, kx), item k, image
        # i, pixel (y, x) reads padded[i, ky*d + y*s, kx*d + x*s, k] — into
        # the dense K-major slab: half q of a patch row (tap q // halves) is
        # half q % 2 of slab row q // 2.
        k_words, halves = kmajor_words(taps, cin), -(-cin // 32)
        at = workspace.take("bgemm/at", (k_words, m), np.uint64)

        def taps_of(plane):  # (kh, kw, items, n, out_h, out_w)
            return windows(
                plane, p.kernel_h, p.kernel_w, p.stride, p.dilation, out_h, out_w
            ).transpose(3, 4, 5, 0, 1, 2)

        all_taps = taps == p.kernel_h * p.kernel_w
        if halves % 2 == 0:  # whole words per tap: copied word for word
            patches = taps_of(padded)
            if all_taps:
                copies = [(at.reshape(patches.shape), patches)]
            else:  # one copy per live tap
                rows = at.reshape(taps, -1, n, out_h, out_w)
                copies = [
                    (rows[i], patches[divmod(t, p.kernel_w)])
                    for i, t in enumerate(live)
                ]
        else:
            tap_halves = taps_of(padded.view(np.uint32))
            slab = at.view(np.uint32).reshape(k_words, n, out_h, out_w, 2)
            if all_taps:
                # One copy per (ky, kx parity, half): every other tap of a
                # kernel row lands `halves` slab rows further on.
                copies = []
                for ky in range(p.kernel_h):
                    for kx in range(min(2, p.kernel_w)):
                        every_other = len(range(kx, p.kernel_w, 2))
                        for c in range(halves):
                            q = (ky * p.kernel_w + kx) * halves + c
                            rows = slab[q // 2 :: halves, ..., q % 2][:every_other]
                            copies.append((rows, tap_halves[ky, kx::2, c]))
            else:  # one copy per (live tap, half): half q is slab row q // 2's
                copies = [
                    (slab[q // 2, ..., q % 2], tap_halves[(*divmod(t, p.kernel_w), c)])
                    for i, t in enumerate(live)
                    for c, q in enumerate(range(i * halves, (i + 1) * halves))
                ]
            if taps * halves % 2:
                # Every node shares bgemm/at: zero its tail half each call.
                copies.append((slab[-1, ..., 1], np.uint32(0)))

        acc = workspace.take("bconv/acc", (m, cout), np.int32)
        gemm = bind_kmajor(
            at, self._bt, taps * cin, acc, workspace,
            *derive_panel(m, cout, k_words, cfg.tile_m, cfg.tile_n,
                          cfg.tile_k_words),
        )
        acc3 = acc.reshape(n, out_h * out_w, cout)
        acc4 = acc.reshape(n, out_h, out_w, cout)
        fbuf = workspace.take("bconv/float", acc4.shape, np.float32)
        if steps is not None:
            in_place = steps if add_at is not None else steps[:-1]

        def run(x, shortcut=None, marks=None):
            if x.shape != in_shape:  # the copies below would broadcast
                raise ValueError(f"input is {x.shape}, kernel expects {in_shape}")
            if quantize:
                if x.dtype.kind not in "fiu":
                    raise TypeError(f"cannot binarize dtype {x.dtype}")
                np.less(x, 0, out=sign_x)
                if sign_pad is not None:
                    sign_pad.fill(False)
                bits = np.packbits(sign, axis=-1).view(np.uint64)
                if marks is not None:
                    marks.append(time.perf_counter())
            else:
                bits = x.bits
            if has_border:
                padded.fill(0)  # zero bits are +1.0: one-padding
            np.copyto(interior, bits)
            for dst, src in copies:
                np.copyto(dst, src)
            gemm()
            if offset is not None:
                np.add(acc3, offset, out=acc3)
            if steps is None:
                return finish(acc4)  # reads the arena, returns fresh storage
            np.copyto(fbuf, acc4)  # int32 -> float32, what astype does
            for step in in_place:
                step(fbuf, fbuf)
            # The last operation allocates the result: what is returned
            # never aliases the arena.
            if add_at is None:
                return steps[-1](fbuf, None)
            if marks is not None:
                marks.append(time.perf_counter())
            return add(shortcut, fbuf) if add_at == 0 else add(fbuf, shortcut)

        return run


def _padded_hw(geom: ConvGeometry, in_h: int, in_w: int) -> tuple[int, int]:
    return (
        in_h + geom.pad_top + geom.pad_bottom,
        in_w + geom.pad_left + geom.pad_right,
    )


def reserve_bconv2d_workspace(
    workspace: Workspace,
    params: BConv2DParams,
    in_h: int,
    in_w: int,
    batch: int,
    config: KernelConfig | None = None,
    quantize: bool = False,
) -> None:
    """Reserve every scratch buffer a :class:`BoundBConv2D` binds.

    Called by the ``lce_bconv2d`` kernel factory at plan-compile time so
    the engine's :class:`~repro.core.workspace.Workspace` is preallocated
    at the max size over all nodes.  ``config`` must match the
    kernel's — tile caps change the BGEMM scratch shapes, and reserving
    the wrong ones would make steady-state calls grow the arena (breaking
    the no-allocation contract).  ``quantize``: with the sign bytes of an
    absorbed ``lce_quantize``.  Grouped convolutions run the allocating
    :func:`bconv2d` and have nothing to reserve.
    """
    if params.groups != 1:
        raise ValueError("only a groups == 1 convolution has a bound kernel")
    if config is None:
        config = DEFAULT_CONFIG
    geom = conv_geometry(
        in_h, in_w, params.kernel_h, params.kernel_w, params.stride,
        params.dilation, params.padding,
    )
    words = packed_words(params.in_channels)
    m = batch * geom.out_h * geom.out_w
    taps = len(live_taps(params, in_h, in_w)[0])
    padded_h, padded_w = _padded_hw(geom, in_h, in_w)
    workspace.reserve("bconv/padded", batch * padded_h * padded_w * words, np.uint64)
    workspace.reserve("bconv/acc", m * params.out_channels, np.int32)
    workspace.reserve("bconv/float", m * params.out_channels, np.float32)
    if quantize:
        workspace.reserve("bconv/sign", batch * in_h * in_w * words * 64, np.bool_)
    for name, size, dtype in bgemm_scratch_spec(
        m, params.out_channels,
        kmajor_words(taps, params.in_channels),
        tile_m=config.tile_m, tile_n=config.tile_n,
        tile_k_words=config.tile_k_words,
    ):
        workspace.reserve(name, size, dtype)


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
