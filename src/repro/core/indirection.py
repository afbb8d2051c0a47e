"""Indirection buffers: compile-time im2col for the binarized hot path.

XNNPACK-style indirection: instead of rebuilding gather meshgrids and
re-deriving geometry on every convolution call, all shape-dependent
im2col work is done **once per static geometry key** — ``(in_h, in_w,
kernel_h, kernel_w, stride, dilation, padding)`` — and the result is a
flat int32 index array mapping every ``(output pixel, kernel tap)`` pair
to a word row of the spatially padded input.  At run time the im2col
stage is then a single ``np.take`` into a reused patch buffer.

The :class:`Indirection` for a key is memoized in a process-level cache.
No kernel under ``src/`` gathers through it any more — the reference
``bconv2d`` runs :func:`repro.core.im2col.im2col_packed` and plans run the
bound kernel's one strided copy — so the cache is fed only by direct
:func:`get_indirection` callers (``bench/``'s probes, the tests).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.concurrency.locks import ordered_lock
from repro.core.bitpack import PackedTensor
from repro.core.im2col import (
    ConvGeometry,
    conv_geometry,
    padded_tap_mask,
    windows,
)
from repro.core.types import Padding
from repro.core.workspace import Workspace
from repro.obs.metrics import global_registry
from repro.obs.trace import active_tracer


@dataclass(frozen=True)
class Indirection:
    """Precomputed im2col plan for one convolution geometry.

    ``flat_index`` holds, for every (pixel, tap) pair in row-major
    ``(out_h*out_w, kernel_h*kernel_w)`` order, the flattened spatial
    index ``row * padded_w + col`` into the padded input plane.  For
    SAME_ZERO geometries ``pad_mask`` marks the (pixel, tap) pairs that
    read padding (the converter's correction mask).  Both arrays are
    read-only — they are shared across threads and plans.
    """

    in_h: int
    in_w: int
    kernel_h: int
    kernel_w: int
    stride: int
    dilation: int
    padding: Padding
    geom: ConvGeometry
    padded_h: int
    padded_w: int
    flat_index: np.ndarray
    pad_mask: np.ndarray | None

    @property
    def pixels(self) -> int:
        return self.geom.out_h * self.geom.out_w

    @property
    def taps(self) -> int:
        return self.kernel_h * self.kernel_w

    @property
    def has_spatial_padding(self) -> bool:
        return self.padded_h != self.in_h or self.padded_w != self.in_w

    @property
    def nbytes(self) -> int:
        total = self.flat_index.nbytes
        if self.pad_mask is not None:
            total += self.pad_mask.nbytes
        return total


_CACHE: dict[tuple, Indirection] = {}
_LOCK = ordered_lock("core.indirection")
_HITS = 0
_MISSES = 0


def _build(
    in_h: int,
    in_w: int,
    kernel_h: int,
    kernel_w: int,
    stride: int,
    dilation: int,
    padding: Padding,
) -> Indirection:
    geom = conv_geometry(in_h, in_w, kernel_h, kernel_w, stride, dilation, padding)
    padded_h = in_h + geom.pad_top + geom.pad_bottom
    padded_w = in_w + geom.pad_left + geom.pad_right
    # The windows of a plane holding each padded position's own flat index.
    plane = np.arange(padded_h * padded_w, dtype=np.int32)
    flat = windows(
        plane.reshape(1, padded_h, padded_w, 1),
        kernel_h, kernel_w, stride, dilation, geom.out_h, geom.out_w,
    ).reshape(-1)
    flat.setflags(write=False)
    mask = None
    if padding is Padding.SAME_ZERO:
        mask = padded_tap_mask(in_h, in_w, kernel_h, kernel_w, stride, dilation, geom)
        mask.setflags(write=False)
    return Indirection(
        in_h=in_h,
        in_w=in_w,
        kernel_h=kernel_h,
        kernel_w=kernel_w,
        stride=stride,
        dilation=dilation,
        padding=padding,
        geom=geom,
        padded_h=padded_h,
        padded_w=padded_w,
        flat_index=flat,
        pad_mask=mask,
    )


def get_indirection(
    in_h: int,
    in_w: int,
    kernel_h: int,
    kernel_w: int,
    stride: int = 1,
    dilation: int = 1,
    padding: Padding = Padding.SAME_ONE,
) -> Indirection:
    """The memoized :class:`Indirection` for a static geometry key."""
    global _HITS, _MISSES
    key = (in_h, in_w, kernel_h, kernel_w, stride, dilation, padding)
    tracer = active_tracer()
    t0 = time.perf_counter() if tracer.enabled else 0.0
    with _LOCK:
        ind = _CACHE.get(key)
        if ind is not None:
            _HITS += 1
    if ind is not None:
        if tracer.enabled:
            tracer.record(
                "indirection.lookup", t0, time.perf_counter() - t0, hit=True
            )
        return ind
    built = _build(*key)
    with _LOCK:
        # Lost race: keep the first entry so every caller shares one array.
        ind = _CACHE.get(key)
        if ind is None:
            _MISSES += 1
            ind = _CACHE[key] = built
        else:
            _HITS += 1
            built = ind
    if tracer.enabled:
        tracer.record(
            "indirection.lookup", t0, time.perf_counter() - t0, hit=False
        )
    return built


@dataclass(frozen=True)
class IndirectionCacheStats:
    entries: int
    hits: int
    misses: int
    nbytes: int


def indirection_cache_stats() -> IndirectionCacheStats:
    """Entries / hit counters / bytes of the process-level cache."""
    with _LOCK:
        return IndirectionCacheStats(
            entries=len(_CACHE),
            hits=_HITS,
            misses=_MISSES,
            nbytes=sum(ind.nbytes for ind in _CACHE.values()),
        )


def indirection_cache_clear() -> None:
    """Drop every cached indirection and reset its counters (tests)."""
    global _HITS, _MISSES
    with _LOCK:
        _CACHE.clear()
        _HITS = 0
        _MISSES = 0


def _register_metrics() -> None:
    """Expose the module cache through the global metrics registry.

    Callback gauges read :func:`indirection_cache_stats` (all fields
    under the module lock), so ``repro.cli stats`` and snapshot blocks
    see live values; :func:`indirection_cache_clear` is the reset.
    """
    reg = global_registry()
    reg.gauge("indirection.entries", lambda: indirection_cache_stats().entries)
    reg.gauge("indirection.hits", lambda: indirection_cache_stats().hits)
    reg.gauge("indirection.misses", lambda: indirection_cache_stats().misses)
    reg.gauge("indirection.bytes", lambda: indirection_cache_stats().nbytes)


_register_metrics()


def im2col_indirect(
    x: PackedTensor,
    ind: Indirection,
    workspace: Workspace | None = None,
) -> np.ndarray:
    """im2col for a bitpacked NHWC tensor through an indirection buffer.

    Bit-identical to :func:`repro.core.im2col.im2col_packed` for the same
    geometry; the difference is where the work happens.  All index
    arithmetic lives in ``ind`` (compile time); the run-time path is one
    interior copy into the padded buffer plus one ``np.take``.  With a
    ``workspace`` both the padded buffer and the patch matrix are reused
    arena views and the call allocates nothing.

    Returns ``(N * pixels, taps * words)`` uint64 patches.
    """
    bits = _checked_bits(x, ind)
    n, in_h, in_w, words = bits.shape
    src = _staged_source(bits, ind, workspace)
    if src is bits:
        # VALID (or degenerate SAME) geometry: gather straight from the
        # input plane, no padded staging buffer needed.
        flat_src = np.ascontiguousarray(bits).reshape(n, in_h * in_w, words)
    else:
        flat_src = src.reshape(n, ind.padded_h * ind.padded_w, words)
    shape = (n, ind.pixels * ind.taps, words)
    if workspace is None:
        patches = np.take(flat_src, ind.flat_index, axis=1)
    else:
        patches = workspace.take("bconv/patches", shape, np.uint64)
        np.take(flat_src, ind.flat_index, axis=1, out=patches)
    return patches.reshape(n * ind.pixels, ind.taps * words)


def im2col_direct(
    x: PackedTensor,
    ind: Indirection,
    workspace: Workspace | None = None,
) -> np.ndarray:
    """im2col via one strided-slice copy per kernel tap.

    Bit-identical to :func:`im2col_indirect` — the patch buffer is viewed
    as ``(N, out_h, out_w, taps, words)`` and each tap's plane is written
    by a direct strided slice of the (padded) input, which lands words in
    exactly the positions the flat gather would.  Trades ``taps`` large
    contiguous copies for the single fancy-index gather.  Shares the
    padded staging buffer (``bconv/padded``) and the patch buffer
    (``bconv/patches``) with the indirect path, so either strategy runs
    in the same arena.
    """
    bits = _checked_bits(x, ind)
    n, _, _, words = bits.shape
    src = _staged_source(bits, ind, workspace)
    out_h, out_w = ind.geom.out_h, ind.geom.out_w
    shape = (n, ind.pixels * ind.taps, words)
    if workspace is None:
        patches = np.empty(shape, np.uint64)
    else:
        patches = workspace.take("bconv/patches", shape, np.uint64)
    view = patches.reshape(n, out_h, out_w, ind.taps, words)
    stride, dilation = ind.stride, ind.dilation
    tap = 0
    for ky in range(ind.kernel_h):
        r0 = ky * dilation
        for kx in range(ind.kernel_w):
            c0 = kx * dilation
            view[:, :, :, tap, :] = src[
                :,
                r0 : r0 + (out_h - 1) * stride + 1 : stride,
                c0 : c0 + (out_w - 1) * stride + 1 : stride,
                :,
            ]
            tap += 1
    return patches.reshape(n * ind.pixels, ind.taps * words)


def _checked_bits(x: PackedTensor, ind: Indirection) -> np.ndarray:
    bits = x.bits
    if bits.ndim != 4:
        raise ValueError(f"expected packed NHWC input, got {bits.ndim}-D")
    _, in_h, in_w, _ = bits.shape
    if (in_h, in_w) != (ind.in_h, ind.in_w):
        raise ValueError(
            f"input is {in_h}x{in_w} but indirection was built for "
            f"{ind.in_h}x{ind.in_w}"
        )
    return bits


def _staged_source(
    bits: np.ndarray, ind: Indirection, workspace: Workspace | None
) -> np.ndarray:
    """The 4-D spatial source both im2col strategies read from.

    Returns ``bits`` itself for geometries without spatial padding;
    otherwise stages the input into the (shared) ``bconv/padded`` buffer
    with a zeroed border, exactly as the indirect path always has.
    """
    if not ind.has_spatial_padding:
        return bits
    n, in_h, in_w, words = bits.shape
    geom = ind.geom
    if workspace is None:
        padded = np.zeros((n, ind.padded_h, ind.padded_w, words), np.uint64)
    else:
        padded = workspace.take(
            "bconv/padded", (n, ind.padded_h, ind.padded_w, words), np.uint64
        )
        _zero_border(padded, geom, in_h, in_w)
    padded[
        :,
        geom.pad_top : geom.pad_top + in_h,
        geom.pad_left : geom.pad_left + in_w,
        :,
    ] = bits
    return padded


def _zero_border(padded: np.ndarray, geom: ConvGeometry, in_h: int, in_w: int) -> None:
    """Zero the spatial border of a reused padded buffer.

    The interior is fully overwritten by the caller; only the border
    words (which decode to +1.0, realizing one-padding) must be zero, and
    a reused arena buffer may hold another node's stale words there.
    """
    if geom.pad_top:
        padded[:, : geom.pad_top] = 0
    if geom.pad_bottom:
        padded[:, geom.pad_top + in_h :] = 0
    if geom.pad_left:
        padded[:, geom.pad_top : geom.pad_top + in_h, : geom.pad_left] = 0
    if geom.pad_right:
        padded[:, geom.pad_top : geom.pad_top + in_h, geom.pad_left + in_w :] = 0
