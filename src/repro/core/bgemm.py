"""BGEMM — Binary GEneral Matrix Multiplication via XOR + popcount.

The paper's BGEMM kernel (Section 3.2, Table 1) multiplies bitpacked
activation rows against bitpacked weight rows using ``eor`` (XOR) for the
multiplication, ``cnt`` for the per-byte popcount and ``addp``/``uadalp``
for the accumulation, reaching ~78 binary MACs per cycle on a Cortex-A76.

Here the same arithmetic runs vectorized on uint64 words::

    acc[m, n] = K - 2 * sum_w popcount(A[m, w] XOR B[n, w])

where ``K`` is the true depth (number of +/-1 operands per dot product) and
``w`` ranges over the packed words.  Three implementations are provided:

- :func:`bgemm_reference` — scalar loops; the gold standard used in tests
  (kept per the project's "reference implementation in tests" idiom).
- :func:`bgemm` — fully vectorized broadcastized XOR-popcount.
- :func:`bgemm_blocked` — Ruy-style cache tiling over M/N panels; identical
  results, bounded temporary memory.  Without a workspace it is the
  allocating reference the ``Executor`` runs; with one it packs both
  operands K-major and runs the plan-path kernel, which ``LceBConv2d``
  reaches through :func:`bgemm_kmajor` with filters packed once at
  compile time.

**K-major layout.**  Like Ruy (and daBNN's weight re-layout), the plan
path packs operands into the layout its inner loop wants before the
multiply: ``(words, M)`` / ``(words, N)``, one packed word *plane* per
leading index, K dense (:func:`repro.core.bconv2d.kmajor_words`: each
tap's 32-bit halves back to back, so a 3x3x32 patch row is 5 words, not
9 half-padding ones).  One step XORs ``k_block`` planes into a block whose
inner axis is the panel's **longer** side — ``(k_block, mt, nt)`` with
the filter plane contiguous and the patch word broadcast, or ``(k_block,
nt, mt)`` with the patch plane contiguous when ``mt > nt``, the panel
then written transposed — and popcounts it into the step's rows of the
tile's ``uint8`` count slab ``(words, mt, nt)``.  After the last step
one reduce sums the slab over its **leading** axis, which NumPy executes
as vectorised adds of contiguous planes.  (Reducing a short *trailing* K
axis instead makes NumPy iterate a tiny inner loop per output element;
blocks of 2-4 words measured 3-6x slower than word-at-a-time that way.)

**Passes, not instructions.**  LCE's kernel is ``eor`` → ``cnt`` →
``addp`` → ``uadalp`` into 16-bit lanes, widened once per tile.  Here
each K step is two calls, XOR and popcount, and K is summed once per
tile, into ``uint16`` whenever ``words * 64 <= 65535`` (else
``int32``); ``depth - 2 * pops`` widens once per tile.  The two phases
run under two ufunc buffer sizes, both scoped by ``np.errstate`` (per
thread, the caller's restored on exit, an exception included):

- XOR and popcount under 256 elements (:data:`_UFUNC_BUFSIZE`).  NumPy
  2.x's iterator copies the operands of a broadcast call through its
  buffer (8192 elements by default) whenever the contiguous inner extent
  is below about a third of it, and these blocks are 32-128 words wide.
  A uint64 ``(R, 1) ^ (1, C)`` with ``out=`` measured (NumPy 2.4)
  0.9-1.2 ns/word for C <= 2048 and 0.28-0.36 from C = 2731 up, where a
  flat XOR is 0.37; 4.2 / 5.2 at C = 128 under a 64 K / 1 M buffer, 0.42
  under a 16-element one.
- The reduce and epilogue under NumPy's default 8192
  (:data:`_REDUCE_BUFSIZE`).  On a 64 x 256 x 36-word tile (NumPy 2.4,
  2-core x86) the casting ``uint8`` → ``uint16`` reduce cost 0.21-0.24
  ns/word run per step under the 256-element buffer and 0.06-0.07 over
  the whole count slab under 8192, next to XOR 0.26-0.27 and popcount
  0.30-0.31.  Each switch costs ~1 us.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.core.bitpack import popcount
from repro.core.kernel_config import DEFAULT_CONFIG
from repro.obs.trace import active_tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.workspace import Workspace

#: Tile sizes of the allocating reference, not the bound kernel's caps.
#: Chosen so its XOR temporary stays around (256 * 128 * words) u64
#: elements — a few MiB at most.
_TILE_M = 256
_TILE_N = 128

#: at most this many GEMM rows: one full-width panel (:func:`derive_panel`)
_WIDE_PANEL_ROWS = 8

#: the panel side that does not lead the XOR block (:func:`derive_panel`)
_SHORT_SIDE = 64

#: XOR-block budget of the K-major kernel, in uint64 words (512 KiB): one
#: step XORs as many word planes as fit (:func:`derive_k_block`).  Set by a
#: sweep of ``Engine.run`` over QuickNet-small (two rounds, ms): at 224 px
#: 16 K words 54-58, 32 K 51-55, 64 K 48-51, 128 K 48-51, 256 K 48-49; at
#: 64 px batch 8 38-44, 34-36, 33-36, 33-36, 34-35; at 32 px flat.  Flat
#: from 64 K up, so this is the low end of that range (smallest scratch)
#: and a constant rather than a knob.
_XOR_BLOCK_WORDS = 1 << 16

#: NumPy ufunc buffer size (elements) every K-major GEMM call runs its XOR
#: and popcount steps under (module docstring, "Passes, not instructions").
_UFUNC_BUFSIZE = 256

#: ... and each tile's one K-sum reduce and epilogue: NumPy's default.  A
#: sweep of the bound conv at the four QuickNet-small 224 px shapes read
#: 2048 and 8192 level, 32768 up to 1.2x slower.
_REDUCE_BUFSIZE = 8192


def derive_k_block(mt: int, nt: int, words: int) -> int:
    """K depth (packed words per XOR step) for an ``mt x nt`` panel.

    Fills the :data:`_XOR_BLOCK_WORDS` budget, then balances: with
    ``steps = ceil(words / (budget // (mt * nt)))`` the depth is
    ``ceil(words / steps)``, so a 1x128 panel takes all 72 words of a
    3x3x512 layer in one step, a 256x128 panel goes two words at a time,
    and no step is a ragged one-word tail.  Always in ``[1, words]``; a
    panel larger than the whole budget gets depth 1.
    """
    cap = max(1, _XOR_BLOCK_WORDS // (mt * nt))
    steps = -(-words // cap)
    return -(-words // steps)


def _check_tiles(tile_m: int, tile_n: int, tile_k_words: int = 1) -> None:
    """Validate tile sizes for the blocked kernel.

    Non-positive (or non-integer) tiles would make the panel ``range``
    loops empty and silently leave ``out`` unwritten, so every entry
    point rejects them up front — a loud error, never garbage output.
    Tiles *larger* than the matrix are legal: slicing clamps them to the
    edge.
    """
    for name, value in (
        ("tile_m", tile_m), ("tile_n", tile_n), ("tile_k_words", tile_k_words)
    ):
        if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
            raise TypeError(f"{name} must be an integer, got {value!r}")
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")


def _check_operands(a: np.ndarray, b: np.ndarray, depth: int) -> None:
    if a.dtype != np.uint64 or b.dtype != np.uint64:
        raise TypeError(f"BGEMM operands must be uint64, got {a.dtype}/{b.dtype}")
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"BGEMM operands must be 2-D, got {a.ndim}-D/{b.ndim}-D")
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"word-count mismatch: {a.shape[1]} vs {b.shape[1]}")
    if depth <= 0 or depth > a.shape[1] * 64:
        raise ValueError(f"depth {depth} out of range for {a.shape[1]} words")


def bgemm_reference(a: np.ndarray, b: np.ndarray, depth: int) -> np.ndarray:
    """Scalar-loop BGEMM, the easy-to-audit gold standard.

    Args:
        a: ``(M, W)`` uint64 bitpacked left operand (e.g. im2col patches).
        b: ``(N, W)`` uint64 bitpacked right operand (e.g. filters).
        depth: true number of +/-1 elements per row (un-padded bit count).

    Returns:
        ``(M, N)`` int32 accumulators: the exact +/-1 dot products.
    """
    _check_operands(a, b, depth)
    m, _ = a.shape
    n, _ = b.shape
    out = np.empty((m, n), dtype=np.int32)
    for i in range(m):
        for j in range(n):
            xnor_pop = int(popcount(np.bitwise_xor(a[i], b[j])).sum())
            out[i, j] = depth - 2 * xnor_pop
    return out


def bgemm(a: np.ndarray, b: np.ndarray, depth: int) -> np.ndarray:
    """Vectorized BGEMM over full operand matrices.

    Builds the full ``(M, N, W)`` XOR temporary; prefer
    :func:`bgemm_blocked` when M*N is large.
    """
    _check_operands(a, b, depth)
    x = np.bitwise_xor(a[:, None, :], b[None, :, :])
    pops = popcount(x).sum(axis=-1, dtype=np.int32)
    return np.int32(depth) - np.int32(2) * pops


def _tile_into(
    a_panel: np.ndarray, b_panel: np.ndarray, depth: int, out_view: np.ndarray
) -> None:
    """One ``tile_m x tile_n`` output panel of the allocating reference:
    one full ``(mt, nt, words)`` XOR broadcast of the ``(mt, words)`` /
    ``(nt, words)`` panels, popcounts summed in int32."""
    x = np.bitwise_xor(a_panel[:, None, :], b_panel[None, :, :])
    pops = popcount(x).sum(axis=-1, dtype=np.int32)
    out_view[...] = np.int32(depth) - np.int32(2) * pops


def _acc_dtype(words: int) -> np.dtype:
    """The K-sum dtype of a ``words``-deep GEMM: ``uint16`` while the
    largest sum, ``words * 64``, fits it, else ``int32``."""
    return np.dtype(np.uint16 if words * 64 <= 0xFFFF else np.int32)


def _bind_tile(
    at: np.ndarray,
    bt: np.ndarray,
    out_view: np.ndarray,
    workspace: Workspace,
    prefix: str,
    k_block: int,
) -> tuple:
    """Pre-slice what one output panel's K loop touches (``at`` is
    ``(words, mt)``, ``bt`` ``(words, nt)``): per ``k_block`` word planes
    the two operand views, the ``{prefix}/xk`` block they XOR into and
    the rows of the count slab ``{prefix}/ck`` (``(words, mt, nt)``
    ``uint8``, one row per word) that block popcounts into, plus the
    ``{prefix}/pops_{dtype}`` accumulator — :func:`_run_tile` then only
    moves data.  The block's inner axis is the panel's longer side: when
    ``mt > nt`` the operands swap and the panel is written transposed."""
    words, mt = at.shape
    nt = bt.shape[1]
    if mt > nt:
        at, bt, out_view, mt, nt = bt, at, out_view.T, nt, mt
    a3, b3 = at[:, :, None], bt[:, None, :]
    acc = _acc_dtype(words)
    pops = workspace.take(f"{prefix}/pops_{acc.name}", (mt, nt), acc)
    xk = workspace.take(f"{prefix}/xk", (k_block, mt, nt), np.uint64)
    ck = workspace.take(f"{prefix}/ck", (words, mt, nt), np.uint8)
    steps = []
    for w0 in range(0, words, k_block):
        wb = min(k_block, words - w0)
        steps.append(
            (a3[w0 : w0 + wb], b3[w0 : w0 + wb], xk[:wb], ck[w0 : w0 + wb])
        )
    return steps, ck, pops, out_view


_MINUS_TWO = np.int32(-2)


def _run_tile(tile: tuple, depth: np.int32) -> None:
    """One bound panel (see :func:`_bind_tile`), entered and left under
    :data:`_UFUNC_BUFSIZE`: XOR and popcount every K step into the count
    slab, then sum K once under :data:`_REDUCE_BUFSIZE`."""
    steps, ck, pops, out_view = tile
    for a, b, xv, cv in steps:
        np.bitwise_xor(a, b, out=xv)
        np.bitwise_count(xv, out=cv)
    np.setbufsize(_REDUCE_BUFSIZE)
    np.add.reduce(ck, axis=0, dtype=pops.dtype, out=pops)
    # depth - 2*pop, widened to int32 once: pops * -2 + depth (exact).
    np.multiply(pops, _MINUS_TWO, out=out_view)
    np.add(out_view, depth, out=out_view)
    np.setbufsize(_UFUNC_BUFSIZE)


def _check_out(out: np.ndarray | None, m: int, n: int) -> np.ndarray:
    if out is None:
        return np.empty((m, n), dtype=np.int32)
    if out.shape != (m, n) or out.dtype != np.int32:
        raise ValueError(
            f"out must be int32 of shape {(m, n)}, got {out.dtype} {out.shape}"
        )
    return out


def pack_kmajor(src: np.ndarray, workspace: Workspace, name: str) -> np.ndarray:
    """Pack a ``(rows, words)`` operand K-major: one transposed copy into
    the arena buffer ``name``, returned as the ``(words, rows)`` array."""
    dst = workspace.take(name, src.shape[::-1], np.uint64)
    np.copyto(dst, src.T)
    return dst


def _k_depth(tile_k_words: int, mt: int, nt: int, words: int) -> int:
    """The K depth of an ``mt x nt`` panel: derived from its shape when
    ``tile_k_words == 1``, else the explicit value."""
    if tile_k_words == 1:
        return derive_k_block(mt, nt, words)
    return min(tile_k_words, words)


def derive_panel(
    m: int,
    n: int,
    words: int,
    tile_m: int = DEFAULT_CONFIG.tile_m,
    tile_n: int = DEFAULT_CONFIG.tile_n,
    tile_k_words: int = 1,
) -> tuple[int, int, int]:
    """Panel shape ``(tile_m, tile_n, k_block)`` for an ``(M, N, words)`` GEMM.

    The one place a binarized convolution's panel is decided: the bound
    kernel slices by it, :func:`bgemm_scratch_spec` sizes the arena by it.
    A GEMM of at most :data:`_WIDE_PANEL_ROWS` rows takes all ``N``
    columns in one panel: with so few rows the NumPy call, not the work,
    is the cost (4 x 256 x 36 words 62 -> 53 us, 1 x 512 x 72 words
    66 -> 40 us).  Otherwise the problem's longer side leads — it is the
    XOR block's contiguous axis, up to ``tile_m`` (256) patch rows or
    ``tile_n`` (512) filter columns — and the other side is at most
    :data:`_SHORT_SIDE`: 14^2 x 256 runs as (64, 256, 4), 7^2 x 512 as
    (49, 512, 2), 1.11-1.17x faster than 256 x 128 caps (interleaved;
    docs/architecture.md §6).  The K depth follows the panel unless
    ``tile_k_words`` names one; edge panels fit the same scratch.
    """
    if m <= _WIDE_PANEL_ROWS:
        mt, nt = min(tile_m, m), n
    elif m > n:
        mt, nt = min(tile_m, m), min(tile_n, n, _SHORT_SIDE)
    else:
        mt, nt = min(tile_m, m, _SHORT_SIDE), min(tile_n, n)
    return mt, nt, _k_depth(tile_k_words, mt, nt, words)


def _span_args(m: int, n: int, words: int, depth: int, k_block: int) -> dict:
    """Attributes of one ``kernel.bgemm`` span."""
    steps = -(-words // k_block)
    return dict(m=m, n=n, words=words, depth=depth, k_block=k_block, steps=steps)


def bind_kmajor(
    at: np.ndarray,
    bt: np.ndarray,
    depth: int,
    out: np.ndarray,
    workspace: Workspace,
    tile_m: int,
    tile_n: int,
    k_block: int,
    prefix: str = "bgemm",
) -> Callable[[], None]:
    """The K-major kernel bound to its operands: a no-argument callable
    that multiplies whatever ``at`` ``(W, M)`` and ``bt`` ``(W, N)`` hold
    into ``out`` ``(M, N)``, every panel's views sliced once, here.  Valid
    while ``at``, ``out`` and the ``{prefix}/*`` arena buffers are the live
    ones (:meth:`repro.core.workspace.Workspace.bound` rebinds)."""
    words, m = at.shape
    n = bt.shape[1]
    tiles = [
        _bind_tile(
            at[:, i0 : i0 + tile_m],
            bt[:, j0 : j0 + tile_n],
            out[i0 : i0 + tile_m, j0 : j0 + tile_n],
            workspace,
            prefix,
            k_block,
        )
        for i0 in range(0, m, tile_m)
        for j0 in range(0, n, tile_n)
    ]
    depth32 = np.int32(depth)
    span_args = _span_args(m, n, words, depth, k_block)

    def run() -> None:
        # Ambient tracing: an enabled tracer (installed by an enclosing
        # span) gets one kernel.bgemm record per call; disabled cost is one
        # thread-local read and two branches.
        tracer = active_tracer()
        t0 = time.perf_counter() if tracer.enabled else 0.0
        # errstate restores the caller's (per-thread) buffer size on exit,
        # an exception in either of a tile's two buffer phases included.
        with np.errstate():
            np.setbufsize(_UFUNC_BUFSIZE)
            for tile in tiles:
                _run_tile(tile, depth32)
        if tracer.enabled:
            tracer.record(
                "kernel.bgemm", t0, time.perf_counter() - t0, **span_args
            )

    return run


def bgemm_blocked(
    a: np.ndarray,
    b: np.ndarray,
    depth: int,
    tile_m: int = _TILE_M,
    tile_n: int = _TILE_N,
    out: np.ndarray | None = None,
    workspace: Workspace | None = None,
    prefix: str = "bgemm",
    tile_k_words: int = 1,
) -> np.ndarray:
    """Cache-tiled BGEMM mirroring Ruy-style panel blocking.

    Processes ``tile_m x tile_n`` output panels so the XOR temporary stays
    small regardless of problem size.  Bit-identical to :func:`bgemm` for
    any legal tiling — tiles larger than the matrix clamp to the edge and
    non-divisor tiles leave ragged edge panels; the per-tile arithmetic is
    exact integer arithmetic either way.  Tiles are used as given (:func:`derive_panel`
    is the binarized convolution's rule, not this function's).

    ``out`` (int32, ``(M, N)``) and ``workspace`` make the call
    allocation-free: accumulators land in ``out``, both operands are
    packed K-major into ``{prefix}/at|bt`` and the per-tile temporaries
    live in reused arena buffers named ``{prefix}/*`` (see
    :func:`_bind_tile`).  ``tile_k_words`` is the K depth of that path:
    ``1`` (what every caller passes) derives it from the panel shape via
    :func:`derive_k_block`, a larger value is used as given.  Without a
    workspace the call is the allocating reference and ignores it.
    """
    _check_operands(a, b, depth)
    _check_tiles(tile_m, tile_n, tile_k_words)
    m, words = a.shape
    n = b.shape[0]
    out = _check_out(out, m, n)
    if workspace is not None:
        return bgemm_kmajor(
            pack_kmajor(a, workspace, f"{prefix}/at"),
            pack_kmajor(b, workspace, f"{prefix}/bt"),
            depth, out, workspace, tile_m, tile_n, prefix, tile_k_words,
        )
    tracer = active_tracer()
    t0 = time.perf_counter() if tracer.enabled else 0.0
    for i0 in range(0, m, tile_m):
        for j0 in range(0, n, tile_n):
            _tile_into(
                a[i0 : i0 + tile_m],
                b[j0 : j0 + tile_n],
                depth,
                out[i0 : i0 + tile_m, j0 : j0 + tile_n],
            )
    if tracer.enabled:
        tracer.record(
            "kernel.bgemm", t0, time.perf_counter() - t0,
            **_span_args(m, n, words, depth, words),
        )
    return out


def bgemm_scratch_spec(
    m: int,
    n: int,
    words: int,
    tile_m: int = DEFAULT_CONFIG.tile_m,
    tile_n: int = DEFAULT_CONFIG.tile_n,
    prefix: str = "bgemm",
    tile_k_words: int = 1,
) -> list[tuple[str, int, np.dtype]]:
    """The ``(name, size, dtype)`` scratch reservations a BGEMM needs.

    The K-major patch buffer ``{prefix}/at`` plus the tile kernel's
    ``k_block``-deep XOR block ``{prefix}/xk``, its ``words``-deep count
    slab ``{prefix}/ck`` and its ``{prefix}/pops_{dtype}`` accumulator at
    the panel :func:`derive_panel` picks (what the binarized convolution
    runs).  Kernel factories feed this into
    :meth:`repro.core.workspace.Workspace.reserve` at plan-compile time
    so the arena is fully sized before the first inference.
    """
    _check_tiles(tile_m, tile_n, tile_k_words)
    mt, nt, kb = derive_panel(m, n, words, tile_m, tile_n, tile_k_words)
    acc = _acc_dtype(words)
    return [
        (f"{prefix}/at", words * m, np.dtype(np.uint64)),
        (f"{prefix}/xk", kb * mt * nt, np.dtype(np.uint64)),
        (f"{prefix}/ck", words * mt * nt, np.dtype(np.uint8)),
        (f"{prefix}/pops_{acc.name}", mt * nt, acc),
    ]


def bgemm_kmajor(
    at: np.ndarray,
    bt: np.ndarray,
    depth: int,
    out: np.ndarray,
    workspace: Workspace,
    tile_m: int = _TILE_M,
    tile_n: int = _TILE_N,
    prefix: str = "bgemm",
    tile_k_words: int = 1,
) -> np.ndarray:
    """The K-major BGEMM on operands already packed ``(W, M)`` / ``(W, N)``.

    Column slices of a wider K-major matrix are fine (the grouped
    convolution passes those); everything else is as in
    :func:`bgemm_blocked`, which is this call after packing both
    operands.  One :func:`bind_kmajor`, run once.
    """
    _check_operands(at.T, bt.T, depth)
    _check_tiles(tile_m, tile_n, tile_k_words)
    words, m = at.shape
    n = bt.shape[1]
    out = _check_out(out, m, n)
    k_block = _k_depth(tile_k_words, min(tile_m, m), min(tile_n, n), words)
    bind_kmajor(at, bt, depth, out, workspace, tile_m, tile_n, k_block, prefix)()
    return out
