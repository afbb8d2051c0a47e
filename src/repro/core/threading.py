"""Multi-threaded BGEMM.

The paper notes that LCE inherits multi-threaded inference from the
TensorFlow Lite / Ruy infrastructure, while stand-alone engines like DaBNN
do not support it.  This module provides the real thing for our NumPy
kernels: the blocked BGEMM's row panels are independent, and NumPy's
bitwise kernels release the GIL, so a thread pool over M-tiles gives
genuine parallel speedup on multi-core hosts.

Workspace interaction: worker threads must not grow shared buffers, so
tiles are assigned round-robin to a fixed number of *slots* and each slot
owns private scratch buffers named ``{prefix}/{slot}/*``.  The calling
thread packs the operands K-major (``{prefix}/at`` is shared and only
read after the fork) and pre-touches every slot's buffers at full tile
size before dispatching, after which workers only ever read the
workspace's buffer dict — no locking, no reallocation, and disjoint
scratch per worker.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING

import numpy as np

from repro.core.bgemm import (
    _TILE_M,
    _TILE_N,
    _blocked,
    _check_operands,
    _check_out,
    _check_tiles,
    _k_block,
    _row_tiles,
    pack_kmajor,
)
from repro.obs.trace import active_tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.workspace import Workspace


def _num_slots(m: int, tile_m: int, num_threads: int) -> int:
    """How many scratch slots a parallel BGEMM over ``m`` rows uses."""
    return min(num_threads, -(-m // tile_m))


def bgemm_scratch_spec(
    m: int,
    n: int,
    words: int,
    num_threads: int = 1,
    tile_m: int = _TILE_M,
    tile_n: int = _TILE_N,
    prefix: str = "bgemm",
    tile_k_words: int = 1,
) -> list[tuple[str, int, np.dtype]]:
    """The ``(name, size, dtype)`` scratch reservations a BGEMM call needs.

    Mirrors the dispatch in :func:`bgemm_kmajor`: one shared K-major
    patch buffer ``{prefix}/at``, plus the tile kernel's ``xk|ck|ksum|out``
    — unslotted for single-threaded (or single-row-tile) calls, one
    ``{prefix}/{slot}/*`` set per slot otherwise — with the XOR/popcount
    blocks sized by the same K depth the call will use.  Kernel factories
    feed this into :meth:`repro.core.workspace.WorkspacePool.reserve` at
    plan-compile time so the arena is fully sized before the first
    inference.
    """
    _check_tiles(tile_m, tile_n, tile_k_words)
    if num_threads == 1 or m <= tile_m:
        prefixes = [prefix]
    else:
        slots = _num_slots(m, tile_m, num_threads)
        prefixes = [f"{prefix}/{slot}" for slot in range(slots)]
    kb = _k_block(tile_k_words, tile_m, tile_n, m, n, words)
    return [
        (f"{prefix}/at", words * m, np.dtype(np.uint64)),
        *_tile_scratch(prefixes, min(tile_m, m), min(tile_n, n), kb),
    ]


def _tile_scratch(
    prefixes: list[str], mt: int, nt: int, k_block: int
) -> list[tuple[str, int, np.dtype]]:
    """What :func:`repro.core.bgemm._tile_into` takes under each prefix."""
    spec: list[tuple[str, int, np.dtype]] = []
    for p in prefixes:
        spec.append((f"{p}/xk", k_block * mt * nt, np.dtype(np.uint64)))
        spec.append((f"{p}/ck", k_block * mt * nt, np.dtype(np.uint8)))
        spec.append((f"{p}/ksum", mt * nt, np.dtype(np.int32)))
        spec.append((f"{p}/out", mt * nt, np.dtype(np.int32)))
    return spec


def _check_threads(num_threads: int) -> None:
    if num_threads <= 0:
        raise ValueError(f"num_threads must be positive, got {num_threads}")


def _parallel(
    a: np.ndarray,
    b: np.ndarray,
    depth: int,
    out: np.ndarray,
    num_threads: int,
    tile_m: int,
    tile_n: int,
    workspace: Workspace | None,
    prefix: str,
    tile_k_words: int,
) -> np.ndarray:
    """Row tiles of checked ``(M, W)`` / ``(N, W)`` operands over a pool.

    With a workspace the operands are transposed views of K-major storage
    (already packed by the calling thread) and ``tile_k_words`` resolves
    to the K depth; without one this is the allocating reference.
    """
    m, words = a.shape
    n = b.shape[0]
    k_block = words
    if workspace is not None:
        k_block = _k_block(tile_k_words, tile_m, tile_n, m, n, words)
    if num_threads == 1 or m <= tile_m:
        return _blocked(
            a, b, depth, out, tile_m, tile_n, workspace, prefix, k_block
        )
    tiles = range(0, m, tile_m)
    slots = _num_slots(m, tile_m, num_threads)
    if workspace is not None:
        # Pre-touch every slot's scratch from this thread (a no-op on a
        # plan's reserved arena) so workers never grow the buffer dict.
        for name, size, dtype in _tile_scratch(
            [f"{prefix}/{slot}" for slot in range(slots)],
            min(tile_m, m), min(tile_n, n), k_block,
        ):
            workspace.reserve(name, size, dtype)

    def worker(slot: int) -> None:
        _row_tiles(
            tiles[slot::slots], a, b, depth, out, tile_m, tile_n,
            workspace, f"{prefix}/{slot}", k_block,
        )

    # The span covers dispatch + all workers; recorded from the calling
    # thread (workers have no ambient tracer), threads = scratch slots.
    tracer = active_tracer()
    t0 = time.perf_counter() if tracer.enabled else 0.0
    with ThreadPoolExecutor(max_workers=slots) as pool:
        list(pool.map(worker, range(slots)))
    if tracer.enabled:
        tracer.record(
            "kernel.bgemm",
            t0,
            time.perf_counter() - t0,
            m=m,
            n=n,
            words=words,
            depth=depth,
            threads=slots,
            k_block=k_block,
            steps=-(-words // k_block),
        )
    return out


def bgemm_parallel(
    a: np.ndarray,
    b: np.ndarray,
    depth: int,
    num_threads: int = 2,
    tile_m: int = _TILE_M,
    tile_n: int = _TILE_N,
    out: np.ndarray | None = None,
    workspace: Workspace | None = None,
    prefix: str = "bgemm",
    tile_k_words: int = 1,
) -> np.ndarray:
    """Blocked BGEMM with row panels distributed over a thread pool.

    Bit-identical to :func:`repro.core.bgemm.bgemm_blocked`; panels write
    disjoint output rows so no synchronization is needed, and tile-to-slot
    assignment cannot affect results.  ``out``/``workspace``/
    ``tile_k_words`` behave as in ``bgemm_blocked`` with per-slot scratch
    (see module docstring).
    """
    _check_operands(a, b, depth)
    # Validate tiles before the dispatch below: a non-positive tile_n would
    # make every worker's panel range empty and return uninitialized output.
    _check_tiles(tile_m, tile_n, tile_k_words)
    _check_threads(num_threads)
    out = _check_out(out, a.shape[0], b.shape[0])
    if workspace is not None:
        a = pack_kmajor(a, workspace, f"{prefix}/at").T
        b = pack_kmajor(b, workspace, f"{prefix}/bt").T
    return _parallel(
        a, b, depth, out, num_threads, tile_m, tile_n,
        workspace, prefix, tile_k_words,
    )


def bgemm_kmajor(
    at: np.ndarray,
    bt: np.ndarray,
    depth: int,
    out: np.ndarray,
    workspace: Workspace,
    num_threads: int = 1,
    tile_m: int = _TILE_M,
    tile_n: int = _TILE_N,
    prefix: str = "bgemm",
    tile_k_words: int = 1,
) -> np.ndarray:
    """The plan-path BGEMM on operands already packed K-major.

    ``at`` is ``(W, M)`` and ``bt`` is ``(W, N)`` (column slices of a wider
    K-major matrix are fine — the grouped convolution passes those);
    everything else is as in :func:`bgemm_parallel`, which is this call
    after packing both operands.  ``bconv2d`` calls it directly with the
    filters packed once at plan-compile time.
    """
    a, b = at.T, bt.T
    _check_operands(a, b, depth)
    _check_tiles(tile_m, tile_n, tile_k_words)
    _check_threads(num_threads)
    out = _check_out(out, a.shape[0], b.shape[0])
    return _parallel(
        a, b, depth, out, num_threads, tile_m, tile_n,
        workspace, prefix, tile_k_words,
    )
