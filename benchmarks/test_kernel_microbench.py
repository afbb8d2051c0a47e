"""Wall-clock micro-benchmarks of the NumPy kernels themselves.

These measure the *real* compute substrate (not the device model): even in
pure NumPy, the XOR-popcount BGEMM on bitpacked uint64 words beats a float
GEMM of the same logical shape, because it touches 32x less data.

``test_quicknet_plan_vs_dynamic`` additionally pits the plan-compiled hot
path (a ``BoundBConv2D`` bound once to a workspace arena, its float
epilogue included) against a replica of the historical dynamic-im2col path
(accumulators only) at QuickNet-small layer shapes, asserts the
steady-state speedup and the speedup the BGEMM's scoped ufunc buffer buys
over NumPy's default one, and writes ``BENCH_kernels.json`` at the repo root:
one machine-readable row per (op, shape) plus per-geometry dynamic/plan
timings.
"""

from __future__ import annotations

import importlib
import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.bconv2d import BConv2DParams, BoundBConv2D, pack_filters
from repro.core.bgemm import bgemm, bgemm_blocked
from repro.core.bitpack import pack_bits
from repro.core.bmaxpool import bmaxpool2d
from repro.core.im2col import conv_geometry
from repro.core.quantize_ops import lce_quantize
from repro.core.types import Padding
from repro.analysis.bench import validate_bench_kernels
from repro.core.workspace import Workspace
from repro.tune import ConvGeometryKey

#: the module (``repro.core.bgemm`` the attribute is the function it exports)
bgemm_mod = importlib.import_module("repro.core.bgemm")

#: a mid-sized GEMM: 784 pixels x 1152 depth x 128 filters
M, K, N = 784, 1152, 128


@pytest.fixture(scope="module")
def operands():
    rng = np.random.default_rng(0)
    a = rng.choice([-1.0, 1.0], (M, K)).astype(np.float32)
    b = rng.choice([-1.0, 1.0], (N, K)).astype(np.float32)
    return a, b, pack_bits(a).bits, pack_bits(b).bits


def test_float_gemm(benchmark, operands):
    a, b, _, _ = operands
    out = benchmark(lambda: a @ b.T)
    assert out.shape == (M, N)


def test_bgemm_vectorized(benchmark, operands):
    _, _, pa, pb = operands
    out = benchmark(bgemm, pa, pb, K)
    assert out.shape == (M, N)


def test_bgemm_blocked(benchmark, operands):
    _, _, pa, pb = operands
    out = benchmark(bgemm_blocked, pa, pb, K)
    assert out.shape == (M, N)


def test_bitpacking_rate(benchmark):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1, 56, 56, 256)).astype(np.float32)
    packed = benchmark(lce_quantize, x)
    assert packed.nbytes * 32 == x.nbytes


def test_binary_maxpool(benchmark):
    rng = np.random.default_rng(0)
    x = lce_quantize(rng.standard_normal((1, 56, 56, 256)).astype(np.float32))
    out = benchmark(bmaxpool2d, x, 2, 2)
    assert out.shape == (1, 28, 28, 256)


#: the four distinct binary 3x3/s1 layer shapes in converted QuickNet-small
QUICKNET_SMALL_SHAPES = [(56, 56, 32), (28, 28, 64), (14, 14, 256), (7, 7, 512)]

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_kernels.json"

#: minimum steady-state speedup of the plan path over the dynamic path,
#: aggregated over the QuickNet-small shapes: the lowest of five runs
#: (1.77-2.38 on a 2-core x86 host, NumPy 2.4) minus 10 %
SPEEDUP_FLOOR = 1.60

#: minimum aggregate speedup of the bound kernel under the BGEMM's scoped
#: ufunc buffer (``bgemm._UFUNC_BUFSIZE``) over the same kernel under
#: NumPy's default one, timed interleaved so the host's slow spells reach
#: both sides.  Six runs read 1.28-1.30 (same host) and a kernel that
#: drops the scope 1.00; floor = lowest - 10 %.  With K packed densely
#: six runs read 1.17-1.37 and the scope-less kernel still 1.00.  Since K
#: is summed once per tile under NumPy's default buffer, the scoped side
#: no longer runs a casting reduce per step under the narrow one: six runs
#: interleaved with a scope-less kernel read 1.62-1.66, that kernel
#: 0.97-1.03, so the floor is 1.62 - 10 %.
BUFFER_SPEEDUP_FLOOR = 1.45


def _dynamic_bconv2d(x, filters, params, in_h, in_w):
    """Replica of the pre-arena hot path: every call recomputes the gather
    geometry (meshgrid), stages a fresh ``np.pad`` copy, materializes a new
    patch matrix and lets the blocked BGEMM allocate its own temporaries.

    ``conv_geometry.__wrapped__`` bypasses the memo so the per-call cost is
    the historical one, not the post-optimization one.
    """
    kh, kw = params.kernel_h, params.kernel_w
    geom = conv_geometry.__wrapped__(in_h, in_w, kh, kw, 1, 1, params.padding)
    bits = x.bits
    n, _, _, words = bits.shape
    padded = np.pad(
        bits,
        ((0, 0), (geom.pad_top, geom.pad_bottom),
         (geom.pad_left, geom.pad_right), (0, 0)),
        constant_values=0,
    )
    oy, ox = np.meshgrid(np.arange(geom.out_h), np.arange(geom.out_w), indexing="ij")
    ky, kx = np.meshgrid(np.arange(kh), np.arange(kw), indexing="ij")
    rows = oy.reshape(-1, 1) + ky.reshape(1, -1)
    cols = ox.reshape(-1, 1) + kx.reshape(1, -1)
    patches = padded[:, rows, cols, :]
    patches = patches.reshape(n * geom.out_h * geom.out_w, kh * kw * words)
    return bgemm_blocked(patches, filters.bits, params.depth)


def _plan_bconv2d(run, x):
    """The steady-state plan path: one call of a bound kernel
    (``BoundBConv2D(...).bind(workspace)``) — strided im2col into the
    K-major slab, bound BGEMM, in-place float epilogue, all in one arena."""
    return run(x)


def _best_of(fn, repeats=7):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _best_of_scoped_and_default(fn, seconds=1.0):
    """Best times of ``fn`` under the BGEMM's scoped ufunc buffer and under
    NumPy's default one.  Calls alternate for ``seconds``: the host's slow
    spells (seconds long; they slow the scoped kernel most) then reach
    both sides, and each best comes from a quiet moment."""
    scoped = bgemm_mod._UFUNC_BUFSIZE
    best = {scoped: float("inf"), np.getbufsize(): float("inf")}
    deadline = time.perf_counter() + seconds
    try:
        while time.perf_counter() < deadline:
            for size in best:
                bgemm_mod._UFUNC_BUFSIZE = size
                start = time.perf_counter()
                fn()
                best[size] = min(best[size], time.perf_counter() - start)
    finally:
        bgemm_mod._UFUNC_BUFSIZE = scoped
    return tuple(best.values())


def test_quicknet_plan_vs_dynamic(benchmark):
    rng = np.random.default_rng(7)
    records = []
    geo_records = []
    metrics = {}
    dynamic_total = plan_total = scoped_total = default_total = 0.0
    for h, w, c in QUICKNET_SMALL_SHAPES:
        x = lce_quantize(rng.standard_normal((1, h, w, c)).astype(np.float32))
        wts = pack_filters(rng.choice([-1.0, 1.0], (3, 3, c, c)).astype(np.float32))
        params = BConv2DParams(3, 3, c, c, padding=Padding.SAME_ONE)
        ws = Workspace()
        run = BoundBConv2D(wts, params, h, w, 1).bind(ws)

        geometry = ConvGeometryKey(
            batch=1, in_h=h, in_w=w, in_channels=c, out_channels=c,
            kernel_h=3, kernel_w=3,
        )

        dynamic = _dynamic_bconv2d(x, wts, params, h, w)
        plan = _plan_bconv2d(run, x)
        assert np.array_equal(
            plan.reshape(dynamic.shape), dynamic.astype(np.float32)
        ), "plan path must stay bit-exact"

        t_dynamic = _best_of(lambda: _dynamic_bconv2d(x, wts, params, h, w))
        t_plan = _best_of(lambda: _plan_bconv2d(run, x))
        t_scoped, t_default = _best_of_scoped_and_default(
            lambda: _plan_bconv2d(run, x)
        )
        # what the timed plan path reserved, read after its last call
        metrics[f"workspace.bytes_reserved.{h}x{w}x{c}"] = ws.nbytes
        dynamic_total += t_dynamic
        plan_total += t_plan
        scoped_total += t_scoped
        default_total += t_default
        macs = dynamic.shape[0] * params.out_channels * params.depth
        shape = f"1x{h}x{w}x{c} k3 s1 same_one"
        for op, t in (("dynamic_bconv2d", t_dynamic), ("plan_bconv2d", t_plan)):
            records.append({
                "op": op,
                "shape": shape,
                "ns_per_call": round(t * 1e9, 1),
                "macs_per_s": round(macs / t, 1),
            })
        geo_records.append({
            "shape": shape,
            "geometry": geometry.key,
            "dynamic_ns": round(t_dynamic * 1e9, 1),
            "plan_ns": round(t_plan * 1e9, 1),
            "speedup_plan": round(t_dynamic / t_plan, 3),
        })

    speedup = dynamic_total / plan_total
    buffer_speedup = default_total / scoped_total
    bench = {
        "suite": "kernel_microbench",
        "quicknet_small_speedup": round(speedup, 3),
        "speedup_floor": SPEEDUP_FLOOR,
        "scoped_buffer_speedup": round(buffer_speedup, 3),
        "scoped_buffer_floor": BUFFER_SPEEDUP_FLOOR,
        # Reached only after every per-shape bit-exactness assert above
        # passed: the timed plan path provably computes the same values.
        "verified": True,
        # The scratch arena each timed plan path ran in, so the perf
        # history records the memory behind the numbers.
        "metrics": metrics,
        "kernels": records,
        "geometries": geo_records,
    }
    assert validate_bench_kernels(bench) == []
    BENCH_JSON.write_text(json.dumps(bench, indent=2) + "\n")

    # Surface the steady-state plan path in the pytest-benchmark table too
    # (the deepest shape: the loop's last iteration).
    benchmark.pedantic(_plan_bconv2d, args=(run, x), rounds=3, iterations=3)
    assert speedup >= SPEEDUP_FLOOR, (
        f"plan path only {speedup:.2f}x over dynamic im2col "
        f"(floor {SPEEDUP_FLOOR}x); see {BENCH_JSON.name}"
    )
    assert buffer_speedup >= BUFFER_SPEEDUP_FLOOR, (
        f"plan path only {buffer_speedup:.2f}x over itself under NumPy's "
        f"default ufunc buffer (floor {BUFFER_SPEEDUP_FLOOR}x); "
        f"see {BENCH_JSON.name}"
    )
