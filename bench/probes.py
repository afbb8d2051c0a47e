"""Stand-alone layer probes: each times calls into one layer's public functions.

The traced run shows where a request's time went; these show what each
layer costs on its own, at the workload's input size and batch factor,
so a later change to one layer has a number of its own to move.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter
from typing import Any, Callable

import numpy as np

from repro import tune
from repro.converter import convert
from repro.core import (
    BConv2DParams,
    Workspace,
    bgemm_blocked,
    get_indirection,
    im2col_indirect,
    pack_bits,
    pack_filters,
    reserve_bconv2d_workspace,
)
from repro.core.indirection import im2col_direct
from repro.core.types import Padding
from repro.graph import Executor
from repro.runtime import Engine, ParamCache, compile_plan
from repro.runtime.rebatch import rebatched_specs
from repro.zoo import build_model

from bench.workloads import MODEL


def median_ms(call: Callable[[], Any], budget_s: float, min_reps: int = 3) -> float:
    """Median wall time of ``call`` in ms: one discarded warm-up, then as
    many repeats as ``budget_s`` allows (at least ``min_reps``)."""
    call()
    times = []
    deadline = time.perf_counter() + budget_s
    while len(times) < min_reps or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
        if len(times) >= 200:
            break
    return statistics.median(times) * 1e3


def setup_stages(input_size: int, batch_factor: int, x: np.ndarray) -> dict[str, float]:
    """What ``setup_s`` is made of: build, convert, compile, first run."""
    t0 = time.perf_counter()
    graph = build_model(MODEL, input_size=input_size)
    t1 = time.perf_counter()
    model = convert(graph)
    t2 = time.perf_counter()
    plan = compile_plan(
        model.graph, batch_factor=batch_factor, num_threads=1, cache=ParamCache()
    )
    t3 = time.perf_counter()
    plan.execute((x,))
    t4 = time.perf_counter()
    return {
        "zoo.build_s": t1 - t0,
        "converter.convert_s": t2 - t1,
        "converter.nodes": float(len(model.graph.nodes)),
        "runtime.compile_plan_s": t3 - t2,
        "runtime.first_run_s": t4 - t3,
    }


def engine_vs_executor(model: Any, x1: np.ndarray, budget_s: float) -> dict[str, float]:
    """Reference ``Executor.run`` against ``Engine.run``, both at batch 1."""
    executor = Executor(model.graph)
    executor_ms = median_ms(lambda: executor.run(x1), budget_s / 2)
    with Engine(model, num_threads=1) as engine:
        engine_ms = median_ms(lambda: engine.run(x1), budget_s / 2)
    return {
        "graph.executor_run_ms": executor_ms,
        "runtime.engine_vs_executor": executor_ms / engine_ms,
    }


def coalesce_cost(model: Any, xs: list[np.ndarray], budget_s: float) -> float:
    """``run_many`` of eight requests minus ``run`` of the same eight pre-batched."""
    batched = np.concatenate(xs, axis=0)
    with Engine(model, num_threads=1, max_batch_size=len(xs)) as engine:
        many_ms = median_ms(lambda: engine.run_many(xs), budget_s / 2, min_reps=2)
        one_ms = median_ms(lambda: engine.run(batched), budget_s / 2, min_reps=2)
    return many_ms - one_ms


def peak_gmacs_per_s(budget_s: float) -> float:
    """This host's raw binary MAC rate: xor + popcount + reduce over uint64.

    64 K words per operand (512 KiB, cache resident); every word is 64 MACs.
    """
    rng = np.random.default_rng(0)
    words = 1 << 16
    a = rng.integers(0, 1 << 63, size=words, dtype=np.uint64)
    b = rng.integers(0, 1 << 63, size=words, dtype=np.uint64)
    x = np.empty_like(a)
    c = np.empty(words, np.uint8)

    def kernel() -> int:
        np.bitwise_xor(a, b, out=x)
        np.bitwise_count(x, out=c)
        return int(c.sum(dtype=np.int64))

    ms = median_ms(kernel, budget_s, min_reps=20)
    return words * 64 / (ms * 1e-3) / 1e9


def _kernel_split(geom: tune.ConvGeometryKey, budget_s: float) -> tuple[float, float]:
    """(im2col ms, bgemm ms) for one geometry under the default schedule."""
    config = tune.DEFAULT_CONFIG
    rng = np.random.default_rng(0)
    signs = np.float32([-1.0, 1.0])
    x_shape = (geom.batch, geom.in_h, geom.in_w, geom.in_channels)
    w_shape = (geom.kernel_h, geom.kernel_w, geom.in_channels, geom.out_channels)
    x = pack_bits(rng.choice(signs, size=x_shape))
    filters = pack_filters(rng.choice(signs, size=w_shape))
    params = BConv2DParams(
        kernel_h=geom.kernel_h, kernel_w=geom.kernel_w,
        in_channels=geom.in_channels, out_channels=geom.out_channels,
        stride=geom.stride, dilation=geom.dilation,
        padding=Padding(geom.padding), groups=geom.groups,
    )
    ws = Workspace()
    reserve_bconv2d_workspace(ws, params, geom.in_h, geom.in_w, geom.batch, config=config)
    ind = get_indirection(
        geom.in_h, geom.in_w, geom.kernel_h, geom.kernel_w,
        geom.stride, geom.dilation, params.padding,
    )
    im2col = im2col_direct if config.im2col == "direct" else im2col_indirect
    im2col_ms = median_ms(lambda: im2col(x, ind, ws), budget_s / 2)
    patches = im2col(x, ind, ws)
    acc = np.empty((patches.shape[0], geom.out_channels), np.int32)
    bgemm_ms = median_ms(
        lambda: bgemm_blocked(
            patches, filters.bits, params.depth,
            tile_m=config.tile_m, tile_n=config.tile_n, out=acc, workspace=ws,
            tile_k_words=config.tile_k_words,
        ),
        budget_s / 2,
    )
    return im2col_ms, bgemm_ms


def core_kernels(graph: Any, batch_factor: int, budget_s: float) -> dict[str, float]:
    """The binarized-conv kernels on their own, summed over the model.

    Each unique geometry is measured once (``tune.measure_config`` under
    ``DEFAULT_CONFIG``) and weighted by how often the model repeats it.
    ``core.im2col_mb`` is computed from tensor sizes, not measured.
    """
    specs = rebatched_specs(graph, batch_factor)
    occurrences = Counter(
        tune.node_geometry(node, specs).key
        for node in graph.nodes
        if node.op == "lce_bconv2d"
    )
    geoms = tune.graph_geometries(graph, batch_factor)
    per_geom = budget_s / (2 * max(1, len(geoms)))
    bconv_ms = im2col_ms = bgemm_ms = 0.0
    macs = 0
    patch_bytes = 0
    for geom in geoms:
        count = occurrences[geom.key]
        if geom.groups == 1:
            i_ms, g_ms = _kernel_split(geom, per_geom)
            im2col_ms += i_ms * count
            bgemm_ms += g_ms * count
        repeats = 5 if per_geom > 0.05 else 2
        bconv_us = tune.measure_config(geom, tune.DEFAULT_CONFIG, repeats=repeats)
        bconv_ms += bconv_us / 1e3 * count
        macs += geom.macs * count
        patch_bytes += geom.bgemm_m * geom.bgemm_words * 8 * count
    peak = peak_gmacs_per_s(min(0.3, budget_s / 4))
    achieved = macs / (bconv_ms * 1e-3) / 1e9 if bconv_ms else 0.0
    return {
        "core.bconv2d_ms": bconv_ms,
        "core.im2col_ms": im2col_ms,
        "core.bgemm_ms": bgemm_ms,
        "core.geometries": float(len(geoms)),
        "core.binary_macs": float(macs // batch_factor),
        "core.im2col_mb": patch_bytes / 1e6,
        "core.binary_gmacs_per_s": achieved,
        "core.peak_fraction": achieved / peak if peak else 0.0,
    }
