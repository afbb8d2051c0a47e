"""Measured schedule search over the binarized hot path.

One :func:`tune_geometry` call microbenchmarks a bounded grid of
:class:`~repro.core.kernel_config.KernelConfig` candidates for one
:class:`~repro.tune.geometry.ConvGeometryKey` and returns the measured
winner as a :class:`~repro.tune.cache.TuningEntry`.  The harness follows
the :mod:`repro.hw.calibrate` conventions: seeded input data (one
justified entropy boundary), a discarded warm-up repeat, the median
across recorded repeats, and all wall-clock reads confined to the tuner —
the kernels themselves stay deterministic and timer-free.

:data:`~repro.core.kernel_config.DEFAULT_CONFIG` is always in the
candidate set, so on a noisy host the search can never do worse than
report the default with a ~1.0 speedup — a tuned artifact only steers a
plan away from the default when the default measurably lost.
"""

from __future__ import annotations

import time
from typing import Callable, Sequence

import numpy as np

from repro.core.bconv2d import (
    BConv2DParams,
    bconv2d,
    pack_filters,
    reserve_bconv2d_workspace,
    zero_padding_correction,
)
from repro.core.bitpack import pack_bits
from repro.core.kernel_config import DEFAULT_CONFIG, KernelConfig
from repro.core.types import Padding
from repro.core.workspace import Workspace
from repro.tune.cache import TuningCache, TuningEntry
from repro.tune.geometry import ConvGeometryKey

#: tile grids the search draws from (filtered per geometry)
_TILE_M_GRID = (128, 256, 512, 1024)
_TILE_N_GRID = (64, 128, 256, 512)


def candidate_configs(
    geometry: ConvGeometryKey,
    num_threads: int = 1,
    max_candidates: int | None = None,
) -> list[KernelConfig]:
    """The bounded candidate grid for one geometry, default first.

    Tile candidates larger than twice the matrix extent are pruned (they
    collapse to the same single-tile schedule).  The K depth is not
    searched: every candidate keeps ``tile_k_words == 1``, which lets the
    kernel derive it from the panel shape
    (:func:`repro.core.bgemm.derive_k_block`) — so it follows each
    candidate's tiles.  Caches that carry an explicit ``tile_k_words > 1``
    still load and are honoured as that depth.
    """
    m = geometry.bgemm_m
    n = geometry.out_channels
    tms = [t for t in _TILE_M_GRID if t < 2 * m] or [_TILE_M_GRID[0]]
    tns = [t for t in _TILE_N_GRID if t < 2 * n] or [_TILE_N_GRID[0]]
    grains = [1, 2] if num_threads > 1 else [1]
    configs: list[KernelConfig] = [DEFAULT_CONFIG]
    for im2col in ("indirect", "direct"):
        for tm in tms:
            for tn in tns:
                for grain in grains:
                    cfg = KernelConfig(
                        tile_m=tm, tile_n=tn, im2col=im2col, thread_grain=grain
                    )
                    if cfg not in configs:
                        configs.append(cfg)
    if max_candidates is not None and max_candidates >= 1:
        configs = configs[:max_candidates]
        if DEFAULT_CONFIG not in configs:
            configs.insert(0, DEFAULT_CONFIG)
    return configs


def _workload(geometry: ConvGeometryKey, seed: int):
    """Build one geometry's seeded microbench workload.

    Returns ``(x, filters, params, correction)`` — the packed input,
    packed filters, static parameters and (for SAME_ZERO geometries) the
    padding correction shared by every candidate measurement.
    """
    g = geometry
    rng = np.random.default_rng(seed)  # repro: allow[L104] seeded input-data entropy at the tuner boundary
    x_dense = rng.choice(np.float32([-1.0, 1.0]), size=(g.batch, g.in_h, g.in_w, g.in_channels))
    weights = rng.choice(
        np.float32([-1.0, 1.0]),
        size=(g.kernel_h, g.kernel_w, g.in_channels, g.out_channels),
    )
    params = BConv2DParams(
        kernel_h=g.kernel_h,
        kernel_w=g.kernel_w,
        in_channels=g.in_channels,
        out_channels=g.out_channels,
        stride=g.stride,
        dilation=g.dilation,
        padding=Padding(g.padding),
        groups=g.groups,
    )
    correction = None
    if params.padding is Padding.SAME_ZERO:
        correction = zero_padding_correction(weights, params, g.in_h, g.in_w)
    return pack_bits(x_dense), pack_filters(weights), params, correction


def measure_config(
    geometry: ConvGeometryKey,
    config: KernelConfig,
    repeats: int = 5,
    num_threads: int = 1,
    seed: int = 0,
    timer: Callable[[], float] = time.perf_counter,
) -> float:
    """Median microseconds for one ``(geometry, config)`` point.

    Runs ``repeats + 1`` times against a config-reserved workspace and
    discards the first repeat (arena placement, cache warm-up), exactly
    like the calibration recorder.  The monotonic ``timer`` reads are the
    tuner's only clock — nothing inside the measured call tells time.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be positive, got {repeats}")
    x, filters, params, correction = _workload(geometry, seed)
    ws = Workspace()
    reserve_bconv2d_workspace(
        ws, params, geometry.in_h, geometry.in_w, geometry.batch,
        num_threads=num_threads, config=config,
    )
    times_us: list[float] = []
    for rep in range(repeats + 1):
        t0 = timer()
        bconv2d(
            x, filters, params,
            padding_correction=correction,
            num_threads=num_threads,
            workspace=ws,
            config=config,
        )
        elapsed = timer() - t0
        if rep == 0:
            continue  # warm-up: first call pays arena + indirection setup
        times_us.append(elapsed * 1e6)
    return float(np.median(times_us))


#: minimum measured gain (fraction of the default's time) a non-default
#: candidate must show before the search adopts it.  Marginal wins at
#: microsecond scales are timing noise; they fail to reproduce and would
#: steer plans for nothing, so near-ties resolve to the default schedule.
MIN_GAIN = 0.10


def tune_geometry(
    geometry: ConvGeometryKey,
    device_profile_id: str = "default",
    repeats: int = 5,
    num_threads: int = 1,
    max_candidates: int | None = None,
    seed: int = 0,
    min_gain: float = MIN_GAIN,
) -> TuningEntry:
    """Search the candidate grid for one geometry's measured-best config.

    A non-default winner is kept only when it beats the default by more
    than ``min_gain`` — otherwise the entry records the default schedule
    (which is bit-identical and guaranteed not to regress).
    """
    if not 0.0 <= min_gain < 1.0:
        raise ValueError(f"min_gain must be in [0, 1), got {min_gain}")
    configs = candidate_configs(geometry, num_threads, max_candidates)
    best_config = DEFAULT_CONFIG
    best_us = default_us = float("inf")
    for config in configs:
        us = measure_config(
            geometry, config, repeats=repeats, num_threads=num_threads,
            seed=seed,
        )
        if config == DEFAULT_CONFIG:
            default_us = us
        if us < best_us:
            best_us, best_config = us, config
    if best_config != DEFAULT_CONFIG and best_us > default_us * (1.0 - min_gain):
        best_config, best_us = DEFAULT_CONFIG, default_us
    return TuningEntry(
        geometry=geometry,
        device_profile_id=device_profile_id,
        config=best_config,
        best_us=best_us,
        default_us=default_us,
        candidates=len(configs),
        repeats=repeats,
    )


def tune_geometries(
    geometries: Sequence[ConvGeometryKey],
    name: str = "tuned",
    device_profile_id: str = "default",
    repeats: int = 5,
    num_threads: int = 1,
    max_candidates: int | None = None,
    seed: int = 0,
    min_gain: float = MIN_GAIN,
    progress: Callable[[str], None] | None = None,
) -> TuningCache:
    """Tune every geometry and collect the winners into a cache."""
    cache = TuningCache(name=name)
    for geometry in geometries:
        entry = tune_geometry(
            geometry, device_profile_id, repeats=repeats,
            num_threads=num_threads, max_candidates=max_candidates, seed=seed,
            min_gain=min_gain,
        )
        cache = cache.with_entry(entry)
        if progress is not None:
            progress(
                f"{geometry.key}: best {entry.best_us:.0f}us "
                f"default {entry.default_us:.0f}us "
                f"(x{entry.speedup:.2f}, {entry.candidates} candidates)"
            )
    return cache
