"""Kernel measurement for the binarized hot path.

:func:`measure_config` times one ``bconv2d`` workload for one
:class:`~repro.tune.geometry.ConvGeometryKey` under one
:class:`~repro.core.kernel_config.KernelConfig`.  The harness follows the
:mod:`repro.hw.calibrate` conventions: seeded input data (one justified
entropy boundary), a discarded warm-up repeat, the median across recorded
repeats, and all wall-clock reads confined to this function — the kernels
themselves stay deterministic and timer-free.
"""

from __future__ import annotations

import functools
import time
from typing import Callable

import numpy as np

from repro.core.bconv2d import (
    BConv2DParams,
    BoundBConv2D,
    bconv2d,
    pack_filters,
    reserve_bconv2d_workspace,
)
from repro.core.bitpack import pack_bits
from repro.core.kernel_config import KernelConfig
from repro.core.types import Padding
from repro.core.workspace import Workspace
from repro.tune.geometry import ConvGeometryKey


def _workload(geometry: ConvGeometryKey):
    """Build one geometry's seeded microbench workload.

    Returns ``(x, filters, params)`` — the packed input, packed filters and
    static parameters.
    """
    g = geometry
    rng = np.random.default_rng(0)  # repro: allow[L104] seeded input-data entropy at the measurement boundary
    x_dense = rng.choice(np.float32([-1.0, 1.0]), size=(g.batch, g.in_h, g.in_w, g.in_channels))
    weights = rng.choice(
        np.float32([-1.0, 1.0]),
        size=(g.kernel_h, g.kernel_w, g.in_channels // g.groups, g.out_channels),
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
    return pack_bits(x_dense), pack_filters(weights), params


def measure_config(
    geometry: ConvGeometryKey,
    config: KernelConfig,
    repeats: int = 5,
    timer: Callable[[], float] = time.perf_counter,
) -> float:
    """Median microseconds for one ``(geometry, config)`` point.

    Runs ``repeats + 1`` times (a ``groups == 1`` kernel against a
    config-reserved workspace) and discards the first repeat (arena
    placement, cache warm-up), exactly like the calibration recorder.  The
    monotonic ``timer`` reads are the only clock — nothing inside the
    measured call tells time.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be positive, got {repeats}")
    x, filters, params = _workload(geometry)
    if params.groups == 1:
        # What a compiled plan runs: the kernel built and bound once, rerun.
        ws = Workspace()
        reserve_bconv2d_workspace(
            ws, params, geometry.in_h, geometry.in_w, geometry.batch, config=config
        )
        call = functools.partial(
            BoundBConv2D(
                filters, params, geometry.in_h, geometry.in_w, geometry.batch,
                config=config,
            ).bind(ws),
            x,
        )
    else:
        # Grouped: the float reference, as in a plan (no schedule).
        call = functools.partial(bconv2d, x, filters, params)
    times_us: list[float] = []
    for rep in range(repeats + 1):
        t0 = timer()
        call()
        elapsed = timer() - t0
        if rep == 0:
            continue  # warm-up: first call pays first-touch of the arena
        times_us.append(elapsed * 1e6)
    return float(np.median(times_us))
