"""Geometry keys and kernel measurement for the binarized hot path.

The kernel schedule is fixed — every plan runs
:data:`~repro.core.kernel_config.DEFAULT_CONFIG` — so what remains here
is what measuring that schedule needs:

- :mod:`repro.tune.geometry` keys each binarized convolution workload;
- :func:`repro.tune.search.measure_config` times one geometry under one
  :class:`~repro.core.kernel_config.KernelConfig`.

The config type itself lives in :mod:`repro.core.kernel_config` so the
kernels never import this package; it is re-exported here.
"""

from repro.core.kernel_config import DEFAULT_CONFIG, KernelConfig
from repro.tune.geometry import (
    ConvGeometryKey,
    graph_geometries,
    node_geometry,
)
from repro.tune.search import measure_config

__all__ = [
    "DEFAULT_CONFIG",
    "KernelConfig",
    "ConvGeometryKey",
    "graph_geometries",
    "node_geometry",
    "measure_config",
]
