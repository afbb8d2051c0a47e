"""Operation-level profiling (the LCE profiler the paper uses in Section 5).

- :mod:`repro.profiling.profiler` — per-node latency profiles combining the
  device model's estimates with (optionally) measured wall-clock times from
  the executor.
- :mod:`repro.profiling.breakdown` — aggregations: per-op-class shares
  (Table 4) and per-layer stacks split binary/full-precision (Figure 5).
"""

from repro.profiling.breakdown import (
    OpClassShare,
    layer_stacks,
    op_class_shares,
    quicknet_table4_rows,
)
from repro.profiling.profiler import NodeProfile, profile_graph

__all__ = [
    "NodeProfile",
    "OpClassShare",
    "layer_stacks",
    "op_class_shares",
    "profile_graph",
    "quicknet_table4_rows",
]
