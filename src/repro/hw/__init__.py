"""Analytical latency model of ARMv8-A devices and BNN inference engines.

The paper measures on a Pixel 1 phone and a Raspberry Pi 4B; neither the
hardware nor the hand-tuned NEON kernels can run here, so this subpackage
substitutes an analytical model:

- :mod:`repro.hw.isa` — the instruction-level analysis of paper Table 1:
  Neon MAC sequences for float/int8/binary and their theoretical
  throughput (8 / 32 / ~78.77 MACs per cycle).
- :mod:`repro.hw.device` — calibrated device profiles (``pixel1``,
  ``rpi4b``): frequency, cache sizes, sustained kernel throughputs,
  memory bandwidths and per-op overheads.
- :mod:`repro.hw.latency` — per-op and per-graph latency estimation with a
  cost breakdown (im2col, accumulation loop, output transformation, ...).
- :mod:`repro.hw.frameworks` — models of competing engines (DaBNN, TVM/
  Riptide, TFLite) for the Figure 4 comparison.
- :mod:`repro.hw.calibrate` — trace-fitted calibration: run the zoo under
  the tracing :class:`~repro.runtime.engine.Engine`, fit per-op-class
  factors against the measured spans, and persist the result as a
  versioned :class:`~repro.hw.device.DeviceProfile` artifact (imported
  lazily — it pulls in the runtime).

Calibration: the free parameters in the device profiles are set once from
the paper's anchor points (Figure 2 speedups, Table 2/5 ranges, Table 4
operator shares) and then held fixed for every experiment.  On a real
host, :mod:`repro.hw.calibrate` closes the loop instead: the fitted
:class:`~repro.hw.device.DeviceProfile` carries measured per-op-class
factors, and every cost consumer prices against it.
"""

from repro.hw.device import (
    DeviceModel,
    DeviceProfile,
    FitReport,
    NodeResidual,
    ProfileError,
    as_profile,
    load_profile,
    save_profile,
    validate_profile,
)
from repro.hw.frameworks import FRAMEWORKS, FrameworkModel
from repro.hw.isa import (
    BINARY_MACS_PER_CYCLE,
    FLOAT_MACS_PER_CYCLE,
    INT8_MACS_PER_CYCLE,
    mac_instruction_table,
)
from repro.hw.latency import LatencyBreakdown, graph_latency, node_latency
from repro.hw.roofline import RooflinePoint, conv_roofline, intensity_advantage

__all__ = [
    "BINARY_MACS_PER_CYCLE",
    "DeviceModel",
    "DeviceProfile",
    "FLOAT_MACS_PER_CYCLE",
    "FRAMEWORKS",
    "FitReport",
    "FrameworkModel",
    "INT8_MACS_PER_CYCLE",
    "LatencyBreakdown",
    "NodeResidual",
    "ProfileError",
    "RooflinePoint",
    "as_profile",
    "conv_roofline",
    "graph_latency",
    "intensity_advantage",
    "load_profile",
    "mac_instruction_table",
    "node_latency",
    "save_profile",
    "validate_profile",
]
