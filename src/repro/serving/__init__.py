"""`repro.serving`: the async request gateway in front of the Engine.

The deployment front door: per-model bounded queues
with admission control and typed load-shedding, deadline-driven
continuous batching, warm Engine replica pools sharing prepacked
weights (one worker thread per replica, pulling its own batches).

- :mod:`repro.serving.clock` — the :class:`Clock` seam every
  time-dependent decision goes through (tests inject a fake);
- :mod:`repro.serving.gateway` — :class:`Gateway`, :class:`Rejected`,
  :class:`GatewayConfig`, :class:`GatewayStats`.

The serving benchmark lives outside the package: ``python3 -m bench.run
--workload serve_steady_32|serve_saturate_32``.

Production telemetry rides on :mod:`repro.obs`: attach a
:class:`~repro.obs.trace.Tracer` (``Gateway(trace=...)``) and one trace
holds each request's lifecycle marks beside the spans of the work done
for it; ``Gateway.stats()`` reads the latency tails off the histograms
the gateway keeps anyway.
"""

from repro.serving.clock import MONOTONIC_CLOCK, Clock
from repro.serving.gateway import (
    FAILED_REPLICA,
    Gateway,
    GatewayConfig,
    Rejected,
)

__all__ = [
    "FAILED_REPLICA",
    "MONOTONIC_CLOCK",
    "Clock",
    "Gateway",
    "GatewayConfig",
    "Rejected",
]
