"""`repro.obs`: zero-dependency tracing + metrics for the runtime.

Three modules, one clock discipline:

- :mod:`repro.obs.trace` — structured spans and zero-duration marks
  (the gateway's request lifecycle) in per-thread ring buffers, ambient
  activation (:func:`active_tracer`) and a shared no-op tracer
  (:data:`NULL_TRACER`) for the disabled fast path;
- :mod:`repro.obs.export` — Chrome ``trace_event`` JSON (Perfetto),
  schema and request-lifecycle validation and a text flamegraph;
- :mod:`repro.obs.metrics` — the typed counter/gauge/histogram registry
  each engine and gateway owns (no process-wide one); `EngineStats` and
  `GatewayStats` are views of it.
"""

from repro.obs.export import (
    flamegraph_lines,
    node_seconds,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.metrics import (
    MetricsRegistry,
    format_snapshot,
    quantile_from_counts,
)
from repro.obs.trace import (
    NULL_TRACER,
    Span,
    SpanRecord,
    Tracer,
    active_tracer,
)

__all__ = [
    "NULL_TRACER",
    "MetricsRegistry",
    "Span",
    "SpanRecord",
    "Tracer",
    "active_tracer",
    "flamegraph_lines",
    "format_snapshot",
    "node_seconds",
    "quantile_from_counts",
    "validate_chrome_trace",
    "write_chrome_trace",
]
