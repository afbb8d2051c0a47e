"""`repro.obs`: zero-dependency tracing + metrics for the runtime.

Three modules, one clock discipline:

- :mod:`repro.obs.trace` — structured spans and zero-duration marks
  (the gateway's request lifecycle) in per-thread ring buffers, ambient
  activation (:func:`active_tracer`) and a shared no-op tracer
  (:data:`NULL_TRACER`) for the disabled fast path;
- :mod:`repro.obs.export` — Chrome ``trace_event`` JSON (Perfetto),
  schema and request-lifecycle validation and a text flamegraph;
- :mod:`repro.obs.metrics` — the typed counter/gauge/histogram registry
  that `EngineStats` and the cache stats are views of.
"""

from repro.obs.export import (
    chrome_trace,
    flamegraph_lines,
    node_seconds,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    format_snapshot,
    global_registry,
    quantile_from_counts,
)
from repro.obs.trace import (
    DEFAULT_CAPACITY,
    NULL_TRACER,
    Span,
    SpanRecord,
    Tracer,
    active_tracer,
    iter_children,
)

__all__ = [
    "DEFAULT_CAPACITY",
    "NULL_TRACER",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "SpanRecord",
    "Tracer",
    "active_tracer",
    "chrome_trace",
    "flamegraph_lines",
    "format_snapshot",
    "global_registry",
    "iter_children",
    "node_seconds",
    "quantile_from_counts",
    "validate_chrome_trace",
    "write_chrome_trace",
]
