"""`repro.obs`: zero-dependency tracing + metrics for the runtime.

Five modules, one clock discipline:

- :mod:`repro.obs.ring` — the per-thread, drop-counting ring store the
  tracer and the event log both record into;
- :mod:`repro.obs.trace` — structured spans with per-thread ring
  buffers, ambient activation (:func:`active_tracer`) and a shared
  no-op tracer (:data:`NULL_TRACER`) for the disabled fast path;
- :mod:`repro.obs.export` — Chrome ``trace_event`` JSON (Perfetto),
  schema validation and a text flamegraph;
- :mod:`repro.obs.metrics` — the typed counter/gauge/histogram registry
  that `EngineStats` and the cache stats are views of;
- :mod:`repro.obs.events` — the request-scoped structured event log
  (the tracer's ring store, joined to spans on ``request_id``).
"""

from repro.obs.events import (
    EVENT_KINDS,
    EVENT_SCHEMA,
    EVENT_SCHEMA_VERSION,
    NULL_EVENTS,
    TERMINAL_KINDS,
    Event,
    EventLog,
    events_to_records,
    write_events_jsonl,
)
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
    "EVENT_KINDS",
    "EVENT_SCHEMA",
    "EVENT_SCHEMA_VERSION",
    "NULL_EVENTS",
    "NULL_TRACER",
    "TERMINAL_KINDS",
    "Counter",
    "Event",
    "EventLog",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "SpanRecord",
    "Tracer",
    "active_tracer",
    "chrome_trace",
    "events_to_records",
    "flamegraph_lines",
    "format_snapshot",
    "global_registry",
    "iter_children",
    "node_seconds",
    "quantile_from_counts",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_events_jsonl",
]
