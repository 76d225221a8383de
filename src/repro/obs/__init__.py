"""repro.obs — unified telemetry: metrics registry, request tracing,
and shared footprint arithmetic. See DESIGN.md §12 for the contract."""

from repro.obs.footprint import measured_bits_per_element
from repro.obs.metrics import (
    DEFAULT_WINDOW,
    NO_METRICS_ENV,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    metrics_enabled,
    quantile,
    refresh_metrics_enabled,
    registry,
)
from repro.obs.trace import (
    DEFAULT_TRACE_PATH,
    TRACE_ENV,
    TRACE_PATH_ENV,
    TraceContext,
    current_trace,
    export,
    start_trace,
    trace_enabled,
    trace_path,
    use_trace,
)

__all__ = [
    "DEFAULT_TRACE_PATH",
    "DEFAULT_WINDOW",
    "NO_METRICS_ENV",
    "TRACE_ENV",
    "TRACE_PATH_ENV",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TraceContext",
    "current_trace",
    "export",
    "measured_bits_per_element",
    "metrics_enabled",
    "quantile",
    "refresh_metrics_enabled",
    "registry",
    "start_trace",
    "trace_enabled",
    "trace_path",
    "use_trace",
]
