"""Span-based request tracing, exported as JSON lines.

A :class:`TraceContext` carries one request id through
``QuantService.admit`` → ``execute`` → fused encode → wire frame. The
id is the protocol's existing request-id header field (no wire format
change), and the gateway echoes it back as ``X-Request-Id``.

Enable with ``REPRO_TRACE=1``; completed traces append one JSON line
per request to ``REPRO_TRACE_PATH`` (default ``repro_trace.jsonl``):

    {"request_id": 7, "kind": "quantize", "arm": "m2xfp:fast:packed",
     "spans": [{"name": "queue", "start_s": 0.0, "dur_s": ...},
               {"name": "quantize", ...}, {"name": "pack", ...},
               {"name": "serialize", ...}]}

Span names are the pipeline stages: ``queue`` (trace start →
execution, so it covers a thread hop's wait), ``batch`` (empty: one
request is one batch), ``quantize``, ``pack``, ``verify``,
``serialize``. ``start_s`` is relative to the trace's own start so
lines carry no wall-clock timestamps.

The context travels two ways: explicitly (``QuantService.admit``
takes a ``trace=`` kwarg and keeps it on the request, because the
server may execute the request on its hop thread) and via a
thread-local for code that cannot take a parameter (the codec's
fused-encode stage sink path). The server binds that thread-local
around each KV append with :func:`use_trace`, on whichever thread runs
it: the event loop for a decode-step block, the hop thread for a
larger one.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager

TRACE_ENV = "REPRO_TRACE"
TRACE_PATH_ENV = "REPRO_TRACE_PATH"
DEFAULT_TRACE_PATH = "repro_trace.jsonl"

_EXPORT_LOCK = threading.Lock()
_LOCAL = threading.local()


def trace_enabled() -> bool:
    """True when ``REPRO_TRACE=1`` (read per call: tests flip it)."""
    return os.environ.get(TRACE_ENV, "") == "1"


def trace_path() -> str:
    return os.environ.get(TRACE_PATH_ENV, "") or DEFAULT_TRACE_PATH


class TraceContext:
    """Accumulates spans for one request; thread-safe because batching
    moves a request across threads."""

    __slots__ = ("request_id", "kind", "arm", "t0", "_spans", "_lock")

    def __init__(self, request_id, kind: str, arm: str | None = None):
        self.request_id = request_id
        self.kind = kind
        self.arm = arm
        self.t0 = time.perf_counter()
        self._spans: list = []
        self._lock = threading.Lock()

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record a span from absolute ``perf_counter`` endpoints."""
        span = {"name": name,
                "start_s": round(start - self.t0, 9),
                "dur_s": round(end - start, 9)}
        with self._lock:
            self._spans.append(span)

    @contextmanager
    def span(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add_span(name, start, time.perf_counter())

    def to_line(self) -> dict:
        with self._lock:
            spans = list(self._spans)
        return {"request_id": self.request_id, "kind": self.kind,
                "arm": self.arm, "spans": spans}


def start_trace(request_id, kind: str,
                arm: str | None = None) -> TraceContext | None:
    """A fresh context when tracing is on, else ``None`` (all span
    helpers tolerate ``None`` so call sites stay unconditional)."""
    if not trace_enabled():
        return None
    return TraceContext(request_id, kind, arm)


def current_trace() -> TraceContext | None:
    return getattr(_LOCAL, "trace", None)


@contextmanager
def use_trace(ctx: TraceContext | None):
    """Bind ``ctx`` as the calling thread's current trace."""
    prev = current_trace()
    _LOCAL.trace = ctx
    try:
        yield ctx
    finally:
        _LOCAL.trace = prev


def export(ctx: TraceContext | None) -> None:
    """Append the completed trace as one JSON line (no-op on ``None``)."""
    if ctx is None:
        return
    line = json.dumps(ctx.to_line(), sort_keys=True)
    with _EXPORT_LOCK:
        with open(trace_path(), "a") as f:
            f.write(line + "\n")
