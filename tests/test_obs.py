"""Unified telemetry subsystem: registry, tracing, footprint helper.

The contract under test (ISSUE 10 / DESIGN.md §12): one process-wide
metrics registry every serving layer registers into under a stable
naming scheme; nearest-rank quantiles as *the* percentile definition
shared by server histograms, the gateway and the benches; gated
instruments that no-op under ``REPRO_NO_METRICS=1``; deterministic
snapshots safe to embed in HEALTH meta; and ``REPRO_TRACE=1``
JSON-lines request traces whose span tree covers
queue→quantize→pack→serialize for both plain and KV-session requests.
"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.obs import (
    DEFAULT_WINDOW,
    TRACE_ENV,
    TRACE_PATH_ENV,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TraceContext,
    current_trace,
    export,
    measured_bits_per_element,
    metrics_enabled,
    quantile,
    registry,
    start_trace,
    trace_enabled,
    use_trace,
)
from repro.serve import QuantService


# ----------------------------------------------------------------------
# Nearest-rank quantiles: one definition for the whole repo
# ----------------------------------------------------------------------
def test_quantile_nearest_rank():
    vals = sorted([5.0, 1.0, 3.0, 2.0, 4.0])
    assert quantile(vals, 0.50) == 3.0
    assert quantile(vals, 0.99) == 5.0
    assert quantile(vals, 0.0001) == 1.0
    assert quantile([], 0.5) == 0.0
    assert quantile([7.5], 0.99) == 7.5


def test_quantile_is_the_gateway_percentile():
    """Gateway /metrics p50/p99 and obs share one code path."""
    from repro.gateway.gateway import _quantile

    rng = np.random.default_rng(7)
    vals = sorted(rng.standard_normal(257).tolist())
    for q in (0.01, 0.5, 0.95, 0.99):
        assert _quantile(vals, q) == quantile(vals, q)


def test_bench_server_latency_summary_matches_histogram():
    """The committed BENCH_server.json percentile math is the obs
    Histogram's nearest-rank math, via bench_server._latency_summary."""
    scripts = Path(__file__).parent.parent / "scripts"
    sys.path.insert(0, str(scripts))
    try:
        from bench_server import _latency_summary
    finally:
        sys.path.remove(str(scripts))
    rng = np.random.default_rng(11)
    samples = (rng.random(321) * 0.01).tolist()
    hist = Histogram(window=len(samples), gated=False)
    for v in samples:
        hist.observe(v)
    out = _latency_summary(samples)
    assert out["p50_ms"] == round(hist.quantile(0.50) * 1e3, 3)
    assert out["p99_ms"] == round(hist.quantile(0.99) * 1e3, 3)
    assert _latency_summary([]) == {"p50_ms": 0.0, "p99_ms": 0.0}


# ----------------------------------------------------------------------
# Instruments and the kill switch
# ----------------------------------------------------------------------
def test_histogram_bounded_reservoir_and_summary():
    hist = Histogram(window=8)
    for v in range(20):
        hist.observe(float(v))
    assert hist.count == 20  # lifetime count survives eviction
    assert hist.values() == [float(v) for v in range(12, 20)]
    summary = hist.summary()
    assert summary == {"count": 20, "p50": 15.0, "p95": 19.0,
                       "p99": 19.0}


@pytest.mark.parametrize("n", [0, 1, 7, 100, 4096, 4097, 10_000])
def test_histogram_ring_matches_sorted_window_quantiles(n):
    """The ring reservoir reports what a sorted list of the last
    ``window`` observations does, before and after it wraps."""
    from collections import deque

    rng = np.random.default_rng(n)
    samples = rng.lognormal(-7.0, 1.5, n).tolist()
    hist = Histogram()
    for v in samples:
        hist.observe(v)
    window = sorted(deque(samples, maxlen=DEFAULT_WINDOW))
    assert hist.values() == window
    assert hist.summary() == {"count": n,
                              "p50": quantile(window, 0.50),
                              "p95": quantile(window, 0.95),
                              "p99": quantile(window, 0.99)}
    for q in (0.01, 0.5, 0.999):
        assert hist.quantile(q) == quantile(window, q)


def test_gated_instruments_noop_when_disabled(metrics_env):
    counter, gauge, hist = Counter(), Gauge(), Histogram()
    ungated = Counter(gated=False)
    metrics_env(False)
    assert not metrics_enabled()
    counter.inc()
    gauge.set(3.5)
    hist.observe(1.0)
    ungated.inc()
    assert counter.value == 0 and gauge.value == 0.0 and hist.count == 0
    assert ungated.value == 1  # gateway-style accounting survives
    metrics_env(True)
    counter.inc()
    assert counter.value == 1


def test_registry_get_or_create_and_kind_mismatch():
    reg = MetricsRegistry()
    c = reg.counter("x.requests")
    assert reg.counter("x.requests") is c
    with pytest.raises(TypeError):
        reg.gauge("x.requests")
    h = reg.histogram("x.latency", window=16)
    assert h.window == 16
    assert reg.histogram("x.latency").window == 16  # first wins
    assert reg.histogram("y.latency").window == DEFAULT_WINDOW


def test_registry_snapshot_deterministic_and_json_safe():
    reg = MetricsRegistry()
    reg.counter("b.count").inc(3)
    reg.histogram("a.latency").observe(0.25)
    reg.register_collector("c.stats", lambda: {"requests": 7})
    snap1 = reg.snapshot()
    snap2 = reg.snapshot()  # no traffic in between -> identical
    assert snap1 == snap2
    assert list(snap1) == sorted(snap1)
    json.dumps(snap1)  # HEALTH meta embeds the snapshot as-is
    assert snap1["b.count"] == 3
    assert snap1["a.latency"]["count"] == 1
    assert snap1["c.stats"] == {"requests": 7}


def test_registry_snapshot_empty_when_disabled(metrics_env):
    reg = MetricsRegistry()
    reg.counter("x").inc()
    metrics_env(False)
    assert reg.snapshot() == {}


def test_registry_collector_error_is_contained():
    reg = MetricsRegistry()

    def bad():
        raise RuntimeError("stats dict exploded")

    reg.register_collector("bad", bad)
    snap = reg.snapshot()
    assert "RuntimeError" in snap["bad"]["error"]


def test_registry_collector_last_wins_and_unregister():
    reg = MetricsRegistry()
    reg.register_collector("arm", lambda: {"gen": 1})
    reg.register_collector("arm", lambda: {"gen": 2})
    assert reg.snapshot()["arm"] == {"gen": 2}
    reg.unregister_collector("arm")
    assert "arm" not in reg.snapshot()


# ----------------------------------------------------------------------
# Registry under concurrent serving traffic (ISSUE 10 satellite 3)
# ----------------------------------------------------------------------
def test_registry_thread_safe_under_concurrent_submits(rng):
    """Concurrent QuantService submits + concurrent snapshots: no
    torn state, and the arm's latency histogram counts every request."""
    x = rng.standard_normal((4, 64))
    n_threads, n_each = 8, 25
    snapshots: list[dict] = []
    with QuantService("m2xfp") as svc:
        stop = threading.Event()

        def submitter():
            for _ in range(n_each):
                svc.submit(x).result()

        def snapshotter():
            while not stop.is_set():
                snapshots.append(registry().snapshot())

        workers = [threading.Thread(target=submitter)
                   for _ in range(n_threads)]
        reader = threading.Thread(target=snapshotter)
        reader.start()
        for t in workers:
            t.start()
        for t in workers:
            t.join()
        stop.set()
        reader.join()
        arm = f"serve.{svc.arm}"
        snap = registry().snapshot()
        assert snap[arm]["requests"] == n_threads * n_each
        assert snap[f"{arm}.latency"]["count"] == n_threads * n_each
        for s in snapshots:  # every mid-flight snapshot was coherent
            if arm in s:
                json.dumps(s)
    # closing the service unregisters its arm
    assert f"serve.{svc.arm}" not in registry().snapshot()


def test_service_registers_stable_arm_names(rng):
    with QuantService("m2xfp", packed=True) as svc:
        assert svc.arm == "m2xfp:inherit:packed"
        svc.submit(rng.standard_normal((2, 64))).result()
        snap = registry().snapshot()
        assert f"serve.{svc.arm}" in snap
        assert f"serve.{svc.arm}.latency" in snap
        # the codec and plan-cache layers register on first use
        assert "plan_cache" in snap and "codec" in snap
        assert snap["codec"]["encodes"] >= 1


# ----------------------------------------------------------------------
# Footprint helper (ISSUE 10 satellite 1)
# ----------------------------------------------------------------------
def test_measured_bits_per_element():
    """One helper behind both serve.stats() and kv.stats(): exact
    payload_bytes*8/elements, None when nothing was packed yet."""
    assert measured_bits_per_element(128, 256) == 4.0
    assert measured_bits_per_element(100, 192) == 100 * 8 / 192
    assert measured_bits_per_element(0, 10) == 0.0
    assert measured_bits_per_element(128, 0) is None


def test_measured_bits_per_element_feeds_service_stats(rng):
    x = rng.standard_normal((4, 64))
    with QuantService("m2xfp", packed=True) as svc:
        svc.submit(x).result()
        stats = svc.stats()
        assert stats["measured_bits_per_element"] == \
            measured_bits_per_element(stats["payload_bytes"],
                                      stats["packed_elements"])


# ----------------------------------------------------------------------
# Span-based request tracing
# ----------------------------------------------------------------------
def test_trace_context_span_schema():
    ctx = TraceContext("req-1", "quantize", arm="m2xfp:inherit:packed")
    with ctx.span("quantize"):
        pass
    ctx.add_span("pack", ctx.t0, ctx.t0 + 0.5)
    line = ctx.to_line()
    assert line["request_id"] == "req-1"
    assert line["kind"] == "quantize"
    assert line["arm"] == "m2xfp:inherit:packed"
    names = [s["name"] for s in line["spans"]]
    assert names == ["quantize", "pack"]
    for span in line["spans"]:
        assert set(span) == {"name", "start_s", "dur_s"}
        assert span["dur_s"] >= 0.0
    assert line["spans"][1]["dur_s"] == 0.5


def test_trace_disabled_by_default():
    assert not trace_enabled()
    assert start_trace("r", "quantize") is None
    assert current_trace() is None


def test_use_trace_is_thread_local():
    ctx = TraceContext("req-2", "quantize")
    seen = {}
    with use_trace(ctx):
        assert current_trace() is ctx

        def other():
            seen["other"] = current_trace()

        t = threading.Thread(target=other)
        t.start()
        t.join()
    assert seen["other"] is None
    assert current_trace() is None


def test_export_writes_sorted_jsonl(tmp_path, monkeypatch):
    path = tmp_path / "t.jsonl"
    monkeypatch.setenv(TRACE_ENV, "1")
    monkeypatch.setenv(TRACE_PATH_ENV, str(path))
    ctx = start_trace("req-3", "quantize")
    assert ctx is not None
    with ctx.span("quantize"):
        pass
    export(ctx)
    export(None)  # tolerated: the untraced path exports nothing
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    rec = json.loads(lines[0])
    assert rec["request_id"] == "req-3"
    assert lines[0] == json.dumps(rec, sort_keys=True)


# ----------------------------------------------------------------------
# End-to-end: REPRO_TRACE=1 across the wire (the acceptance schema)
# ----------------------------------------------------------------------
def test_server_traces_cover_quantize_and_kv_spans(tmp_path, monkeypatch,
                                                   rng):
    """With ``REPRO_TRACE=1`` the server exports one JSON line per
    request; the span tree covers queue→quantize→pack→serialize for
    both a plain packed quantize and a KV-session append."""
    from repro.server import QuantClient, ServerThread

    path = tmp_path / "trace.jsonl"
    monkeypatch.setenv(TRACE_ENV, "1")
    monkeypatch.setenv(TRACE_PATH_ENV, str(path))
    x = rng.standard_normal((2, 64))
    with ServerThread(port=0) as st, \
            QuantClient(port=st.port) as cli:
        cli.quantize(x, fmt="m2xfp", packed=True)
        cli.quantize(x, fmt="m2xfp", packed=False)
        cli.session_open(session_id="tr-kv", n_layers=1,
                         policy={"default": "m2xfp", "op": "weight"})
        cli.session_append("tr-kv", 0, x[:, :16], x[:, 16:32], seq=0)
        cli.session_close("tr-kv")
    records = [json.loads(line)
               for line in path.read_text().splitlines()]
    by_kind = {}
    for rec in records:
        by_kind.setdefault(rec["kind"], []).append(rec)
    packed, unpacked = by_kind["quantize"]
    assert [s["name"] for s in packed["spans"]] == \
        ["queue", "batch", "quantize", "pack", "serialize"]
    assert [s["name"] for s in unpacked["spans"]] == \
        ["queue", "batch", "quantize", "serialize"]
    assert packed["arm"] == "m2xfp:inherit:packed"
    (append,) = by_kind["kv_append"]
    names = [s["name"] for s in append["spans"]]
    assert names[0] == "queue" and names[-1] == "serialize"
    # one fused encode of the stacked K and V: quantize->pack->verify
    assert names[1:-1] == ["quantize", "pack", "verify"]
    assert append["arm"] == "m2xfp"
    for rec in records:  # request ids propagate from the wire frames
        assert isinstance(rec["request_id"], int)
        for span in rec["spans"]:
            assert span["dur_s"] >= 0.0


def test_untraced_requests_export_nothing(tmp_path, monkeypatch, rng):
    from repro.server import QuantClient, ServerThread

    path = tmp_path / "trace.jsonl"
    monkeypatch.setenv(TRACE_PATH_ENV, str(path))
    monkeypatch.delenv(TRACE_ENV, raising=False)
    x = rng.standard_normal((2, 64))
    with ServerThread(port=0) as st, \
            QuantClient(port=st.port) as cli:
        cli.quantize(x, fmt="m2xfp", packed=True)
    assert not path.exists()
