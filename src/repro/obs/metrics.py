"""Unified metrics registry: counters, gauges, bounded histograms.

Every serving layer used to grow its own ``stats()`` dict with its own
shape; this module is the one place they all register into, under a
stable dotted naming scheme (see DESIGN.md §12):

* ``serve.<arm>`` — QuantService counters, one arm per
  ``<format>:<dispatch>:<packed|unpacked>`` service instance.
* ``serve.<arm>.latency`` — end-to-end submit→finish histogram.
* ``kv.<session_id>`` — per-session KV-cache counters.
* ``plan_cache`` / ``codec`` / ``eval.engine`` / ``server`` /
  ``server.workers`` — the module- or process-wide layers.

Two registration styles:

* **Instruments** (:class:`Counter`, :class:`Gauge`,
  :class:`Histogram`) are owned by the registry and written on the hot
  path. Their writes are *gated*: with ``REPRO_NO_METRICS=1`` every
  ``inc``/``set``/``observe`` is a no-op, so the disabled-path cost is
  one cached boolean check (pinned by ``scripts/bench_obs.py``). The
  switch is read from the environment at import; code that flips it
  later calls :func:`refresh_metrics_enabled`.
  Construct with ``gated=False`` for accounting the program itself
  relies on (e.g. gateway routing stats).
* **Collectors** are zero-hot-path-overhead callbacks: a component
  keeps its plain dict counters and the registry calls the collector
  only at :meth:`MetricsRegistry.snapshot` time.

Snapshots are deterministic: sorted keys, no timestamps, JSON-safe
values — two consecutive snapshots with no traffic in between are
identical, and a snapshot can ride in the protocol HEALTH meta as-is.
"""

from __future__ import annotations

import math
import os
import threading
import weakref

import numpy as np

#: Kill switch: with ``REPRO_NO_METRICS=1`` gated instrument writes
#: no-op and ``snapshot()`` returns ``{}`` (so HEALTH meta stays lean).
NO_METRICS_ENV = "REPRO_NO_METRICS"

#: Default bounded-reservoir window for histograms; matches the
#: gateway's historical latency window so p99 semantics carry over.
DEFAULT_WINDOW = 4096


def _read_switch() -> bool:
    return os.environ.get(NO_METRICS_ENV, "") != "1"


_enabled = _read_switch()


def metrics_enabled() -> bool:
    """True unless ``REPRO_NO_METRICS=1`` was set when the switch was
    last read (at import, or by :func:`refresh_metrics_enabled`)."""
    return _enabled


def refresh_metrics_enabled() -> bool:
    """Re-read ``REPRO_NO_METRICS`` from the environment (for code that
    sets it after import, such as tests and ``scripts/bench_obs.py``)
    and return the new :func:`metrics_enabled` value."""
    global _enabled
    _enabled = _read_switch()
    return _enabled


def quantile(sorted_values, q: float) -> float:
    """Nearest-rank quantile over an ascending sequence (0.0 if empty).

    This is *the* percentile definition for the repo: the gateway's
    ``/metrics`` p50/p99 and the server-side histograms must agree on
    one code path (ISSUE 10 satellite 2), so both call here.
    """
    if len(sorted_values) == 0:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


class Counter:
    """Monotonic counter. ``inc`` is gated unless ``gated=False``."""

    __slots__ = ("_value", "_lock", "_gated")

    def __init__(self, *, gated: bool = True):
        self._value = 0
        self._lock = threading.Lock()
        self._gated = gated

    def inc(self, n: int = 1) -> None:
        if self._gated and not metrics_enabled():
            return
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """Point-in-time value. ``set`` is gated unless ``gated=False``."""

    __slots__ = ("_value", "_lock", "_gated")

    def __init__(self, *, gated: bool = True):
        self._value = 0.0
        self._lock = threading.Lock()
        self._gated = gated

    def set(self, v: float) -> None:
        if self._gated and not metrics_enabled():
            return
        with self._lock:
            self._value = v

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Bounded-reservoir histogram: last ``window`` observations plus a
    lifetime count. Quantiles are nearest-rank over the reservoir.

    The reservoir is a fixed float64 ring, so a read sorts one array
    copy in numpy instead of a Python list of floats.
    """

    __slots__ = ("_window", "_ring", "_count", "_lock", "_gated")

    def __init__(self, window: int = DEFAULT_WINDOW, *,
                 gated: bool = True):
        self._window = int(window)
        self._ring = np.empty(self._window, dtype=np.float64)
        self._count = 0
        self._lock = threading.Lock()
        self._gated = gated

    @property
    def window(self) -> int:
        return self._window

    @property
    def count(self) -> int:
        return self._count

    def observe(self, v: float) -> None:
        if self._gated and not metrics_enabled():
            return
        with self._lock:
            self._ring[self._count % self._window] = v
            self._count += 1

    def _sorted(self) -> tuple[int, np.ndarray]:
        """Lifetime count and an ascending copy of the reservoir."""
        with self._lock:
            count = self._count
            vals = self._ring[:min(count, self._window)].copy()
        vals.sort()
        return count, vals

    def values(self) -> list:
        """Ascending copy of the current reservoir."""
        return self._sorted()[1].tolist()

    def quantile(self, q: float) -> float:
        return quantile(self.values(), q)

    def summary(self) -> dict:
        """JSON-safe ``{count, p50, p95, p99}`` in observed units."""
        count, vals = self._sorted()
        return {
            "count": count,
            "p50": float(quantile(vals, 0.50)),
            "p95": float(quantile(vals, 0.95)),
            "p99": float(quantile(vals, 0.99)),
        }


class MetricsRegistry:
    """Thread-safe name → instrument/collector registry with one
    deterministic ``snapshot()`` view over everything registered."""

    def __init__(self):
        self._lock = threading.Lock()
        self._instruments: dict = {}
        self._collectors: dict = {}

    # -- instruments ---------------------------------------------------
    def _get_or_create(self, name: str, kind, factory):
        with self._lock:
            inst = self._instruments.get(name)
            if inst is None:
                inst = self._instruments[name] = factory()
            elif not isinstance(inst, kind):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(inst).__name__}, not {kind.__name__}")
            return inst

    def counter(self, name: str, *, gated: bool = True) -> Counter:
        return self._get_or_create(name, Counter,
                                   lambda: Counter(gated=gated))

    def gauge(self, name: str, *, gated: bool = True) -> Gauge:
        return self._get_or_create(name, Gauge,
                                   lambda: Gauge(gated=gated))

    def histogram(self, name: str, window: int = DEFAULT_WINDOW, *,
                  gated: bool = True) -> Histogram:
        return self._get_or_create(
            name, Histogram, lambda: Histogram(window, gated=gated))

    # -- collectors ----------------------------------------------------
    def register_collector(self, name: str, fn) -> None:
        """``fn()`` must return a JSON-safe dict; it is called only at
        snapshot time. Last registration wins on a name collision (a
        service arm restarted under the same key supersedes the old
        one). ``fn`` may be a ``weakref.WeakMethod``: the registry then
        does not keep the owner alive, and a collected owner's entry
        drops out at the next snapshot."""
        with self._lock:
            self._collectors[name] = fn

    def unregister_collector(self, name: str) -> None:
        with self._lock:
            self._collectors.pop(name, None)

    def unregister_metric(self, name: str) -> None:
        with self._lock:
            self._instruments.pop(name, None)

    def clear(self) -> None:
        """Drop everything (tests only)."""
        with self._lock:
            self._instruments.clear()
            self._collectors.clear()

    # -- snapshot ------------------------------------------------------
    def snapshot(self) -> dict:
        """Sorted, JSON-safe view of every instrument and collector.

        Returns ``{}`` when metrics are disabled; collector errors are
        surfaced as ``{"error": ...}`` rather than taking down the
        caller (a HEALTH response must never fail because one stats
        dict threw)."""
        if not metrics_enabled():
            return {}
        with self._lock:
            instruments = dict(self._instruments)
            collectors = dict(self._collectors)
        out: dict = {}
        for name, inst in instruments.items():
            if isinstance(inst, Histogram):
                out[name] = inst.summary()
            else:
                out[name] = inst.value
        for name, fn in collectors.items():
            if isinstance(fn, weakref.ref):
                ref, fn = fn, fn()
                if fn is None:
                    with self._lock:
                        if self._collectors.get(name) is ref:
                            del self._collectors[name]
                    continue
            try:
                out[name] = dict(fn())
            except Exception as exc:  # pragma: no cover - defensive
                out[name] = {"error": f"{type(exc).__name__}: {exc}"}
        return {name: out[name] for name in sorted(out)}


#: The process-wide default registry every serving layer registers into.
_DEFAULT = MetricsRegistry()


def registry() -> MetricsRegistry:
    return _DEFAULT
