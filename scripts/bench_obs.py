"""Pin the observability subsystem's overhead (ISSUE 10 tentpole).

Two sections, both consumed by
``scripts/check_bench_regression.py --suite obs``:

* **registry** — per-operation cost of the hot-path instruments
  (``Counter.inc``, ``Histogram.observe``) and of a full
  ``MetricsRegistry.snapshot``, measured with metrics **enabled** and
  with ``REPRO_NO_METRICS=1``. The disabled numbers pin the promise
  that a gated write degenerates to one cached boolean check.
* **overhead** — end-to-end :class:`~repro.serve.QuantService`
  requests/s with metrics on vs off, run as **interleaved** trials
  (on/off/on/off…) so drift in machine load hits both modes equally.
  ``overhead_frac`` is the fractional rps cost of leaving metrics on
  (clamped at 0); the regression gate hard-fails above 2%.

No ``speedup_*`` keys on purpose: the observability contract is "costs
(almost) nothing", not "makes anything faster", and near-1.0 ratios
under the generic speedup floor would only add flakiness.

Run:  PYTHONPATH=src python scripts/bench_obs.py [--out PATH] [--quick]

Writes ``BENCH_obs.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from contextlib import contextmanager

import numpy as np

from repro.obs import NO_METRICS_ENV, Counter, Histogram, MetricsRegistry, \
    refresh_metrics_enabled
from repro.serve import QuantService

DEFAULT_OUT = "BENCH_obs.json"

#: The arm the end-to-end overhead comparison runs on.
OVERHEAD_ARM = ("m2xfp", "activation")


@contextmanager
def _metrics(enabled: bool):
    """Force metrics on or off for the duration of the block."""
    prev = os.environ.get(NO_METRICS_ENV)
    os.environ[NO_METRICS_ENV] = "" if enabled else "1"
    refresh_metrics_enabled()
    try:
        yield
    finally:
        if prev is None:
            del os.environ[NO_METRICS_ENV]
        else:
            os.environ[NO_METRICS_ENV] = prev
        refresh_metrics_enabled()


def _per_op(fn, n: int) -> dict:
    """ns/op and ops/s for ``n`` calls of ``fn`` (best of 3 passes)."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        best = min(best, time.perf_counter() - t0)
    return {"ns_per_op": round(best / n * 1e9, 1),
            "ops_per_s": round(n / best, 1)}


def bench_registry(quick: bool) -> dict:
    """Per-op instrument/snapshot cost, metrics on vs off."""
    n = 20_000 if quick else 200_000
    n_snap = 200 if quick else 2_000
    reg = MetricsRegistry()
    for i in range(8):
        c = reg.counter(f"bench.c{i}")
        c.inc()
        h = reg.histogram(f"bench.h{i}")
        h.observe(0.001 * i)
    reg.register_collector("bench.collector",
                           lambda: {"requests": 1, "batches": 1})
    counter = Counter()
    hist = Histogram()
    section: dict = {"ops": n, "snapshot_ops": n_snap}
    for label, enabled in (("enabled", True), ("disabled", False)):
        with _metrics(enabled):
            section[label] = {
                "counter_inc": _per_op(counter.inc, n),
                "histogram_observe": _per_op(
                    lambda: hist.observe(0.001), n),
                "snapshot": _per_op(reg.snapshot, n_snap),
            }
        print(f"  registry [{label}]: "
              f"inc {section[label]['counter_inc']['ns_per_op']:8.1f} "
              f"ns/op  observe "
              f"{section[label]['histogram_observe']['ns_per_op']:8.1f} "
              f"ns/op  snapshot "
              f"{section[label]['snapshot']['ns_per_op']:10.1f} ns/op")
    return section


def _service_rps(fmt: str, op: str, x: np.ndarray,
                 duration_s: float) -> float:
    """Closed-loop single-submitter requests/s on a fresh service."""
    with QuantService(fmt) as svc:
        for _ in range(5):  # warm the plan/service caches
            svc.submit(x, op=op).result()
        n = 0
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < duration_s:
            svc.submit(x, op=op).result()
            n += 1
        elapsed = time.perf_counter() - t0
    return n / elapsed


def bench_overhead(quick: bool, x: np.ndarray) -> dict:
    """End-to-end QuantService rps, metrics on vs off, interleaved."""
    fmt, op = OVERHEAD_ARM
    duration = 0.2 if quick else 0.6
    trials = 3 if quick else 5
    on, off = [], []
    for _ in range(trials):  # interleave so load drift hits both modes
        with _metrics(True):
            on.append(_service_rps(fmt, op, x, duration))
        with _metrics(False):
            off.append(_service_rps(fmt, op, x, duration))
    rps_on, rps_off = max(on), max(off)
    overhead = max(0.0, 1.0 - rps_on / rps_off)
    section = {
        "format": fmt, "op": op,
        "trials": trials, "duration_s": duration,
        "rps_on": round(rps_on, 1),
        "rps_off": round(rps_off, 1),
        "overhead_frac": round(overhead, 4),
    }
    print(f"  overhead {fmt}:{op}: {rps_on:8.1f} rps on / "
          f"{rps_off:8.1f} rps off  -> {overhead * 100:.2f}% "
          f"(gate: <= 2%)")
    return section


def run_benchmarks(quick: bool = False) -> dict:
    rng = np.random.default_rng(0)
    x = rng.standard_normal((16, 256))
    payload: dict = {
        "config": {"tensor_shape": list(x.shape), "quick": quick},
        "registry": bench_registry(quick),
        "overhead": {},
    }
    payload["overhead"] = bench_overhead(quick, x)
    return payload


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=DEFAULT_OUT)
    parser.add_argument("--quick", action="store_true",
                        help="fewer ops, shorter trials")
    ns = parser.parse_args()
    payload = run_benchmarks(quick=ns.quick)
    with open(ns.out, "w") as f:
        json.dump(payload, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {ns.out}")


if __name__ == "__main__":
    main()
