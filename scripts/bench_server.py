"""Closed-loop load generator for the network quantization server.

Measures, per (format, operand-path, packed) arm and concurrency level:

* **requests/s** — closed loop: each client thread keeps exactly one
  request in flight on its own connection, so offered load tracks
  service rate (no coordinated-omission artifacts);
* **p50 / p99 latency** — per-request wall time, protocol round trip
  included.

Plus the **sharding** section: the same closed-loop load against a
spawn-based :class:`~repro.server.WorkerPool` with one worker vs two,
on the m2xfp activation arm. Each worker is its own process with its
own GIL, so on multi-core hosts two workers' frame handling and quantize
passes run truly in parallel; on a single core they only time-slice.
``speedup_sharded_vs_single`` records the measured requests/s ratio.

Plus the **chaos** section: the same closed loop pushed through a
:class:`~repro.server.FaultProxy` that kills 1% of connections
mid-frame, with clients running their reconnect-retry budget. It
records the fault-tolerance tax on rps/p99 — every completed request
is still bit-exact (that part is asserted by ``tests/test_faults.py``;
the bench records the throughput cost).

Plus the **gateway** section: the same closed loop spoken over HTTP
through :class:`~repro.gateway.QuantGateway` fronting a
:class:`~repro.gateway.ReplicaCluster` of 1, 2 and 4 replicas, with
clients cycling several formats so the consistent-hash router spreads
arms across replicas. Each point records rps/p50/p99 plus an **exact**
crosscheck of the gateway's ``/metrics`` ``requests_total`` counters
against the harness's own completed-request tally (the counters must
not drift by even one request). ``scaling_*`` ratios record the
replica-scaling curve; on a single-core host they hover near 1.0
(replicas time-slice one CPU), so they are reported, not gated.

Run:  PYTHONPATH=src python scripts/bench_server.py [--out PATH]
      [--quick] [--chaos]

``--chaos`` runs only the fault-injection section. Writes
``BENCH_server.json``. Absolute requests/s are machine-dependent; the
speedup ratio is the stable, regression-gated part
(``scripts/check_bench_regression.py --suite server``).
"""

from __future__ import annotations

import argparse
import base64
import http.client
import json
import threading
import time

import numpy as np

from repro.errors import ServerBusy
from repro.gateway import GatewayThread, ReplicaCluster
from repro.obs import Histogram
from repro.server import (FaultPlan, FaultProxy, QuantClient, ServerThread,
                          WorkerPool)

DEFAULT_OUT = "BENCH_server.json"


def _latency_summary(samples) -> dict:
    """p50/p99 (ms) through the obs :class:`Histogram`, so the bench's
    percentile math is the repo-wide nearest-rank definition the server
    and gateway expose (DESIGN.md §12). ``tests/test_obs.py``
    crosschecks this helper against ``Histogram.quantile`` directly."""
    hist = Histogram(window=max(len(samples), 1), gated=False)
    for v in samples:
        hist.observe(v)
    return {"p50_ms": round(hist.quantile(0.50) * 1e3, 3),
            "p99_ms": round(hist.quantile(0.99) * 1e3, 3)}

#: (catalog name, operand path, packed) load arms.
ARMS = (
    ("m2xfp", "activation", False),
    ("m2xfp", "activation", True),
    ("elem-em", "activation", False),
    ("elem-em", "activation", True),
    ("m2-nvfp4", "activation", False),
    ("m2-nvfp4", "activation", True),
)

#: The arm the sharded-vs-single comparison runs on.
SHARDED_ARM = ("m2xfp", "activation", False)

#: Per-frame connection-kill probability for the chaos section (~1% of
#: connections die mid-conversation; clients retry through it).
CHAOS_KILL_PROB = 0.01

#: Retry budget the chaos clients run with.
CHAOS_RETRIES = 20

#: Formats the gateway load cycles through — spread over the hash ring
#: so a multi-replica cluster actually shares the traffic.
GATEWAY_FORMATS = ("m2xfp", "elem-em", "m2-nvfp4", "nvfp4")

#: Cluster sizes for the gateway scaling curve.
GATEWAY_REPLICAS = (1, 2, 4)


def _run_load(port: int, fmt: str, op: str, packed: bool,
              concurrency: int, duration_s: float,
              x: np.ndarray, retries: int = 0) -> dict:
    """Closed-loop hammer: ``concurrency`` threads, one connection each."""
    barrier = threading.Barrier(concurrency + 1)
    latencies: list[list[float]] = [[] for _ in range(concurrency)]
    busy = [0] * concurrency
    errors: list[BaseException] = []
    stop = threading.Event()

    def worker(slot: int) -> None:
        try:
            with QuantClient(port=port, timeout=120.0, retries=retries,
                             backoff_base_s=0.005, backoff_max_s=0.1,
                             retry_seed=slot) as cli:
                for _ in range(3):  # warm the service/plan caches
                    cli.quantize(x, fmt=fmt, op=op, packed=packed)
                barrier.wait()
                while not stop.is_set():
                    t0 = time.perf_counter()
                    try:
                        cli.quantize(x, fmt=fmt, op=op, packed=packed)
                    except ServerBusy:
                        busy[slot] += 1
                        continue
                    latencies[slot].append(time.perf_counter() - t0)
        except BaseException as exc:  # surfaced after the join
            errors.append(exc)
            try:
                barrier.abort()
            except threading.BrokenBarrierError:
                pass

    threads = [threading.Thread(target=worker, args=(s,))
               for s in range(concurrency)]
    for t in threads:
        t.start()
    try:
        barrier.wait()
    except threading.BrokenBarrierError:
        pass  # a worker failed during warm-up; surface its error below
    t_start = time.perf_counter()
    if not errors:
        time.sleep(duration_s)
    stop.set()
    for t in threads:
        t.join(timeout=120)
    elapsed = time.perf_counter() - t_start
    if errors:
        raise errors[0]
    lats = [v for slot in latencies for v in slot]
    return {
        "concurrency": concurrency,
        "requests": len(lats),
        "busy_rejections": int(sum(busy)),
        "rps": round(len(lats) / elapsed, 1),
        **_latency_summary(lats),
    }


def run_chaos(quick: bool, x: np.ndarray) -> dict:
    """The fault-injection load arm: 1% connection kills, retrying clients."""
    fmt, op, packed = SHARDED_ARM
    duration = 1.0 if quick else 2.5
    concurrency = 4 if quick else 8
    plan = FaultPlan(seed=0, kill_prob=CHAOS_KILL_PROB)
    with ServerThread(port=0) as st, \
            FaultProxy(target_port=st.port, plan=plan) as px:
        res = _run_load(px.port, fmt, op, packed, concurrency=concurrency,
                        duration_s=duration, x=x, retries=CHAOS_RETRIES)
    section = {
        "format": fmt, "op": op, "packed": packed,
        "kill_prob": CHAOS_KILL_PROB, "retries": CHAOS_RETRIES,
        "load": res,
        "proxy": dict(px.stats),
    }
    print(f"  chaos {fmt}:{op} (kill_prob={CHAOS_KILL_PROB}): "
          f"{res['rps']:8.1f} rps  p99 {res['p99_ms']:7.3f} ms  "
          f"({px.stats['killed']} kills over "
          f"{px.stats['connections']} connections)")
    return section


def _run_http_load(port: int, concurrency: int, duration_s: float,
                   x: np.ndarray) -> dict:
    """Closed-loop HTTP hammer against a gateway: ``concurrency``
    keep-alive connections, each cycling :data:`GATEWAY_FORMATS`.

    Returns per-point rps/p50/p99 plus ``completed_total`` — every
    successful quantize this function ever sent (warm-up included),
    the number the gateway's ``requests_total`` must match exactly.
    """
    bodies = [json.dumps({
        "format": fmt, "op": "activation", "packed": False,
        "shape": list(x.shape),
        "data_b64": base64.b64encode(x.tobytes()).decode()})
        for fmt in GATEWAY_FORMATS]
    headers = {"Content-Type": "application/json"}
    barrier = threading.Barrier(concurrency + 1)
    latencies: list[list[float]] = [[] for _ in range(concurrency)]
    completed = [0] * concurrency
    errors: list[BaseException] = []
    stop = threading.Event()

    def worker(slot: int) -> None:
        try:
            conn = http.client.HTTPConnection("127.0.0.1", port,
                                              timeout=120.0)
            try:
                for body in bodies:  # warm every arm's plan/service
                    conn.request("POST", "/v1/quantize", body, headers)
                    resp = conn.getresponse()
                    payload = resp.read()
                    if resp.status != 200:
                        raise RuntimeError(f"warm-up got {resp.status}: "
                                           f"{payload!r}")
                    completed[slot] += 1
                barrier.wait()
                i = slot  # offset start so threads desynchronize arms
                while not stop.is_set():
                    body = bodies[i % len(bodies)]
                    i += 1
                    t0 = time.perf_counter()
                    conn.request("POST", "/v1/quantize", body, headers)
                    resp = conn.getresponse()
                    payload = resp.read()
                    if resp.status != 200:
                        raise RuntimeError(f"gateway got {resp.status}: "
                                           f"{payload!r}")
                    completed[slot] += 1
                    latencies[slot].append(time.perf_counter() - t0)
            finally:
                conn.close()
        except BaseException as exc:  # surfaced after the join
            errors.append(exc)
            try:
                barrier.abort()
            except threading.BrokenBarrierError:
                pass

    threads = [threading.Thread(target=worker, args=(s,))
               for s in range(concurrency)]
    for t in threads:
        t.start()
    try:
        barrier.wait()
    except threading.BrokenBarrierError:
        pass
    t_start = time.perf_counter()
    if not errors:
        time.sleep(duration_s)
    stop.set()
    for t in threads:
        t.join(timeout=120)
    elapsed = time.perf_counter() - t_start
    if errors:
        raise errors[0]
    lats = [v for slot in latencies for v in slot]
    return {
        "concurrency": concurrency,
        "requests": len(lats),
        "completed_total": int(sum(completed)),
        "rps": round(len(lats) / elapsed, 1),
        **_latency_summary(lats),
    }


def _scrape_requests_total(port: int) -> int:
    """Sum the ``repro_gateway_requests_total`` samples off /metrics."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30.0)
    try:
        conn.request("GET", "/metrics")
        resp = conn.getresponse()
        text = resp.read().decode()
        if resp.status != 200:
            raise RuntimeError(f"/metrics got {resp.status}")
    finally:
        conn.close()
    total = 0
    for line in text.splitlines():
        if line.startswith("repro_gateway_requests_total{"):
            total += int(float(line.rsplit(" ", 1)[1]))
    return total


def run_gateway(quick: bool, x: np.ndarray) -> dict:
    """The HTTP gateway scaling curve: 1/2/4-replica closed loop."""
    duration = 1.0 if quick else 2.5
    concurrency = 4 if quick else 8
    section: dict = {
        "formats": list(GATEWAY_FORMATS),
        "concurrency": concurrency,
        "duration_s": duration,
        "points": {},
        "metrics_crosscheck": {},
    }
    for replicas in GATEWAY_REPLICAS:
        with ReplicaCluster(replicas=replicas) as cluster, \
                GatewayThread(upstreams=cluster.endpoints, port=0,
                              probe_interval_s=0.5) as gw:
            res = _run_http_load(gw.port, concurrency=concurrency,
                                 duration_s=duration, x=x)
            scraped = _scrape_requests_total(gw.port)
            snap = gw.gateway.snapshot()
        point = dict(res)
        point["replicas"] = replicas
        point["metrics_requests_total"] = scraped
        point["replica_spread"] = snap["replica_requests"]
        matched = (scraped == res["completed_total"]
                   == snap["requests_total"])
        section["metrics_crosscheck"][f"r{replicas}"] = {
            "harness_completed": res["completed_total"],
            "metrics_requests_total": scraped,
            "matched": matched,
        }
        section["points"][f"r{replicas}"] = point
        print(f"  gateway r={replicas}: {res['rps']:8.1f} rps  "
              f"p50 {res['p50_ms']:7.3f} ms  "
              f"p99 {res['p99_ms']:7.3f} ms  "
              f"metrics {'==' if matched else '!='} harness "
              f"({scraped} vs {res['completed_total']})")
        if not matched:
            raise RuntimeError(
                f"gateway metrics drifted at r={replicas}: "
                f"/metrics says {scraped}, harness counted "
                f"{res['completed_total']}")
    r1 = section["points"]["r1"]["rps"]
    for replicas in GATEWAY_REPLICAS[1:]:
        section[f"scaling_r{replicas}_vs_r1"] = round(
            section["points"][f"r{replicas}"]["rps"] / r1, 3)
    return section


def run_benchmarks(quick: bool = False) -> dict:
    """Run every load arm plus the sharding comparison; returns the payload."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((16, 256))
    duration = 0.25 if quick else 1.0
    levels = (1, 4) if quick else (1, 4, 8)
    payload: dict = {
        "config": {
            "tensor_shape": list(x.shape),
            "duration_s": duration,
            "quick": quick,
        },
        "arms": {},
        "sharded": {},
        "chaos": {},
        "gateway": {},
    }

    with ServerThread(port=0) as st:
        for fmt, op, packed in ARMS:
            key = f"{fmt}:{op}:{'packed' if packed else 'unpacked'}"
            arm: dict = {}
            for c in levels:
                arm[f"c{c}"] = _run_load(st.port, fmt, op, packed,
                                         concurrency=c,
                                         duration_s=duration, x=x)
                print(f"  {key:28s} c={c}: "
                      f"{arm[f'c{c}']['rps']:8.1f} rps  "
                      f"p50 {arm[f'c{c}']['p50_ms']:7.3f} ms  "
                      f"p99 {arm[f'c{c}']['p99_ms']:7.3f} ms")
            payload["arms"][key] = arm

    fmt, op, packed = SHARDED_ARM
    shard_conc = 12 if quick else 16
    shard_duration = 1.0 if quick else 2.5
    results = {}
    for label, workers in (("single", 1), ("sharded", 2)):
        with WorkerPool(workers=workers, port=0) as pool:
            res = _run_load(pool.port, fmt, op, packed,
                            concurrency=shard_conc,
                            duration_s=shard_duration, x=x)
            res["workers"] = workers
            results[label] = res
            print(f"  {fmt}:{op} {label} ({workers} worker"
                  f"{'s' if workers > 1 else ''}): {res['rps']:8.1f} rps")
    payload["sharded"] = {
        "format": fmt, "op": op, "packed": packed,
        "concurrency": shard_conc,
        "single": results["single"],
        "sharded": results["sharded"],
        "speedup_sharded_vs_single": round(
            results["sharded"]["rps"] / results["single"]["rps"], 3),
    }
    print(f"  sharded-vs-single speedup: "
          f"{payload['sharded']['speedup_sharded_vs_single']:.2f}x")
    payload["chaos"] = run_chaos(quick, x)
    payload["gateway"] = run_gateway(quick, x)
    return payload


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=DEFAULT_OUT)
    parser.add_argument("--quick", action="store_true",
                        help="shorter windows, fewer concurrency levels")
    parser.add_argument("--chaos", action="store_true",
                        help="run only the fault-injection section")
    ns = parser.parse_args()
    if ns.chaos:
        rng = np.random.default_rng(0)
        payload = {
            "config": {"quick": ns.quick, "chaos_only": True},
            "chaos": run_chaos(ns.quick, rng.standard_normal((16, 256))),
        }
    else:
        payload = run_benchmarks(quick=ns.quick)
    with open(ns.out, "w") as f:
        json.dump(payload, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {ns.out}")


if __name__ == "__main__":
    main()
