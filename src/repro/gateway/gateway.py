"""The HTTP gateway: JSON/octet-stream front-end over N replicas.

``QuantGateway`` is the cluster tier above ``QuantServer``: an asyncio
HTTP/1.1 server exposing

* ``POST /v1/quantize`` — base64-JSON or raw-float64 body in, canonical
  JSON or packed ``PackedTensor`` bytes out (see ``gateway/http.py``);
* ``POST /v1/session/{open,append,read,close}`` — streaming KV-cache
  sessions (JSON bodies; see ``gateway/http.py``), routed by hashing
  the **session id** and *pinned*: session state lives on exactly one
  replica, so session ops never failover blindly — a dead home replica
  surfaces a typed error (410 ``SessionLost`` once its state is gone),
  and the client reopens + replays;
* ``GET /healthz`` — cluster health: ok / degraded / down, per-replica
  states (HTTP 503 only when **zero** replicas are routable);
* ``GET /metrics`` — Prometheus text exposition: per-arm request
  counts, rps and p50/p99 latency, BUSY/DRAINING/failover totals,
  per-replica liveness and upstream cache-hit counters.

Each request is routed by the consistent-hash ring
(:class:`~repro.gateway.HashRing`) on the **format fingerprint**, so
one format's traffic lands on one replica and that replica's compiled
plan cache and weight memo stay hot. The ring always contains every
configured replica — placement never flaps with health — and health
only *filters* the preference list at request time.

Failover rides the retry-idempotency contract (DESIGN.md §7.1): a
quantization request is a pure function of its payload + meta, so when
a replica dies mid-request (``ConnectionLost``), times out, or answers
``DRAINING``, the gateway blindly re-sends the same frame to the next
replica in the key's preference order and the client sees the same
bits it would have gotten from the first. Typed quantization errors
(``FormatError``, ``ConfigError``, ...) are deterministic — they would
fail identically everywhere — so they propagate immediately, never
failover. Replica health is fed by a background PING/HEALTH probe
loop; a replica failing ``eject_threshold`` consecutive probes is
ejected from routing until a probe succeeds again.

Env knobs: ``REPRO_GATEWAY_PORT`` (default 7420),
``REPRO_GATEWAY_HASH_SEED`` (ring salt, default 0),
``REPRO_GATEWAY_PROBE_INTERVAL_S`` (default 1.0) — plus
``REPRO_GATEWAY_REPLICAS`` consumed by the CLI / cluster launcher.

Example::

    from repro.gateway import GatewayThread
    from repro.server import ServerThread

    with ServerThread(port=0) as a, ServerThread(port=0) as b:
        with GatewayThread(upstreams=[f"127.0.0.1:{a.port}",
                                      f"127.0.0.1:{b.port}"],
                           port=0) as gw:
            ...  # POST http://127.0.0.1:{gw.port}/v1/quantize
"""

from __future__ import annotations

import asyncio
import itertools
import threading
import time

from ..errors import (ConfigError, ConnectionLost, RequestTimeout,
                      ServerBusy, ServerDraining)
from ..obs import Histogram
from ..obs import quantile as _obs_quantile
from ..server.client import AsyncQuantClient
from ..server.server import _env_float, _env_int
from . import http as ghttp
from .router import HashRing

__all__ = ["QuantGateway", "GatewayThread", "GatewayStats", "run_gateway",
           "render_metrics", "healthz_summary", "parse_endpoint",
           "GATEWAY_PORT_ENV", "PROBE_INTERVAL_ENV",
           "DEFAULT_GATEWAY_PORT", "DEFAULT_PROBE_INTERVAL_S"]

#: Environment knobs (documented in the README's env-knob table).
GATEWAY_PORT_ENV = "REPRO_GATEWAY_PORT"
PROBE_INTERVAL_ENV = "REPRO_GATEWAY_PROBE_INTERVAL_S"

DEFAULT_GATEWAY_PORT = 7420
DEFAULT_PROBE_INTERVAL_S = 1.0
DEFAULT_MAX_BODY_BYTES = 1 << 26  # 64 MiB of float64 payload
DEFAULT_EJECT_THRESHOLD = 3
DEFAULT_FAILOVER_PASSES = 2
DEFAULT_LATENCY_WINDOW = 4096

#: Transport-level upstream failures: safe to failover blindly because
#: requests are idempotent (DESIGN.md §7.1). Typed quantization errors
#: are deliberately absent — they are deterministic, not transient.
_FAILOVER_ERRORS = (ConnectionLost, RequestTimeout, ConnectionError,
                    OSError)


def parse_endpoint(spec) -> tuple[str, int]:
    """``"host:port"`` / ``(host, port)`` -> ``(host, port)``."""
    if isinstance(spec, (tuple, list)) and len(spec) == 2:
        return str(spec[0]), int(spec[1])
    if isinstance(spec, str) and ":" in spec:
        host, _, port = spec.rpartition(":")
        try:
            return host, int(port)
        except ValueError:
            pass
    raise ConfigError(f"upstream must be 'host:port' or (host, port), "
                      f"got {spec!r}")


def _quantile(sorted_values, q: float) -> float:
    """Nearest-rank quantile of an already-sorted sequence.

    Delegates to :func:`repro.obs.quantile` — gateway p50/p99 and the
    server-side histograms share one percentile code path by contract
    (DESIGN.md §12)."""
    return _obs_quantile(sorted_values, q)


class GatewayStats:
    """Counters + bounded latency windows behind ``/metrics``.

    Thread-safe (the bench harness snapshots from other threads while
    the gateway loop records). Latencies live in
    :class:`repro.obs.Histogram` reservoirs — explicitly bounded at
    ``window`` samples per arm, so p50/p99 are over recent traffic,
    while counts and rps are lifetime totals. The histograms are
    *ungated* (``REPRO_NO_METRICS`` does not blind them): the gateway's
    own accounting feeds routing and ops decisions, not just
    exposition.
    """

    def __init__(self, window: int = DEFAULT_LATENCY_WINDOW) -> None:
        self._lock = threading.Lock()
        self._window = int(window)
        self._started = time.monotonic()
        self._http_status: dict[str, int] = {}
        self._arms: dict[str, dict] = {}
        self._upstream = {"busy": 0, "draining": 0, "failovers": 0,
                          "no_replica": 0, "probe_failures": 0}
        self._replica_requests: dict[str, int] = {}
        self._requests_total = 0

    def record_request(self, arm: str, seconds: float,
                       replica: str) -> None:
        with self._lock:
            self._requests_total += 1
            slot = self._arms.get(arm)
            if slot is None:
                slot = {"count": 0,
                        "latencies": Histogram(self._window, gated=False)}
                self._arms[arm] = slot
            slot["count"] += 1
            slot["latencies"].observe(float(seconds))
            self._replica_requests[replica] = \
                self._replica_requests.get(replica, 0) + 1

    def record_status(self, status: int) -> None:
        with self._lock:
            key = str(int(status))
            self._http_status[key] = self._http_status.get(key, 0) + 1

    def bump(self, key: str, n: int = 1) -> None:
        with self._lock:
            self._upstream[key] = self._upstream.get(key, 0) + n

    def requests_total(self) -> int:
        """Requests recorded over every arm; no snapshot needed."""
        return self._requests_total

    def snapshot(self, replicas: dict | None = None) -> dict:
        """A JSON-safe snapshot; feed to :func:`render_metrics`."""
        with self._lock:
            elapsed = max(time.monotonic() - self._started, 1e-9)
            arms = {}
            for arm, slot in sorted(self._arms.items()):
                lat = slot["latencies"].values()  # already ascending
                arms[arm] = {
                    "requests": slot["count"],
                    "rps": round(slot["count"] / elapsed, 3),
                    "p50_ms": round(_quantile(lat, 0.50) * 1e3, 3),
                    "p99_ms": round(_quantile(lat, 0.99) * 1e3, 3),
                }
            return {
                "uptime_s": round(elapsed, 3),
                "requests_total": self._requests_total,
                "http_status": dict(sorted(self._http_status.items())),
                "arms": arms,
                "upstream": dict(self._upstream),
                "replica_requests": dict(
                    sorted(self._replica_requests.items())),
                "replicas": dict(replicas or {}),
            }


# ----------------------------------------------------------------------
# Pure renderers (golden-pinned from fixed snapshots)
# ----------------------------------------------------------------------
def _esc(label: str) -> str:
    return label.replace("\\", "\\\\").replace('"', '\\"')


def render_metrics(snapshot: dict) -> str:
    """Prometheus text exposition for a :meth:`GatewayStats.snapshot`.

    Pure and deterministic (sorted label sets, fixed metric order) so
    the golden fixture pins the rendering of a synthetic snapshot.
    """
    lines: list[str] = []

    def metric(name: str, kind: str, help_text: str, samples) -> None:
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        lines.extend(samples)

    metric("repro_gateway_uptime_seconds", "gauge",
           "Seconds since the gateway started.",
           [f"repro_gateway_uptime_seconds {snapshot['uptime_s']:g}"])
    metric("repro_gateway_requests_total", "counter",
           "Quantize requests answered 200, by arm (format:op:packing).",
           [f'repro_gateway_requests_total{{arm="{_esc(a)}"}} '
            f'{s["requests"]}'
            for a, s in sorted(snapshot["arms"].items())])
    metric("repro_gateway_request_rps", "gauge",
           "Lifetime requests/s, by arm.",
           [f'repro_gateway_request_rps{{arm="{_esc(a)}"}} {s["rps"]:g}'
            for a, s in sorted(snapshot["arms"].items())])
    q_samples = []
    for a, s in sorted(snapshot["arms"].items()):
        q_samples.append(f'repro_gateway_request_latency_ms'
                         f'{{arm="{_esc(a)}",quantile="0.5"}} '
                         f'{s["p50_ms"]:g}')
        q_samples.append(f'repro_gateway_request_latency_ms'
                         f'{{arm="{_esc(a)}",quantile="0.99"}} '
                         f'{s["p99_ms"]:g}')
    metric("repro_gateway_request_latency_ms", "gauge",
           "Recent-window request latency quantiles (ms), by arm.",
           q_samples)
    metric("repro_gateway_http_responses_total", "counter",
           "HTTP responses sent, by status code.",
           [f'repro_gateway_http_responses_total{{status="{code}"}} {n}'
            for code, n in sorted(snapshot["http_status"].items())])
    metric("repro_gateway_upstream_events_total", "counter",
           "Upstream routing events: busy, draining, failovers, "
           "no_replica, probe_failures, session_pinned_failures.",
           [f'repro_gateway_upstream_events_total{{event="{k}"}} {v}'
            for k, v in sorted(snapshot["upstream"].items())])
    up_samples, req_samples, hit_samples = [], [], []
    for name, info in sorted(snapshot["replicas"].items()):
        up = 1 if info.get("state") == "up" else 0
        up_samples.append(f'repro_gateway_replica_up'
                          f'{{replica="{_esc(name)}"}} {up}')
        req_samples.append(
            f'repro_gateway_replica_requests_total'
            f'{{replica="{_esc(name)}"}} '
            f'{snapshot["replica_requests"].get(name, 0)}')
        services = (info.get("health") or {}).get("services") or {}
        hit_samples.append(
            f'repro_gateway_replica_weight_cache_hits_total'
            f'{{replica="{_esc(name)}"}} '
            f'{services.get("weight_cache_hits", 0)}')
    metric("repro_gateway_replica_up", "gauge",
           "Replica liveness from the probe loop (1 = up).", up_samples)
    metric("repro_gateway_replica_requests_total", "counter",
           "Quantize requests answered per upstream replica.",
           req_samples)
    metric("repro_gateway_replica_weight_cache_hits_total", "counter",
           "Upstream weight-memo hits, from the replica's last HEALTH "
           "frame.", hit_samples)
    # Federated server-side telemetry: every sample below reads the
    # metrics-registry snapshot that rides each replica's HEALTH meta,
    # so /metrics on the gateway is a one-stop view of the cluster.
    plan_samples, busy_samples, sess_samples = [], [], []
    arm_req_samples, arm_p99_samples = [], []
    for name, info in sorted(snapshot["replicas"].items()):
        health = info.get("health") or {}
        rmetrics = health.get("metrics") or {}
        label = f'replica="{_esc(name)}"'
        plan = rmetrics.get("plan_cache") or {}
        lookups = plan.get("hits", 0) + plan.get("misses", 0)
        rate = plan.get("hits", 0) / lookups if lookups else 0.0
        plan_samples.append(
            f'repro_gateway_replica_plan_cache_hit_rate{{{label}}} '
            f'{rate:g}')
        busy_samples.append(
            f'repro_gateway_replica_busy_total{{{label}}} '
            f'{(health.get("stats") or {}).get("busy_rejections", 0)}')
        sess_samples.append(
            f'repro_gateway_replica_sessions_open{{{label}}} '
            f'{(health.get("sessions") or {}).get("open", 0)}')
        for key in sorted(rmetrics):
            if not key.startswith("serve.") or key.endswith(".latency"):
                continue
            svc = rmetrics[key]
            if not isinstance(svc, dict):
                continue
            arm_label = f'{label},arm="{_esc(key[len("serve."):])}"'
            lat = rmetrics.get(f"{key}.latency") or {}
            arm_req_samples.append(
                f'repro_gateway_replica_arm_requests_total'
                f'{{{arm_label}}} {svc.get("requests", 0)}')
            arm_p99_samples.append(
                f'repro_gateway_replica_arm_p99_ms{{{arm_label}}} '
                f'{round(lat.get("p99", 0.0) * 1e3, 3):g}')
    metric("repro_gateway_replica_plan_cache_hit_rate", "gauge",
           "Compiled-plan cache hit rate on the replica "
           "(hits / lookups; 0 before any lookup).", plan_samples)
    metric("repro_gateway_replica_busy_total", "counter",
           "BUSY admission rejections on the replica.", busy_samples)
    metric("repro_gateway_replica_sessions_open", "gauge",
           "Open KV-cache sessions on the replica.", sess_samples)
    metric("repro_gateway_replica_arm_requests_total", "counter",
           "Server-side requests per (replica, service arm).",
           arm_req_samples)
    metric("repro_gateway_replica_arm_p99_ms", "gauge",
           "Server-side submit->finish p99 (ms) per (replica, service "
           "arm), from the replica's latency histogram.",
           arm_p99_samples)
    return "\n".join(lines) + "\n"


def healthz_summary(snapshot: dict, draining: bool = False) \
        -> tuple[int, dict]:
    """``(http_status, body)`` for ``/healthz`` — pure, golden-pinned.

    ``ok`` needs every replica up; anything less (a down, draining or
    ejected replica) is ``degraded`` — the honest middle — and zero
    routable replicas is ``down`` with HTTP 503. A draining gateway
    reports ``draining`` but keeps answering (load balancers need the
    body to take it out of rotation gracefully).
    """
    replicas = snapshot.get("replicas", {})
    routable = [n for n, info in replicas.items()
                if info.get("state") in ("up", "unknown")
                and not info.get("ejected")]
    if draining:
        status = "draining"
    elif replicas and all(info.get("state") == "up"
                          and not info.get("ejected")
                          for info in replicas.values()):
        status = "ok"
    elif routable:
        status = "degraded"
    else:
        status = "down"
    body = {
        "status": status,
        "draining": bool(draining),
        "replicas": {
            name: {"state": info.get("state", "unknown"),
                   "ejected": bool(info.get("ejected")),
                   "consecutive_failures":
                       int(info.get("consecutive_failures", 0))}
            for name, info in sorted(replicas.items())
        },
        "routable": len(routable),
        "requests_total": snapshot.get("requests_total", 0),
    }
    return (503 if status == "down" else 200), body


# ----------------------------------------------------------------------
# Replica handle
# ----------------------------------------------------------------------
class _Replica:
    """One upstream ``QuantServer``: lazy client + probed health."""

    def __init__(self, host: str, port: int, *,
                 timeout: float | None) -> None:
        self.host = host
        self.port = port
        self.name = f"{host}:{port}"
        self.timeout = timeout
        self.state = "unknown"          # unknown | up | down | draining
        self.consecutive_failures = 0
        self.eject_threshold = DEFAULT_EJECT_THRESHOLD
        self.last_health: dict | None = None
        self._client: AsyncQuantClient | None = None
        self._lock: asyncio.Lock | None = None

    @property
    def ejected(self) -> bool:
        return self.consecutive_failures >= self.eject_threshold

    @property
    def routable(self) -> bool:
        return self.state in ("up", "unknown") and not self.ejected

    def info(self) -> dict:
        return {"state": self.state, "ejected": self.ejected,
                "consecutive_failures": self.consecutive_failures,
                "requests_health": None,
                "health": self.last_health}

    async def client(self) -> AsyncQuantClient:
        if self._lock is None:
            self._lock = asyncio.Lock()
        async with self._lock:
            if self._client is None:
                cli = AsyncQuantClient(self.host, self.port,
                                       timeout=self.timeout, retries=0)
                await cli.connect()
                self._client = cli
            return self._client

    async def mark_failed(self) -> None:
        """A transport failure: drop the connection, count the strike."""
        self.state = "down"
        self.consecutive_failures += 1
        await self._drop_client()

    def mark_healthy(self, health: dict) -> None:
        self.last_health = health
        self.consecutive_failures = 0
        self.state = "draining" if health.get("draining") else "up"

    async def _drop_client(self) -> None:
        cli, self._client = self._client, None
        if cli is not None:
            try:
                await cli.close()
            except Exception:
                pass

    async def close(self) -> None:
        await self._drop_client()


# ----------------------------------------------------------------------
# The gateway
# ----------------------------------------------------------------------
class QuantGateway:
    """HTTP front-end routing quantize requests across replicas.

    Parameters
    ----------
    upstreams:
        Replica endpoints (``"host:port"`` strings or tuples). The ring
        contains all of them permanently; health filters at request
        time.
    host / port:
        HTTP bind address; ``port=None`` reads ``REPRO_GATEWAY_PORT``
        (default 7420), ``0`` binds ephemeral.
    hash_seed / vnodes:
        Forwarded to :class:`HashRing` (seed ``None`` reads
        ``REPRO_GATEWAY_HASH_SEED``).
    probe_interval_s:
        PING/HEALTH probe period (``None`` reads
        ``REPRO_GATEWAY_PROBE_INTERVAL_S``, default 1.0).
    upstream_timeout_s:
        Deadline for each upstream attempt (connect + round trip).
    eject_threshold:
        Consecutive probe/request failures before a replica stops
        receiving traffic (a later successful probe reinstates it).
    failover_passes:
        How many times the full preference order is walked before the
        last upstream error is surfaced — pass 2 retries replicas that
        may have restarted meanwhile.
    max_body_bytes / read_timeout_s:
        HTTP request admission bounds (413 / slow-loris drop).
    drain_timeout_s:
        Bound on waiting for in-flight requests during a drain.
    """

    def __init__(self, upstreams, *, host: str = "127.0.0.1",
                 port: int | None = None, hash_seed: int | None = None,
                 vnodes: int | None = None,
                 probe_interval_s: float | None = None,
                 upstream_timeout_s: float = 30.0,
                 eject_threshold: int = DEFAULT_EJECT_THRESHOLD,
                 failover_passes: int = DEFAULT_FAILOVER_PASSES,
                 max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
                 read_timeout_s: float = 60.0,
                 drain_timeout_s: float = 30.0) -> None:
        endpoints = [parse_endpoint(u) for u in upstreams]
        if not endpoints:
            raise ConfigError("gateway needs at least one upstream replica")
        if len({f"{h}:{p}" for h, p in endpoints}) != len(endpoints):
            raise ConfigError(f"duplicate upstream endpoints: {upstreams}")
        self.host = host
        self.port = _env_int(GATEWAY_PORT_ENV, DEFAULT_GATEWAY_PORT) \
            if port is None else int(port)
        self.probe_interval_s = _env_float(PROBE_INTERVAL_ENV,
                                           DEFAULT_PROBE_INTERVAL_S) \
            if probe_interval_s is None else float(probe_interval_s)
        if failover_passes < 1:
            raise ConfigError("failover_passes must be >= 1")
        if eject_threshold < 1:
            raise ConfigError("eject_threshold must be >= 1")
        self.upstream_timeout_s = float(upstream_timeout_s)
        self.failover_passes = int(failover_passes)
        self.max_body_bytes = int(max_body_bytes)
        self.read_timeout_s = float(read_timeout_s)
        self.drain_timeout_s = float(drain_timeout_s)
        self.replicas: dict[str, _Replica] = {}
        for h, p in endpoints:
            rep = _Replica(h, p, timeout=self.upstream_timeout_s)
            rep.eject_threshold = int(eject_threshold)
            self.replicas[rep.name] = rep
        ring_kwargs = {} if vnodes is None else {"vnodes": vnodes}
        self.ring = HashRing(sorted(self.replicas), seed=hash_seed,
                             **ring_kwargs)
        self.stats = GatewayStats()
        self._fingerprints: dict[str, str] = {}
        self._request_ids = itertools.count(1)
        self._inflight = 0
        self._draining = False
        self._server: asyncio.base_events.Server | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._drained: asyncio.Event | None = None
        self._probe_task: asyncio.Task | None = None

    # ------------------------------------------------------------------
    # Lifecycle (mirrors QuantServer)
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._drained = asyncio.Event()
        self._server = await asyncio.start_server(
            self._on_connection, host=self.host, port=self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        # One synchronous probe pass before we are "ready", so the
        # first scrape/healthz already reflects real replica states.
        await self._probe_once()
        self._probe_task = asyncio.create_task(self._probe_loop())

    async def run(self) -> None:
        if self._server is None:
            await self.start()
        try:
            await self._stop.wait()
        finally:
            if self._probe_task is not None:
                self._probe_task.cancel()
                try:
                    await self._probe_task
                except (asyncio.CancelledError, Exception):
                    pass
                self._probe_task = None
            self._server.close()
            await self._server.wait_closed()
            for rep in self.replicas.values():
                await rep.close()

    def request_stop(self) -> None:
        """Exit :meth:`run`; safe from any thread."""
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:
                pass

    def request_drain(self) -> None:
        """Graceful drain; safe from any thread / signal handler."""
        if self._loop is not None:
            try:
                self._loop.call_soon_threadsafe(self._start_drain)
            except RuntimeError:
                pass

    @property
    def draining(self) -> bool:
        return self._draining

    def _start_drain(self) -> None:
        if self._draining or self._loop is None:
            return
        self._draining = True
        self._loop.create_task(self._drain())

    async def _drain(self) -> None:
        if self._server is not None:
            self._server.close()
        if self._inflight == 0:
            self._drained.set()
        try:
            await asyncio.wait_for(self._drained.wait(),
                                   self.drain_timeout_s)
        except asyncio.TimeoutError:
            pass
        self._stop.set()

    # ------------------------------------------------------------------
    # Health probing
    # ------------------------------------------------------------------
    async def _probe_one(self, rep: _Replica) -> None:
        try:
            cli = await rep.client()
            health = await cli.ping(deadline_s=self.upstream_timeout_s)
        except Exception:
            self.stats.bump("probe_failures")
            await rep.mark_failed()
        else:
            rep.mark_healthy(health)

    async def _probe_once(self) -> None:
        await asyncio.gather(*(self._probe_one(rep)
                               for rep in self.replicas.values()))

    async def _probe_loop(self) -> None:
        while True:
            await asyncio.sleep(self.probe_interval_s)
            await self._probe_once()

    def replica_info(self) -> dict:
        return {name: rep.info() for name, rep in
                sorted(self.replicas.items())}

    def snapshot(self) -> dict:
        """Stats + replica states (what ``/metrics`` renders)."""
        return self.stats.snapshot(self.replica_info())

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def fingerprint(self, fmt: str) -> str:
        """The route key: ``repr(make_format(fmt))`` (cached).

        Raises the catalog's own :class:`ConfigError` for unknown
        names, so bad formats fail at the gateway (-> 400) without
        burning an upstream round trip.
        """
        fp = self._fingerprints.get(fmt)
        if fp is None:
            from ..runner.formats import make_format
            fp = repr(make_format(fmt))
            self._fingerprints[fmt] = fp
        return fp

    def _candidates(self, fingerprint: str) -> list[_Replica]:
        """Preference-ordered replicas, healthiest filter that is
        non-empty: routable > non-ejected > everyone (last resort)."""
        order = [self.replicas[name]
                 for name in self.ring.preference(fingerprint)]
        for predicate in (lambda r: r.routable,
                          lambda r: not r.ejected,
                          lambda r: True):
            picked = [r for r in order if predicate(r)]
            if picked:
                return picked
        return order

    async def _quantize_upstream(self, x, *, fmt: str, op: str,
                                 dispatch: str, packed: bool):
        """Route + failover one quantize call; returns (result, replica).

        Walks the preference order ``failover_passes`` times. Transport
        failures and DRAINING answers move on to the next replica
        (idempotency makes the blind re-send bit-safe); BUSY moves on
        without a health strike (the replica is alive, just loaded);
        typed quantization errors raise immediately.
        """
        fingerprint = self.fingerprint(fmt)
        last_error: BaseException | None = None
        for _ in range(self.failover_passes):
            for rep in self._candidates(fingerprint):
                try:
                    cli = await rep.client()
                    result = await cli.quantize(
                        x, fmt=fmt, op=op, dispatch=dispatch,
                        packed=packed, fingerprint=fingerprint,
                        deadline_s=self.upstream_timeout_s, retries=0)
                except ServerDraining as exc:
                    self.stats.bump("draining")
                    rep.state = "draining"
                    last_error = exc
                except ServerBusy as exc:
                    self.stats.bump("busy")
                    last_error = exc
                except _FAILOVER_ERRORS as exc:
                    self.stats.bump("failovers")
                    await rep.mark_failed()
                    last_error = exc
                else:
                    if rep.state == "down":
                        rep.state = "up"  # answered: alive again
                    return result, rep
        self.stats.bump("no_replica")
        raise last_error if last_error is not None else ServerBusy(
            "no upstream replica available")

    def _session_replica(self, session_id: str) -> _Replica:
        """The pinned home replica for a session id.

        First *routable* replica in the ring's preference order for the
        id — deterministic while health holds, and the same walk every
        client of this gateway sees, so all ops for one session land on
        one replica. If nothing is routable the top preference is
        returned anyway and the transport error surfaces typed.
        """
        order = [self.replicas[name]
                 for name in self.ring.preference(session_id)]
        for rep in order:
            if rep.routable:
                return rep
        return order[0]

    async def _session_upstream(self, session_id: str, call):
        """One *pinned* session op; returns ``(result, replica)``.

        Deliberately no failover walk: session state lives only on the
        home replica, so a blind re-send elsewhere could not resume the
        stream — it would either invent fresh state (open) or raise
        ``SessionLost`` against a replica that never held the session.
        Transport failures strike the replica's health and surface to
        the client, whose own retry loop re-sends with the same seq —
        the seq-dedup contract makes that bit-safe.
        """
        rep = self._session_replica(session_id)
        try:
            cli = await rep.client()
            result = await call(cli)
        except ServerDraining:
            self.stats.bump("draining")
            rep.state = "draining"
            raise
        except ServerBusy:
            self.stats.bump("busy")
            raise
        except _FAILOVER_ERRORS:
            self.stats.bump("session_pinned_failures")
            await rep.mark_failed()
            raise
        else:
            if rep.state == "down":
                rep.state = "up"  # answered: alive again
            return result, rep

    # ------------------------------------------------------------------
    # HTTP handling
    # ------------------------------------------------------------------
    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    request = await ghttp.read_http_request(
                        reader, self.max_body_bytes,
                        self.read_timeout_s or None)
                except ghttp._HttpError as exc:
                    await self._write(writer, ghttp.error_response(
                        exc, keep_alive=False))
                    break
                except Exception:
                    break  # unframeable / timed-out stream: just close
                if request is None:
                    break
                response = await self._handle(request)
                # Request-id echo: the caller's X-Request-Id (or a
                # gateway-minted one) comes back on every response, so
                # a trace line on any replica can be joined to the HTTP
                # round trip that caused it. Applied here — not in the
                # pure response builders — so the golden response bytes
                # stay header-free and pinned.
                rid = request.headers.get("x-request-id") \
                    or f"gw-{next(self._request_ids)}"
                response.extra_headers = (
                    *tuple(response.extra_headers),
                    ("x-request-id", rid))
                response.keep_alive = response.keep_alive \
                    and request.keep_alive
                await self._write(writer, response)
                if not response.keep_alive:
                    break
        except (ConnectionError, OSError):
            pass
        except asyncio.CancelledError:
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _write(self, writer: asyncio.StreamWriter,
                     response: ghttp.HttpResponse) -> None:
        self.stats.record_status(response.status)
        writer.write(response.to_bytes())
        await writer.drain()

    async def _handle(self, request: ghttp.HttpRequest) \
            -> ghttp.HttpResponse:
        path, method = request.path, request.method
        if path == "/healthz":
            if method != "GET":
                return ghttp.error_response(ghttp._HttpError(
                    405, f"{method} not allowed on {path}; use GET"))
            code, body = healthz_summary(
                {"replicas": self.replica_info(),
                 "requests_total": self.stats.requests_total()},
                self._draining)
            return ghttp.json_response(body, status=code)
        if path == "/metrics":
            if method != "GET":
                return ghttp.error_response(ghttp._HttpError(
                    405, f"{method} not allowed on {path}; use GET"))
            return ghttp.text_response(render_metrics(self.snapshot()))
        if path == "/v1/quantize":
            if method != "POST":
                return ghttp.error_response(ghttp._HttpError(
                    405, f"{method} not allowed on {path}; use POST"))
            return await self._handle_quantize(request)
        if path.startswith("/v1/session/"):
            action = path[len("/v1/session/"):]
            if action not in ("open", "append", "read", "close"):
                return ghttp.error_response(ghttp._HttpError(
                    404, f"no route for {path}; session actions are "
                         f"open, append, read, close"))
            if method != "POST":
                return ghttp.error_response(ghttp._HttpError(
                    405, f"{method} not allowed on {path}; use POST"))
            return await self._handle_session(request, action)
        return ghttp.error_response(ghttp._HttpError(
            404, f"no route for {path}; try /v1/quantize, "
                 f"/v1/session/*, /healthz, /metrics"))

    async def _handle_quantize(self, request: ghttp.HttpRequest) \
            -> ghttp.HttpResponse:
        if self._draining:
            return ghttp.error_response(ServerDraining(
                "gateway is draining for shutdown; retry elsewhere"))
        self._inflight += 1
        t0 = time.monotonic()
        try:
            x, fmt, op, dispatch, packed = \
                ghttp.parse_quantize_request(request)
            fingerprint = self.fingerprint(fmt)
            result, rep = await self._quantize_upstream(
                x, fmt=fmt, op=op, dispatch=dispatch, packed=packed)
        except Exception as exc:
            return ghttp.error_response(exc)
        else:
            arm = f"{fmt}:{op}:{'packed' if packed else 'unpacked'}"
            self.stats.record_request(arm, time.monotonic() - t0,
                                      rep.name)
            return ghttp.quantize_response(result, fmt=fmt, op=op,
                                           packed=packed,
                                           fingerprint=fingerprint)
        finally:
            self._inflight -= 1
            if self._draining and self._inflight == 0 and \
                    self._drained is not None:
                self._drained.set()

    async def _handle_session(self, request: ghttp.HttpRequest,
                              action: str) -> ghttp.HttpResponse:
        if self._draining:
            return ghttp.error_response(ServerDraining(
                "gateway is draining for shutdown; no new session work"))
        self._inflight += 1
        t0 = time.monotonic()
        deadline = self.upstream_timeout_s
        try:
            if action == "open":
                cfg = ghttp.parse_session_open(request)
                sid = cfg["session_id"]
                ack, rep = await self._session_upstream(
                    sid, lambda cli: cli.session_open(
                        deadline_s=deadline, retries=0, **cfg))
                response = ghttp.session_ack_response(ack)
            elif action == "append":
                sid, layer, seq, k, v = \
                    ghttp.parse_session_append(request)
                ack, rep = await self._session_upstream(
                    sid, lambda cli: cli.session_append(
                        sid, layer, k, v, seq=seq,
                        deadline_s=deadline, retries=0))
                response = ghttp.session_ack_response(ack)
            elif action == "read":
                sid, layer = ghttp.parse_session_read(request)
                (k, v), rep = await self._session_upstream(
                    sid, lambda cli: cli.session_read(
                        sid, layer, deadline_s=deadline, retries=0))
                response = ghttp.session_kv_response(
                    k, v, session_id=sid, layer=layer)
            else:  # close
                sid = ghttp.parse_session_close(request)
                ack, rep = await self._session_upstream(
                    sid, lambda cli: cli.session_close(
                        sid, deadline_s=deadline, retries=0))
                response = ghttp.session_ack_response(ack)
        except Exception as exc:
            return ghttp.error_response(exc)
        else:
            self.stats.record_request(f"session:{action}",
                                      time.monotonic() - t0, rep.name)
            return response
        finally:
            self._inflight -= 1
            if self._draining and self._inflight == 0 and \
                    self._drained is not None:
                self._drained.set()


def run_gateway(gateway: QuantGateway, ready=None) -> None:
    """Blocking entry point: run ``gateway`` until stopped.

    On the main thread, ``SIGTERM`` triggers a graceful drain (stop
    accepting, 503 new quantizes, finish in-flight, exit) — same
    contract as ``run_server``.
    """
    import signal

    async def _main():
        await gateway.start()
        if threading.current_thread() is threading.main_thread():
            try:
                asyncio.get_running_loop().add_signal_handler(
                    signal.SIGTERM, gateway.request_drain)
            except (NotImplementedError, RuntimeError, ValueError):
                pass
        if ready is not None:
            ready(gateway.port)
        await gateway.run()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass


class GatewayThread:
    """Run a :class:`QuantGateway` on a background thread (tests/bench).

    Mirrors :class:`~repro.server.ServerThread`: entering the context
    starts the loop, waits for the bind + first probe pass, and
    exposes the bound :attr:`port`.
    """

    def __init__(self, **kwargs) -> None:
        self.gateway = QuantGateway(**kwargs)
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    @property
    def port(self) -> int:
        return self.gateway.port

    def __enter__(self) -> "GatewayThread":
        self._thread = threading.Thread(target=self._main,
                                        name="quant-gateway", daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise ConfigError("gateway failed to start in 30s")
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def drain(self, timeout: float = 30.0) -> None:
        self.gateway.request_drain()
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    def __exit__(self, *exc) -> None:
        self.gateway.request_stop()
        if self._thread is not None:
            self._thread.join(timeout=30.0)
            self._thread = None

    def _main(self) -> None:
        try:
            run_gateway(self.gateway,
                        ready=lambda port: self._ready.set())
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
