"""Closed-loop load generators for the serving workloads.

Each workload builds its whole input pool and the expected bytes of
every response from ``--seed`` before anything is timed, launches the
system the way users do (``python -m repro gateway`` / ``serve``), and
drives it from outside through its public entry points. A response is
checked against the expected bytes after its latency has been taken.
"""

from __future__ import annotations

import asyncio
import base64
import http.client
import itertools
import json
import time

import numpy as np

from repro.errors import ReproError
from sysproc import System, python_argv

HOST = "127.0.0.1"
CLIENT_TIMEOUT_S = 60.0
_READY = r"on 127\.0\.0\.1:(\d+)"


def quantile(values, q: float) -> float:
    """Nearest-rank quantile (0.0 for an empty sample)."""
    if not len(values):
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(np.ceil(q * len(ordered))) - 1))
    return float(ordered[rank])


def summary_ms(seconds: list) -> dict:
    ms = [s * 1e3 for s in seconds]
    return {"count": len(ms), "p50": quantile(ms, 0.50),
            "p90": quantile(ms, 0.90), "p99": quantile(ms, 0.99),
            "max": max(ms) if ms else 0.0}


def _activation(rng, rows: int, cols: int = 256) -> np.ndarray:
    """Heavy-tailed activations (Student-t, a few outlier channels)."""
    x = rng.standard_t(4.0, size=(rows, cols))
    x[:, rng.integers(0, cols, size=2)] *= 8.0
    return x


def _payload_bits(by_arm: dict) -> float:
    """Payload bits per element of each packed arm's pool, averaged over
    arms: the random row counts of a seed's pool then cannot tilt it."""
    return float(np.mean([
        sum(pt.payload_bytes for pt in pts) * 8.0
        / sum(pt.n_elements for pt in pts) for pts in by_arm.values()]))


class Window:
    """What a timed window saw. ``ops`` are the operations that count
    toward throughput; ``reads`` time the workload's read operation.
    Workloads append to it slice by slice (``run_slice``)."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        # Per latency / per read, when they come from arms that differ in
        # kind (perplexity formats, KV layers); empty otherwise.
        self.labels: list = []
        self.reads: list[float] = []
        self.read_labels: list = []
        self.ops = 0
        self.tokens = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.extra: dict = {}

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)


class Spans:
    """In-memory spans around the benchmark's public calls (traced run)."""

    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self.items: list[tuple] = []
        self._ids = itertools.count(1)

    def add(self, name: str, start: float, end: float, *,
            trace_id=None) -> None:
        """One call: ``trace_id`` groups the calls of one request,
        session or pass."""
        self.items.append((next(self._ids), trace_id, name, start, end))

    def lines(self):
        for sid, trace_id, name, start, end in self.items:
            yield {"span_id": sid, "trace_id": trace_id, "name": name,
                   "start_s": round(start - self.t0, 9),
                   "dur_s": round(end - start, 9)}


class ServingWorkload:
    """Shared launch/teardown for the workloads that talk to a server."""

    name = ""
    argv: list[str] = []

    def __init__(self, seed: int, spans: Spans | None) -> None:
        self.seed = seed
        self.spans = spans
        self.system: System | None = None
        self.port = 0

    def launch(self, tag: str, *, root: str, outdir: str,
               env: dict) -> System:
        self.system = System(tag, python_argv(*self.argv), root=root,
                             outdir=outdir, env=env).start()
        try:
            match = self.system.wait_ready(_READY)
        except RuntimeError:
            self.system.stop()
            raise
        self.port = int(match.group(1))
        return self.system

    def server_pids(self) -> list[int]:
        """Processes that run QuantServer (the whole system by default)."""
        return self.system.pids()

    def can_stop(self) -> bool:
        return True

    def _span(self, name: str, start: float, end: float, **kw) -> None:
        if self.spans is not None:
            self.spans.add(name, start, end, **kw)


# ----------------------------------------------------------------------
# edge_lone: one keep-alive HTTP connection to the gateway
# ----------------------------------------------------------------------
EDGE_FORMATS = ("m2xfp", "elem-em", "nvfp4", "m2-nvfp4")
EDGE_ARMS = tuple((fmt, packed) for fmt in EDGE_FORMATS
                  for packed in (False, True))
EDGE_POOL = 8          # distinct 16x256 activations per arm
EDGE_READ_EVERY = 16   # a GET /metrics after every 16th request


class EdgeLone(ServingWorkload):
    name = "edge_lone"
    argv = ["-m", "repro", "gateway", "--replicas", "2", "--host", HOST,
            "--port", "0"]

    def __init__(self, seed: int, spans: Spans | None) -> None:
        super().__init__(seed, spans)
        from repro.server import local_expected
        rng = np.random.default_rng(seed)
        self.items = []     # (arm index, x, body bytes, expected)
        packed_out: dict = {}
        for a, (fmt, packed) in enumerate(EDGE_ARMS):
            for _ in range(EDGE_POOL):
                x = _activation(rng, 16)
                body = json.dumps({
                    "format": fmt, "op": "activation", "packed": packed,
                    "shape": list(x.shape),
                    "data_b64": base64.b64encode(
                        x.astype("<f8").tobytes()).decode("ascii")
                }).encode()
                exp = local_expected(x, fmt=fmt, packed=packed)
                if packed:
                    packed_out.setdefault(a, []).append(exp)
                    expected = exp.to_bytes()
                else:
                    expected = base64.b64encode(
                        np.ascontiguousarray(exp, "<f8").tobytes()
                    ).decode("ascii")
                self.items.append((a, x, body, expected))
        self.bits_per_element = _payload_bits(packed_out)
        # Request i uses arm i % 8 and a seeded pool member of that arm.
        picks = rng.integers(0, EDGE_POOL, size=4096)
        self.order = [a * EDGE_POOL + int(picks[i])
                      for i, a in zip(range(4096), itertools.cycle(
                          range(len(EDGE_ARMS))))]
        self.conn: http.client.HTTPConnection | None = None
        self.replicas: list[str] = []
        self._next = 0

    def launch(self, tag, **kw) -> System:
        system = super().launch(tag, **kw)
        with open(system.out_path) as f:
            out = f.read()
        self.replicas = [e.strip() for e in
                         out.split("replica(s):", 1)[1].split("\n")[0]
                         .split(",")]
        return system

    def server_pids(self) -> list[int]:
        return self.system.pids()[1:]   # the replicas, not the gateway

    def connect(self) -> None:
        self.conn = http.client.HTTPConnection(HOST, self.port,
                                               timeout=CLIENT_TIMEOUT_S)

    def disconnect(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None

    def post(self, body: bytes) -> tuple[int, bytes]:
        self.conn.request("POST", "/v1/quantize", body=body,
                          headers={"Content-Type": "application/json"})
        resp = self.conn.getresponse()
        return resp.status, resp.read()

    def metrics_text(self) -> str:
        self.conn.request("GET", "/metrics")
        resp = self.conn.getresponse()
        body = resp.read()
        if resp.status != 200:
            raise RuntimeError(f"/metrics answered {resp.status}")
        return body.decode()

    def check(self, item, status: int, body: bytes) -> bool:
        _, _, _, expected = item
        if status != 200:
            return False
        if isinstance(expected, bytes):
            return body == expected
        return json.loads(body)["data_b64"] == expected

    def warm(self) -> None:
        """One request per arm, every answer checked."""
        self.connect()
        for a in range(len(EDGE_ARMS)):
            item = self.items[a * EDGE_POOL]
            status, body = self.post(item[2])
            if not self.check(item, status, body):
                raise RuntimeError(f"warm-up answer for arm "
                                   f"{EDGE_ARMS[a]} is wrong ({status})")

    def run_slice(self, w: Window, deadline: float) -> None:
        while time.perf_counter() < deadline:
            i = self._next
            self._next += 1
            item = self.items[self.order[i % len(self.order)]]
            w.attempted += 1
            t0 = time.perf_counter()
            try:
                status, body = self.post(item[2])
            except (OSError, http.client.HTTPException) as exc:
                w.fail(f"POST {EDGE_ARMS[item[0]]}: {exc!r}")
                self.disconnect()
                self.connect()
                continue
            t1 = time.perf_counter()
            self._span("http.post", t0, t1, trace_id=i)
            if self.check(item, status, body):
                w.latencies.append(t1 - t0)
                w.ops += 1
                w.tokens += item[1].shape[0]
            else:
                w.fail(f"POST {EDGE_ARMS[item[0]]}: status {status} or "
                       f"bytes differ")
            if (i + 1) % EDGE_READ_EVERY == 0:
                w.attempted += 1
                t0 = time.perf_counter()
                try:
                    self.metrics_text()
                except (OSError, http.client.HTTPException,
                        RuntimeError) as exc:
                    w.fail(f"GET /metrics: {exc!r}")
                    continue
                t1 = time.perf_counter()
                self._span("http.get_metrics", t0, t1)
                w.reads.append(t1 - t0)


# ----------------------------------------------------------------------
# wire_bulk: 16 pipelined requests over 2 wire connections
# ----------------------------------------------------------------------
BULK_ARMS = (("m2xfp", False), ("m2xfp", True), ("elem-em", False),
             ("mxfp4", True), ("nvfp4", False))
BULK_POOL = 24          # activations per arm, 1..64 rows x 256
BULK_WEIGHTS = 8        # m2xfp weight matrices, 256 x 256
BULK_WEIGHT_EVERY = 8   # every 8th request is a weight request
BULK_INFLIGHT = 16
BULK_CONNECTIONS = 2
BULK_READ_EVERY = 32    # a server_stats() after every 32nd request


class WireBulk(ServingWorkload):
    name = "wire_bulk"
    argv = ["-m", "repro", "serve", "--host", HOST, "--port", "0"]

    def __init__(self, seed: int, spans: Spans | None) -> None:
        super().__init__(seed, spans)
        from repro.server import local_expected
        rng = np.random.default_rng(seed)
        self.items = []     # (fmt, op, packed, x, expected bytes)
        packed_out: dict = {}
        # Every seed gets the same row counts, evenly spread over 1..64,
        # so the work per request does not depend on the seed.
        row_counts = np.linspace(1, 64, BULK_POOL).round().astype(int)
        for fmt, packed in BULK_ARMS:
            for rows in rng.permutation(row_counts):
                x = _activation(rng, int(rows))
                exp = local_expected(x, fmt=fmt, packed=packed)
                if packed:
                    packed_out.setdefault(fmt, []).append(exp)
                    exp_bytes = exp.to_bytes()
                else:
                    exp_bytes = np.asarray(exp, np.float64).tobytes()
                self.items.append((fmt, "activation", packed, x, exp_bytes))
        self.weight_base = len(self.items)
        for _ in range(BULK_WEIGHTS):
            w = rng.standard_normal((256, 256)) * 0.02
            exp = local_expected(w, fmt="m2xfp", op="weight")
            self.items.append(("m2xfp", "weight", False, w,
                               np.asarray(exp, np.float64).tobytes()))
        self.bits_per_element = _payload_bits(packed_out)
        n_act = self.weight_base
        order = []
        for i in range(8192):
            if i % BULK_WEIGHT_EVERY == BULK_WEIGHT_EVERY - 1:
                order.append(self.weight_base
                             + int(rng.integers(0, BULK_WEIGHTS)))
            else:
                order.append(int(rng.integers(0, n_act)))
        self.order = order
        self.loop = asyncio.new_event_loop()
        self.clients: list = []
        self._next = 0
        self.weight_requests = 0

    def connect(self) -> None:
        from repro.server import AsyncQuantClient

        async def _open():
            return [await AsyncQuantClient(HOST, self.port,
                                           timeout=CLIENT_TIMEOUT_S,
                                           retries=0).connect()
                    for _ in range(BULK_CONNECTIONS)]
        self.clients = self.loop.run_until_complete(_open())

    def disconnect(self) -> None:
        async def _close():
            for cli in self.clients:
                await cli.close()
        self.loop.run_until_complete(_close())
        self.clients = []

    def close(self) -> None:
        self.loop.close()

    @staticmethod
    def _bytes(out) -> bytes:
        return out.to_bytes() if hasattr(out, "to_bytes") else out.tobytes()

    def warm(self) -> None:
        """Every arm once and every weight matrix once (the memo fills)."""
        self.connect()
        firsts = [a * BULK_POOL for a in range(len(BULK_ARMS))]
        firsts += range(self.weight_base, len(self.items))

        async def _warm():
            for idx in firsts:
                fmt, op, packed, x, exp = self.items[idx]
                out = await self.clients[0].quantize(x, fmt=fmt, op=op,
                                                     packed=packed)
                if self._bytes(out) != exp:
                    raise RuntimeError(f"warm-up answer for {fmt}:{op} "
                                       f"packed={packed} is wrong")
        self.loop.run_until_complete(_warm())

    def run_slice(self, w: Window, deadline: float) -> None:
        """Keep 16 requests in flight until ``deadline``, then drain."""
        async def one_slot(cli) -> None:
            while time.perf_counter() < deadline:
                i = self._next
                self._next += 1
                fmt, op, packed, x, exp = \
                    self.items[self.order[i % len(self.order)]]
                w.attempted += 1
                t0 = time.perf_counter()
                try:
                    out = await cli.quantize(x, fmt=fmt, op=op,
                                             packed=packed)
                except Exception as exc:  # BUSY, errors: all failures
                    w.fail(f"{fmt}:{op}: {exc!r}")
                    continue
                t1 = time.perf_counter()
                self._span("wire.quantize", t0, t1, trace_id=i)
                if self._bytes(out) == exp:
                    w.latencies.append(t1 - t0)
                    w.ops += 1
                    w.tokens += x.shape[0]
                    self.weight_requests += op == "weight"
                else:
                    w.fail(f"{fmt}:{op} packed={packed}: bytes differ")
                if (i + 1) % BULK_READ_EVERY == 0:
                    w.attempted += 1
                    t0 = time.perf_counter()
                    try:
                        await cli.server_stats()
                    except Exception as exc:
                        w.fail(f"server_stats: {exc!r}")
                        continue
                    t1 = time.perf_counter()
                    self._span("wire.server_stats", t0, t1)
                    w.reads.append(t1 - t0)

        async def _run():
            await asyncio.gather(*(
                one_slot(self.clients[s % BULK_CONNECTIONS])
                for s in range(BULK_INFLIGHT)))
        self.loop.run_until_complete(_run())


# ----------------------------------------------------------------------
# kv_decode: KV sessions back to back over one wire connection
# ----------------------------------------------------------------------
KV_LAYERS = 4
KV_D_HEAD = 64
KV_POLICY = {"default": "m2xfp", "overrides": {"1": "nvfp4", "3": "m2-nvfp4"}}
KV_PREFILL = 16
KV_STEPS = 128
KV_MAX_TOKENS = 96
KV_SINK = 8
KV_READ_EVERY = 16
KV_POOL = 2             # distinct sessions' worth of K/V data


class KvDecode(ServingWorkload):
    name = "kv_decode"
    argv = ["-m", "repro", "serve", "--host", HOST, "--port", "0"]

    def __init__(self, seed: int, spans: Spans | None) -> None:
        super().__init__(seed, spans)
        from repro.kv import KVCacheSession, KVPolicy
        rng = np.random.default_rng(seed)
        tokens = KV_PREFILL + KV_STEPS
        self.sessions = []
        bits_payload = bits_elems = 0
        for _ in range(KV_POOL):
            k = rng.standard_normal((KV_LAYERS, tokens, KV_D_HEAD))
            v = rng.standard_normal((KV_LAYERS, tokens, KV_D_HEAD))
            # The ops: ("append", layer, start, stop) / ("read", layer).
            ops = [("append", l, 0, KV_PREFILL) for l in range(KV_LAYERS)]
            for step in range(1, KV_STEPS + 1):
                pos = KV_PREFILL + step - 1
                ops += [("append", l, pos, pos + 1)
                        for l in range(KV_LAYERS)]
                if step % KV_READ_EVERY == 0:
                    ops.append(("read", (step // KV_READ_EVERY) % KV_LAYERS))
            ops += [("read", l) for l in range(KV_LAYERS)]
            local = KVCacheSession(KV_LAYERS, KVPolicy.from_spec(KV_POLICY),
                                   max_tokens=KV_MAX_TOKENS,
                                   sink_tokens=KV_SINK)
            expected = []
            for op in ops:
                if op[0] == "append":
                    _, l, a, b = op
                    local.append(l, k[l, a:b], v[l, a:b])
                    expected.append(None)
                else:
                    kk, vv = local.read(op[1])
                    # Only READs of a full window (max_tokens held) are
                    # timed, so the metric does not depend on which
                    # phases of a session a run happened to cover.
                    full = local.tokens_held(op[1]) == KV_MAX_TOKENS
                    expected.append((kk.tobytes(), vv.tobytes(), full))
            final = local.close()
            bits_payload += final["payload_bytes"]
            bits_elems += final["packed_elements"]
            self.sessions.append((k, v, ops, expected, final))
        self.bits_per_element = bits_payload * 8.0 / bits_elems
        self.evicted_per_session = self.sessions[0][4]["evicted_tokens"]
        self.client = None
        self._sid = itertools.count()
        self._cur = None
        self.sessions_done = 0
        self.close_stats: list[dict] = []

    def connect(self) -> None:
        from repro.server import QuantClient
        self.client = QuantClient(HOST, self.port, timeout=CLIENT_TIMEOUT_S,
                                  retries=0).connect()

    def _open(self, tag: str) -> str:
        sid = f"{tag}-{self.seed}-{next(self._sid)}"
        self.client.session_open(session_id=sid, n_layers=KV_LAYERS,
                                 policy=KV_POLICY, max_tokens=KV_MAX_TOKENS,
                                 sink_tokens=KV_SINK)
        return sid

    def warm(self) -> None:
        """A short session touching every layer (so every policy
        format), one READ per layer, checked against a local session."""
        from repro.kv import KVCacheSession, KVPolicy
        self.connect()
        k, v, ops, _, _ = self.sessions[0]
        local = KVCacheSession(KV_LAYERS, KVPolicy.from_spec(KV_POLICY),
                               max_tokens=KV_MAX_TOKENS, sink_tokens=KV_SINK)
        sid = self._open("warm")
        for seq, (_, l, a, b) in enumerate(ops[:KV_LAYERS]):
            self.client.session_append(sid, l, k[l, a:b], v[l, a:b], seq=seq)
            local.append(l, k[l, a:b], v[l, a:b])
        for l in range(KV_LAYERS):
            got = self.client.session_read(sid, l)
            want = local.read(l)
            if any(g.tobytes() != e.tobytes() for g, e in zip(got, want)):
                raise RuntimeError(f"warm-up READ of layer {l} is wrong")
        self.client.session_close(sid)

    def run_slice(self, w: Window, deadline: float) -> None:
        """Session ops until ``deadline``; a session spans slices."""
        while time.perf_counter() < deadline:
            if self._cur is None:   # [session id, data, next op, next seq]
                data = self.sessions[self.sessions_done % KV_POOL]
                self._cur = [self._open("kv"), data, 0, 0]
            sid, (k, v, ops, expected, final), idx, seq = self._cur
            if idx == len(ops):
                self._finish_session(w)
                continue
            op, exp = ops[idx], expected[idx]
            w.attempted += 1
            t0 = time.perf_counter()
            try:
                if op[0] == "append":
                    _, l, a, b = op
                    self.client.session_append(sid, l, k[l, a:b], v[l, a:b],
                                               seq=seq)
                else:
                    got = self.client.session_read(sid, op[1])
            except Exception as exc:
                w.fail(f"session {op[0]} layer {op[1]}: {exc!r}")
                self._drop_session()
                continue
            t1 = time.perf_counter()
            self._span(f"session.{op[0]}", t0, t1, trace_id=sid)
            self._cur[2] = idx + 1
            if op[0] == "append":
                self._cur[3] = seq + 1
                w.latencies.append(t1 - t0)
                w.ops += 1
                w.tokens += (op[3] - op[2]) / KV_LAYERS
            elif all(g.tobytes() == e for g, e in zip(got, exp[:2])):
                w.ops += 1
                if exp[2]:
                    w.reads.append(t1 - t0)
                    w.read_labels.append(op[1])
            else:
                w.fail(f"READ layer {op[1]}: bytes differ")

    def _finish_session(self, w: Window) -> None:
        sid, (_, _, _, _, final), _, _ = self._cur
        self._cur = None
        w.attempted += 1
        try:
            stats = self.client.session_close(sid)
        except Exception as exc:
            w.fail(f"session close: {exc!r}")
            return
        self.sessions_done += 1
        self.close_stats.append(stats)
        if stats.get("evicted_tokens") != final["evicted_tokens"]:
            w.fail(f"session {sid} evicted {stats.get('evicted_tokens')} "
                   f"tokens, expected {final['evicted_tokens']}")

    def _drop_session(self) -> None:
        """Abandon the current session (after a failure or at the end)."""
        if self._cur is not None:
            sid = self._cur[0]
            self._cur = None
            try:
                self.client.session_close(sid)
            except (ReproError, OSError):
                pass    # already failed or gone; the failure is counted

    def disconnect(self) -> None:
        if self.client is not None:
            self._drop_session()
            self.client.close()
            self.client = None
