"""Gateway chaos: replica failures must stay invisible to HTTP clients.

The contract under test, in order of importance:

1. **Failover transparency** — a replica dying mid-request (chaos-proxy
   connection kills, real SIGKILL) costs the gateway a failover, never
   the client an error: every HTTP response is 200 and bit-exact
   against the local re-derivation. Safe by the idempotency contract
   (DESIGN.md §9): the gateway blindly re-sends the identical request
   to the next replica in the key's preference order.
2. **Drain redistribution** — draining one replica moves its formats'
   traffic onto the survivors with zero client-visible errors.
3. **Honest degradation** — an unreachable/crash-looping replica is
   ejected from routing and ``/healthz`` reports ``degraded`` (or
   ``down`` + 503 when nothing is routable), never a lying ``ok``.
"""

from __future__ import annotations

import base64
import http.client
import json
import os
import signal
import socket
import time

import numpy as np
import pytest

from repro.gateway import GatewayThread, ReplicaCluster
from repro.kv import KVCacheSession
from repro.server import FaultPlan, FaultProxy, QuantClient, ServerThread
from repro.server.client import local_expected

CHAOS_FORMATS = ("m2xfp", "elem-em", "m2-nvfp4", "nvfp4", "smx6")


def _quantize(conn, x, *, fmt, op="weight", packed=False):
    conn.request("POST", "/v1/quantize", json.dumps({
        "format": fmt, "op": op, "packed": packed,
        "shape": list(x.shape),
        "data_b64": base64.b64encode(x.tobytes()).decode()}),
        {"Content-Type": "application/json"})
    resp = conn.getresponse()
    return resp.status, resp.read()


def _assert_exact(status, body, x, *, fmt, op="weight", packed=False):
    assert status == 200, f"{fmt}:{op}: client saw {status}: {body!r}"
    expect = local_expected(x, fmt=fmt, op=op, packed=packed)
    if packed:
        assert body == expect.to_bytes()
    else:
        got = np.frombuffer(
            base64.b64decode(json.loads(body)["data_b64"]), "<f8")
        assert got.tobytes() == \
            np.asarray(expect, np.float64).ravel().tobytes()


def _healthz(conn) -> tuple[int, dict]:
    conn.request("GET", "/healthz")
    resp = conn.getresponse()
    return resp.status, json.loads(resp.read())


def _dead_endpoint() -> str:
    """A host:port that refuses connections (bound once, then closed)."""
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return f"127.0.0.1:{port}"


# ----------------------------------------------------------------------
# 1. Connection-kill chaos on one replica: zero client-visible errors
# ----------------------------------------------------------------------
def test_replica_kills_fail_over_bit_exactly(rng):
    """One replica's wire is chaos-killed; the gateway's failover keeps
    every HTTP answer 200 and bit-exact."""
    x = rng.standard_normal((2, 64))
    plan = FaultPlan(seed=11, kill_prob=0.35)
    with ServerThread(port=0) as chaotic, \
            ServerThread(port=0) as stable, \
            FaultProxy(target_port=chaotic.port, plan=plan) as px:
        upstreams = [f"127.0.0.1:{px.port}", f"127.0.0.1:{stable.port}"]
        with GatewayThread(upstreams=upstreams, port=0,
                           probe_interval_s=0.2,
                           upstream_timeout_s=15.0) as gw:
            conn = http.client.HTTPConnection("127.0.0.1", gw.port,
                                              timeout=60)
            try:
                for i in range(20):
                    fmt = CHAOS_FORMATS[i % len(CHAOS_FORMATS)]
                    status, body = _quantize(conn, x, fmt=fmt,
                                             packed=(i % 2 == 0))
                    _assert_exact(status, body, x, fmt=fmt,
                                  packed=(i % 2 == 0))
            finally:
                conn.close()
            # The chaos must actually have bitten — and been absorbed.
            snap = gw.gateway.snapshot()
            assert px.stats["killed"] > 0
            if px.stats["killed"] > snap["upstream"]["probe_failures"]:
                assert snap["upstream"]["failovers"] > 0
            assert snap["requests_total"] == 20


# ----------------------------------------------------------------------
# 2. Draining one replica redistributes its traffic
# ----------------------------------------------------------------------
def test_drain_of_one_replica_redistributes_traffic(rng):
    x = rng.standard_normal((2, 64))
    with ServerThread(port=0) as a, \
            ServerThread(port=0) as b:
        upstreams = [f"127.0.0.1:{a.port}", f"127.0.0.1:{b.port}"]
        with GatewayThread(upstreams=upstreams, port=0,
                           probe_interval_s=0.1) as gw:
            conn = http.client.HTTPConnection("127.0.0.1", gw.port,
                                              timeout=60)
            try:
                for fmt in CHAOS_FORMATS:  # warm every arm's owner
                    _assert_exact(*_quantize(conn, x, fmt=fmt), x,
                                  fmt=fmt)
                # Drain replica A out from under the gateway.
                with QuantClient(port=a.port) as direct:
                    ack = direct.drain()
                    assert ack["draining"]
                a.drain(timeout=30.0)
                # Every format keeps answering — the drained replica's
                # arms now ride its failover target. Zero errors.
                for i in range(10):
                    fmt = CHAOS_FORMATS[i % len(CHAOS_FORMATS)]
                    _assert_exact(*_quantize(conn, x, fmt=fmt), x,
                                  fmt=fmt)
                # The probe loop notices and /healthz stops saying ok.
                deadline = time.monotonic() + 15.0
                while time.monotonic() < deadline:
                    code, body = _healthz(conn)
                    if body["status"] != "ok":
                        break
                    time.sleep(0.05)
                assert code == 200 and body["status"] == "degraded"
                name = f"127.0.0.1:{a.port}"
                assert body["replicas"][name]["state"] in ("down",
                                                           "draining")
                # All post-drain traffic landed on the survivor.
                snap = gw.gateway.snapshot()
                survivor = f"127.0.0.1:{b.port}"
                assert snap["replica_requests"][survivor] >= 10
            finally:
                conn.close()


# ----------------------------------------------------------------------
# 3. Unreachable replica: ejection + honest /healthz
# ----------------------------------------------------------------------
def test_dead_replica_is_ejected_and_healthz_degrades(rng):
    x = rng.standard_normal((2, 32))
    dead = _dead_endpoint()
    with ServerThread(port=0) as live:
        upstreams = [f"127.0.0.1:{live.port}", dead]
        with GatewayThread(upstreams=upstreams, port=0,
                           probe_interval_s=0.05,
                           eject_threshold=2) as gw:
            # Probes strike the dead endpoint until it is ejected.
            deadline = time.monotonic() + 15.0
            while not gw.gateway.replicas[dead].ejected and \
                    time.monotonic() < deadline:
                time.sleep(0.05)
            assert gw.gateway.replicas[dead].ejected
            conn = http.client.HTTPConnection("127.0.0.1", gw.port,
                                              timeout=60)
            try:
                code, body = _healthz(conn)
                assert code == 200 and body["status"] == "degraded"
                assert body["replicas"][dead]["ejected"]
                assert body["routable"] == 1
                # Every format still answers via the live replica —
                # including those the ring maps to the dead one.
                for fmt in CHAOS_FORMATS:
                    _assert_exact(*_quantize(conn, x, fmt=fmt), x,
                                  fmt=fmt)
            finally:
                conn.close()


def test_zero_routable_replicas_is_down_not_ok(rng):
    dead = _dead_endpoint()
    with GatewayThread(upstreams=[dead], port=0, probe_interval_s=0.05,
                       eject_threshold=1) as gw:
        conn = http.client.HTTPConnection("127.0.0.1", gw.port,
                                          timeout=30)
        try:
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline:
                code, body = _healthz(conn)
                if code == 503:
                    break
                time.sleep(0.05)
            assert code == 503 and body["status"] == "down"
            # Quantize fails *typed*: a 502 upstream error, not a hang.
            status, payload = _quantize(
                conn, rng.standard_normal((2, 8)), fmt="m2xfp")
            assert status == 502
            assert json.loads(payload)["status"] == 502
        finally:
            conn.close()


# ----------------------------------------------------------------------
# 4. Streaming KV sessions: pinned routing, 410 Gone, replay recovery
# ----------------------------------------------------------------------
def _session(conn, action, fields) -> tuple[int, bytes]:
    conn.request("POST", f"/v1/session/{action}", json.dumps(fields),
                 {"Content-Type": "application/json"})
    resp = conn.getresponse()
    return resp.status, resp.read()


def _append_fields(sid, layer, seq, k, v) -> dict:
    def b64(a):
        return base64.b64encode(
            np.ascontiguousarray(a, dtype="<f8").tobytes()).decode()
    return {"session_id": sid, "layer": layer, "seq": seq,
            "k_b64": b64(k), "k_shape": list(k.shape),
            "v_b64": b64(v), "v_shape": list(v.shape)}


def _read_kv(body: bytes) -> tuple[np.ndarray, np.ndarray]:
    fields = json.loads(body)
    return tuple(
        np.frombuffer(base64.b64decode(fields[f"{side}_b64"]),
                      "<f8").reshape(fields[f"{side}_shape"])
        for side in ("k", "v"))


def test_session_ops_pin_to_one_replica_and_unknown_is_410(rng):
    """All of one session's ops land on its home replica (no failover
    spraying state across the cluster); a session nobody holds answers
    410 Gone carrying the typed SessionLost."""
    blocks = [(rng.standard_normal((2, 64)), rng.standard_normal((2, 64)))
              for _ in range(4)]
    with ServerThread(port=0) as a, ServerThread(port=0) as b:
        upstreams = [f"127.0.0.1:{a.port}", f"127.0.0.1:{b.port}"]
        with GatewayThread(upstreams=upstreams, port=0,
                           probe_interval_s=0.2) as gw:
            conn = http.client.HTTPConnection("127.0.0.1", gw.port,
                                              timeout=60)
            try:
                status, body = _session(conn, "read",
                                        {"session_id": "ghost",
                                         "layer": 0})
                assert status == 410
                err = json.loads(body)
                assert err["exc_type"] == "SessionLost"
                assert err["status"] == 410
                status, _ = _session(conn, "open",
                                     {"session_id": "pinned",
                                      "n_layers": 1})
                assert status == 200
                local = KVCacheSession(1)
                for seq, (k, v) in enumerate(blocks):
                    status, _ = _session(conn, "append", _append_fields(
                        "pinned", 0, seq, k, v))
                    assert status == 200
                    local.append(0, k, v)
                status, body = _session(conn, "read",
                                        {"session_id": "pinned",
                                         "layer": 0})
                assert status == 200
                K, V = _read_kv(body)
                lk, lv = local.read(0)
                assert K.tobytes() == lk.tobytes()
                assert V.tobytes() == lv.tobytes()
                # Exactly one replica ever saw the session.
                touched = [st for st in (a, b)
                           if st.server.stats["session_opens"] > 0]
                assert len(touched) == 1
                assert touched[0].server.stats["session_appends"] \
                    == len(blocks)
            finally:
                conn.close()


@pytest.mark.slow
def test_sigkill_home_replica_yields_410_then_replay_recovers(rng):
    """SIGKILL the replica holding a session's state: the next session
    op surfaces 410 Gone (typed SessionLost) — never a silent fresh
    stream — and the client-side reopen + replay protocol restores a
    bit-exact cache through the gateway."""
    sid = "kv-chaos"
    blocks = [(rng.standard_normal((2, 64)), rng.standard_normal((2, 64)))
              for _ in range(5)]
    with ReplicaCluster(replicas=2, backoff_base_s=0.01) as cluster:
        with GatewayThread(upstreams=cluster.endpoints, port=0,
                           probe_interval_s=0.1,
                           upstream_timeout_s=15.0) as gw:
            conn = http.client.HTTPConnection("127.0.0.1", gw.port,
                                              timeout=60)
            try:
                assert _session(conn, "open", {"session_id": sid,
                                               "n_layers": 1})[0] == 200
                for seq in range(3):
                    k, v = blocks[seq]
                    assert _session(conn, "append", _append_fields(
                        sid, 0, seq, k, v))[0] == 200
                home = gw.gateway._session_replica(sid).name
                victim = next(p for p in cluster.pools
                              if f"{p.host}:{p.port}" == home)
                os.kill(victim._procs[0].pid, signal.SIGKILL)
                # The next append must answer 410 (the home's state died
                # with it) after transient 502/503s — never 200.
                deadline = time.monotonic() + 30.0
                while time.monotonic() < deadline:
                    status, body = _session(conn, "append", _append_fields(
                        sid, 0, 3, *blocks[3]))
                    if status not in (502, 503):
                        break
                    time.sleep(0.1)
                assert status == 410, (status, body)
                assert json.loads(body)["exc_type"] == "SessionLost"
                # Client recovery: reopen + full replay. Routing follows
                # health, so a mid-replay 410 (the home flapping back)
                # just restarts the loop — the protocol converges.
                local = KVCacheSession(1)
                for k, v in blocks:
                    local.append(0, k, v)
                deadline = time.monotonic() + 60.0
                replayed = False
                while not replayed and time.monotonic() < deadline:
                    # Best-effort close first: clears any stale partial
                    # state where the ops currently route, so the open
                    # below starts a fresh stream at seq 0.
                    _session(conn, "close", {"session_id": sid})
                    if _session(conn, "open", {"session_id": sid,
                                               "n_layers": 1})[0] != 200:
                        time.sleep(0.1)
                        continue
                    replayed = True
                    for seq, (k, v) in enumerate(blocks):
                        while True:
                            status, _ = _session(conn, "append",
                                                 _append_fields(
                                                     sid, 0, seq, k, v))
                            if status in (502, 503):
                                time.sleep(0.1)
                                continue
                            break
                        if status != 200:   # routing moved: reopen
                            replayed = False
                            break
                assert replayed, "session replay never converged"
                status, body = _session(conn, "read",
                                        {"session_id": sid, "layer": 0})
                assert status == 200
                K, V = _read_kv(body)
                lk, lv = local.read(0)
                assert K.tobytes() == lk.tobytes()
                assert V.tobytes() == lv.tobytes()
            finally:
                conn.close()


# ----------------------------------------------------------------------
# 5. Real process SIGKILL mid-stream (slow: spawns interpreters)
# ----------------------------------------------------------------------
@pytest.mark.slow
def test_sigkill_replica_mid_stream_invisible_to_clients(rng):
    """SIGKILL a real replica process while requests stream through the
    gateway: zero client-visible errors, bit-exact answers, and the
    supervisor + probe loop bring the replica back."""
    x = rng.standard_normal((2, 64))
    with ReplicaCluster(replicas=2, backoff_base_s=0.01) as cluster:
        with GatewayThread(upstreams=cluster.endpoints, port=0,
                           probe_interval_s=0.1,
                           upstream_timeout_s=15.0) as gw:
            conn = http.client.HTTPConnection("127.0.0.1", gw.port,
                                              timeout=60)
            try:
                for fmt in CHAOS_FORMATS:
                    _assert_exact(*_quantize(conn, x, fmt=fmt), x,
                                  fmt=fmt)
                victim_pool = cluster.pools[0]
                victim = f"{victim_pool.host}:{victim_pool.port}"
                os.kill(victim_pool._procs[0].pid, signal.SIGKILL)
                # Stream right through the kill window: every answer
                # must still be 200 and bit-exact.
                for i in range(30):
                    fmt = CHAOS_FORMATS[i % len(CHAOS_FORMATS)]
                    _assert_exact(*_quantize(conn, x, fmt=fmt), x,
                                  fmt=fmt)
                # Supervision restarted the worker...
                deadline = time.monotonic() + 30.0
                while victim_pool.stats()["restarts"] < 1 and \
                        time.monotonic() < deadline:
                    time.sleep(0.05)
                assert victim_pool.stats()["restarts"] >= 1
                # ... and the probe loop reinstates the replica.
                deadline = time.monotonic() + 30.0
                while gw.gateway.replicas[victim].state != "up" and \
                        time.monotonic() < deadline:
                    time.sleep(0.05)
                assert gw.gateway.replicas[victim].state == "up"
                code, body = _healthz(conn)
                assert body["status"] == "ok"
            finally:
                conn.close()
