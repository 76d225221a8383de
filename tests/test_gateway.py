"""Gateway conformance: the HTTP contract, pinned and proven live.

The contract under test, in order of importance:

* **Bit-exactness through the front-end** — for every catalog format,
  every dispatch mode, packed and unpacked, the bytes a plain HTTP
  client gets through gateway -> wire protocol -> ``QuantService`` are
  identical to the local library's own answer.
* **Golden HTTP vectors** — request bodies, full response bytes, every
  error-status mapping, ``/healthz`` states and the ``/metrics``
  rendering are pinned in ``tests/golden/http_vectors.json``; the live
  gateway must serve exactly the pinned bytes for the pinned inputs.
* **Observability honesty** — ``/metrics`` counters agree with what
  the test itself sent.
"""

from __future__ import annotations

import base64
import http.client
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.gateway import GatewayThread, healthz_summary, render_metrics
from repro.gateway import http as ghttp
from repro.runner.formats import list_formats, make_format
from repro.serve.service import DISPATCH_MODES
from repro.server import ServerThread
from repro.server.client import local_expected

GOLDEN_PATH = Path(__file__).parent / "golden" / "http_vectors.json"


def _golden() -> dict:
    assert GOLDEN_PATH.exists(), \
        "HTTP vectors missing; run scripts/regen_http_vectors.py --regen"
    with open(GOLDEN_PATH) as f:
        return json.load(f)


# ----------------------------------------------------------------------
# Fixtures: two in-process replicas behind one gateway
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def cluster():
    with ServerThread(port=0) as a, \
            ServerThread(port=0) as b:
        upstreams = [f"127.0.0.1:{a.port}", f"127.0.0.1:{b.port}"]
        with GatewayThread(upstreams=upstreams, port=0,
                           probe_interval_s=0.25) as gw:
            yield gw


def _conn(gw) -> http.client.HTTPConnection:
    return http.client.HTTPConnection("127.0.0.1", gw.port, timeout=60)


def _post_json(conn, fields) -> tuple[int, dict, bytes]:
    conn.request("POST", "/v1/quantize", json.dumps(fields),
                 {"Content-Type": "application/json"})
    resp = conn.getresponse()
    return resp.status, dict(resp.getheaders()), resp.read()


def _quantize(conn, x, *, fmt, op="activation", dispatch="inherit",
              packed=False, raw=False):
    """One gateway round trip, either body encoding; returns (status,
    headers, body)."""
    if raw:
        shape = ",".join(str(d) for d in x.shape)
        conn.request(
            "POST",
            f"/v1/quantize?format={fmt}&op={op}&dispatch={dispatch}"
            f"&shape={shape}&packed={'1' if packed else '0'}",
            np.ascontiguousarray(x, dtype="<f8").tobytes(),
            {"Content-Type": "application/octet-stream"})
        resp = conn.getresponse()
        return resp.status, dict(resp.getheaders()), resp.read()
    return _post_json(conn, {
        "format": fmt, "op": op, "dispatch": dispatch, "packed": packed,
        "shape": list(x.shape),
        "data_b64": base64.b64encode(
            np.ascontiguousarray(x, dtype="<f8").tobytes()).decode()})


def _assert_exact(status, body, x, *, fmt, op, dispatch, packed):
    assert status == 200, f"{fmt}:{op}:{dispatch}: {body!r}"
    expect = local_expected(x, fmt=fmt, op=op, dispatch=dispatch,
                            packed=packed)
    if packed:
        assert body == expect.to_bytes(), \
            f"{fmt}:{op}:{dispatch} packed bytes drifted over HTTP"
    else:
        out = json.loads(body)
        got = np.frombuffer(base64.b64decode(out["data_b64"]),
                            dtype="<f8").reshape(out["shape"])
        assert got.tobytes() == \
            np.asarray(expect, dtype=np.float64).tobytes(), \
            f"{fmt}:{op}:{dispatch} drifted over HTTP"
        assert out["format"] == fmt and out["packed"] is False
        assert out["fingerprint"] == repr(make_format(fmt))


# ----------------------------------------------------------------------
# Acceptance: end-to-end bit-exactness across the whole catalog
# ----------------------------------------------------------------------
def test_every_format_every_dispatch_bit_exact_through_gateway(cluster,
                                                               rng):
    """All 21 formats x all dispatch modes x packed/unpacked, vs the
    locally re-derived result. Ops alternate so both are covered."""
    x = rng.standard_normal((2, 64))
    conn = _conn(cluster)
    try:
        for i, name in enumerate(list_formats()):
            op = "weight" if i % 2 else "activation"
            for dispatch in DISPATCH_MODES:
                for packed in (False, True):
                    status, _, body = _quantize(
                        conn, x, fmt=name, op=op, dispatch=dispatch,
                        packed=packed)
                    _assert_exact(status, body, x, fmt=name, op=op,
                                  dispatch=dispatch, packed=packed)
    finally:
        conn.close()


def test_raw_octet_stream_equals_json_encoding(cluster, rng):
    """Both request encodings land on the same parser: same bytes out."""
    x = rng.standard_normal((2, 64))
    conn = _conn(cluster)
    try:
        for packed in (False, True):
            a = _quantize(conn, x, fmt="m2xfp", op="weight",
                          packed=packed, raw=False)
            b = _quantize(conn, x, fmt="m2xfp", op="weight",
                          packed=packed, raw=True)
            assert a[0] == b[0] == 200 and a[2] == b[2]
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Golden vectors: builders reproduce the pinned bytes...
# ----------------------------------------------------------------------
def test_http_vectors_pinned():
    golden = _golden()
    scripts = Path(__file__).parent.parent / "scripts"
    sys.path.insert(0, str(scripts))
    try:
        from regen_http_vectors import build_payload
        rebuilt = build_payload()
    finally:
        sys.path.pop(0)
    for section in ("quantize", "errors", "healthz"):
        assert set(rebuilt[section]) == set(golden[section]), section
        for key in golden[section]:
            assert rebuilt[section][key] == golden[section][key], \
                f"{section}:{key} drifted from the pinned bytes"
    assert rebuilt["metrics"] == golden["metrics"]
    assert rebuilt["input_hex"] == golden["input_hex"]


@pytest.mark.parametrize("shape", [(16, 256), (2, 3, 32), (0, 8)])
@pytest.mark.parametrize("fingerprint", ["", 'M2XFP(tag="a\\"b", g=32)'])
def test_quantize_response_splice_equals_canonical_json(rng, shape,
                                                        fingerprint):
    # The unpacked answer splices its base64 payload into the canonical
    # bytes; it must equal running canonical_json over the whole body.
    arr = rng.standard_normal(shape)
    got = ghttp.quantize_response(arr, fmt="m2xfp", op="activation",
                                  packed=False, fingerprint=fingerprint)
    want = ghttp.canonical_json({
        "data_b64": base64.b64encode(arr.tobytes()).decode("ascii"),
        "fingerprint": fingerprint, "format": "m2xfp",
        "op": "activation", "packed": False, "shape": list(shape)})
    assert got.body == want
    assert got.to_bytes() == ghttp.json_response(
        json.loads(want)).to_bytes()


# ----------------------------------------------------------------------
# ... and the live gateway serves exactly those bytes.
# ----------------------------------------------------------------------
def test_live_gateway_serves_the_pinned_quantize_bytes(cluster):
    golden = _golden()
    x = np.array([float.fromhex(v) for v in golden["input_hex"]],
                 dtype=np.float64).reshape(golden["shape"])
    conn = _conn(cluster)
    try:
        for key, case in sorted(golden["quantize"].items()):
            pinned = bytes.fromhex(case["response_hex"])
            for body, ctype in (
                    (case["request_json"], "application/json"),
                    (np.ascontiguousarray(x, dtype="<f8").tobytes(),
                     "application/octet-stream")):
                path = "/v1/quantize" if ctype == "application/json" \
                    else f"/v1/quantize?{case['request_query']}"
                conn.request("POST", path, body,
                             {"Content-Type": ctype})
                resp = conn.getresponse()
                raw_status = f"HTTP/1.1 {resp.status}".encode()
                served = resp.read()
                assert pinned.startswith(raw_status), key
                assert pinned.endswith(b"\r\n\r\n" + served), \
                    f"{key} ({ctype}): served body != pinned body"
    finally:
        conn.close()


def test_live_error_statuses_match_the_pinned_contract(cluster, rng):
    """Each live failure maps to the pinned (status, exc_type) pair."""
    golden = _golden()["errors"]
    x = rng.standard_normal((2, 8))
    conn = _conn(cluster)
    try:
        cases = [
            # (golden key, request thunk)
            ("config_error_400", lambda: _quantize(conn, x, fmt="nope")),
            ("format_error_422",
             lambda: _quantize(conn, np.full((2, 8), np.nan),
                               fmt="mxfp4")),
        ]
        for key, thunk in cases:
            status, headers, body = thunk()
            pinned = golden[key]
            assert status == pinned["status"], key
            assert json.loads(body)["exc_type"] == pinned["exc_type"]
        # 404 / 405 / bad bodies.
        conn.request("GET", "/nope")
        resp = conn.getresponse()
        assert resp.status == 404 and resp.read()
        conn.request("GET", "/v1/quantize")
        resp = conn.getresponse()
        assert resp.status == 405 and resp.read()
        conn.request("POST", "/v1/quantize", b"not json",
                     {"Content-Type": "application/json"})
        resp = conn.getresponse()
        assert resp.status == 400
        assert json.loads(resp.read())["exc_type"] == "ConfigError"
        # The retired bit-twiddle dispatch mode is a bad request.
        status, _, body = _quantize(conn, x, fmt="m2xfp",
                                    dispatch="bittwiddle")
        assert status == 400
        assert json.loads(body)["exc_type"] == "ConfigError"
        # Shape/payload mismatch.
        status, _, body = _post_json(conn, {
            "format": "m2xfp", "shape": [4, 4],
            "data_b64": base64.b64encode(b"\0" * 8).decode()})
        assert status == 400
    finally:
        conn.close()


def test_retry_after_on_503(cluster, rng):
    """A draining gateway answers 503 + Retry-After, per the goldens.

    The flag is set directly: a real drain with zero in-flight work
    completes (correctly) before a request could observe the window.
    The full drain lifecycle is covered by the slow CLI SIGTERM test.
    """
    golden = _golden()["errors"]["draining_503"]
    assert golden["retry_after"] is not None
    with ServerThread(port=0) as srv:
        with GatewayThread(upstreams=[f"127.0.0.1:{srv.port}"],
                           port=0, probe_interval_s=10.0) as gw:
            gw.gateway._draining = True
            conn = _conn(gw)
            try:
                status, headers, body = _quantize(
                    conn, rng.standard_normal((2, 8)), fmt="m2xfp")
                assert status == 503
                assert headers.get("retry-after") == \
                    golden["retry_after"]
                assert json.loads(body)["exc_type"] == "ServerDraining"
                # healthz keeps answering during the drain.
                conn.request("GET", "/healthz")
                resp = conn.getresponse()
                assert json.loads(resp.read())["status"] == "draining"
            finally:
                conn.close()
                gw.gateway._draining = False


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------
def test_healthz_ok_and_schema(cluster):
    conn = _conn(cluster)
    try:
        conn.request("GET", "/healthz")
        resp = conn.getresponse()
        body = json.loads(resp.read())
        assert resp.status == 200 and body["status"] == "ok"
        assert body["routable"] == 2 and not body["draining"]
        for info in body["replicas"].values():
            assert info["state"] == "up" and not info["ejected"]
    finally:
        conn.close()


def test_metrics_counters_match_what_we_sent(cluster, rng):
    """/metrics requests_total moves by exactly what the test sends."""
    x = rng.standard_normal((2, 16))
    before = cluster.gateway.snapshot()["requests_total"]
    conn = _conn(cluster)
    try:
        for _ in range(5):
            status, _, _ = _quantize(conn, x, fmt="smx4", op="weight")
            assert status == 200
        conn.request("GET", "/metrics")
        resp = conn.getresponse()
        text = resp.read().decode()
        assert resp.status == 200
        assert resp.getheader("content-type").startswith("text/plain")
    finally:
        conn.close()
    snap = cluster.gateway.snapshot()
    assert snap["requests_total"] == before + 5
    assert snap["arms"]["smx4:weight:unpacked"]["requests"] >= 5
    # The exposition carries the pinned metric schema...
    names = {line.split()[2] for line in text.splitlines()
             if line.startswith("# TYPE ")}
    assert names == set(_golden()["metrics"]["metric_names"])
    # ... and the live rendering is the pure renderer applied to the
    # live snapshot (modulo the requests that happened in between).
    assert "repro_gateway_requests_total" in text
    assert render_metrics(snap).splitlines()[0] == text.splitlines()[0]


def test_upstream_cache_hit_stats_surface_in_metrics(cluster, rng):
    """Repeated weight uploads memo-hit upstream; /metrics reports it."""
    x = rng.standard_normal((2, 32))
    conn = _conn(cluster)
    try:
        for _ in range(3):  # same tensor -> upstream weight memo hits
            _quantize(conn, x, fmt="mxint8", op="weight")
    finally:
        conn.close()
    # Wait for a probe to refresh the replica health snapshots.
    import time
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        snap = cluster.gateway.snapshot()
        hits = sum((info.get("health") or {})
                   .get("services", {}).get("weight_cache_hits", 0)
                   for info in snap["replicas"].values())
        if hits >= 2:
            break
        time.sleep(0.1)
    assert hits >= 2, "weight memo hits never surfaced via HEALTH probes"
    text = render_metrics(snap)
    assert "repro_gateway_replica_weight_cache_hits_total" in text


def _federated_view(health: dict) -> dict:
    """The subset of a replica health dict that feeds the federated
    ``repro_gateway_replica_*`` families — shared between the probed
    snapshot and a direct ``server_stats()`` read so the two can be
    compared for exact equality."""
    metrics = health.get("metrics") or {}
    return {
        "plan_cache": metrics.get("plan_cache"),
        "arms": {key: (metrics[key], metrics.get(f"{key}.latency"))
                 for key in metrics
                 if key.startswith("serve.")
                 and not key.endswith(".latency")},
        "busy": (health.get("stats") or {}).get("busy_rejections", 0),
        "open": (health.get("sessions") or {}).get("open", 0),
    }


def test_federated_replica_metrics_match_server_stats_exactly(cluster,
                                                              rng):
    """The acceptance crosscheck (ISSUE 10): every federated value on
    ``GET /metrics`` — plan-cache hit rate, per-arm batch size and p99,
    BUSY counts, KV session occupancy — equals a direct
    ``QuantClient.server_stats()`` read of the replica, exactly."""
    import time

    from repro.server import QuantClient

    x = rng.standard_normal((2, 32))
    conn = _conn(cluster)
    try:
        for fmt in ("m2xfp", "elem-em"):
            for _ in range(3):
                assert _quantize(conn, x, fmt=fmt, packed=True)[0] == 200
        # an open session so occupancy is nonzero on its home replica
        conn.request("POST", "/v1/session/open", json.dumps({
            "session_id": "fed-kv", "n_layers": 1,
            "policy": {"default": "m2xfp", "op": "weight"}}),
            {"Content-Type": "application/json"})
        assert conn.getresponse().read() and True
        # traffic stops here: the compared values are now quiescent.
        replicas = sorted(cluster.gateway.snapshot()["replicas"])
        direct = {}
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            snap = cluster.gateway.snapshot()
            for name in replicas:
                port = int(name.rsplit(":", 1)[1])
                with QuantClient(port=port) as cli:
                    direct[name] = cli.server_stats()
            views = {name: _federated_view(
                         snap["replicas"][name].get("health") or {})
                     for name in replicas}
            if all(views[name] == _federated_view(direct[name])
                   and views[name]["arms"] for name in replicas) \
                    and any(views[name]["open"] for name in replicas):
                break
            time.sleep(0.1)
        else:
            pytest.fail("probed health never converged with direct "
                        "server_stats() reads")
        conn.request("GET", "/metrics")
        resp = conn.getresponse()
        text = resp.read().decode()
        assert resp.status == 200
        # Build every expected sample line from the *direct* reads with
        # the renderer's own formulas; each must appear verbatim.
        for name in replicas:
            stats = direct[name]
            label = f'replica="{name}"'
            plan = stats["metrics"]["plan_cache"]
            lookups = plan["hits"] + plan["misses"]
            rate = plan["hits"] / lookups if lookups else 0.0
            assert (f'repro_gateway_replica_plan_cache_hit_rate'
                    f'{{{label}}} {rate:g}') in text
            busy = stats["stats"].get("busy_rejections", 0)
            assert (f'repro_gateway_replica_busy_total{{{label}}} '
                    f'{busy}') in text
            open_sessions = stats["sessions"].get("open", 0)
            assert (f'repro_gateway_replica_sessions_open{{{label}}} '
                    f'{open_sessions}') in text
            for key, (svc, lat) in \
                    _federated_view(stats)["arms"].items():
                arm_label = f'{label},arm="{key[len("serve."):]}"'
                assert (f'repro_gateway_replica_arm_requests_total'
                        f'{{{arm_label}}} {svc["requests"]}') in text
                p99 = round((lat or {}).get("p99", 0.0) * 1e3, 3)
                assert (f'repro_gateway_replica_arm_p99_ms'
                        f'{{{arm_label}}} {p99:g}') in text
    finally:
        try:
            conn.request("POST", "/v1/session/close",
                         json.dumps({"session_id": "fed-kv"}),
                         {"Content-Type": "application/json"})
            conn.getresponse().read()
        finally:
            conn.close()


def test_request_id_echoed_or_minted(cluster, rng):
    """The gateway echoes a caller's X-Request-Id header back on the
    response (wire-propagated tracing); absent one, it mints gw-<n>."""
    x = rng.standard_normal((2, 16))
    conn = _conn(cluster)
    try:
        conn.request("POST", "/v1/quantize", json.dumps({
            "format": "m2xfp", "op": "activation", "packed": False,
            "shape": list(x.shape),
            "data_b64": base64.b64encode(x.tobytes()).decode()}),
            {"Content-Type": "application/json",
             "X-Request-Id": "trace-me-42"})
        resp = conn.getresponse()
        resp.read()
        assert resp.status == 200
        assert resp.getheader("X-Request-Id") == "trace-me-42"
        status, headers, _ = _quantize(conn, x, fmt="m2xfp")
        assert status == 200
        minted = {k.lower(): v for k, v in headers.items()}[
            "x-request-id"]
        assert minted.startswith("gw-")
        # errors carry the id too: the trace covers failed requests
        conn.request("GET", "/nope", None,
                     {"X-Request-Id": "err-7"})
        resp = conn.getresponse()
        resp.read()
        assert resp.status == 404
        assert resp.getheader("X-Request-Id") == "err-7"
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Routing invariants observable from outside
# ----------------------------------------------------------------------
def test_format_affinity_pins_each_format_to_one_replica(cluster, rng):
    """Consistent hashing: one format's requests land on one replica."""
    x = rng.standard_normal((2, 16))
    conn = _conn(cluster)
    try:
        for fmt in ("m2xfp", "nvfp4", "smx6", "msfp12"):
            for _ in range(3):
                assert _quantize(conn, x, fmt=fmt)[0] == 200
    finally:
        conn.close()
    gw = cluster.gateway
    for fmt in ("m2xfp", "nvfp4", "smx6", "msfp12"):
        owner = gw.ring.route(gw.fingerprint(fmt))
        assert owner in gw.replicas  # the pinned owner is a real replica


def test_cli_gateway_parses_and_wires_config(monkeypatch):
    from repro.runner import cli as cli_mod

    captured = {}

    class _FakeGateway:
        def __init__(self, upstreams, **kwargs):
            captured["upstreams"] = list(upstreams)
            captured.update(kwargs)

    def _fake_run(gateway, ready=None):
        captured["ran"] = True

    import repro.gateway as gw_pkg
    monkeypatch.setattr(gw_pkg, "QuantGateway", _FakeGateway)
    monkeypatch.setattr(gw_pkg, "run_gateway", _fake_run)
    rc = cli_mod.main(["gateway", "--port", "0",
                       "--upstream", "127.0.0.1:7431,127.0.0.1:7432",
                       "--hash-seed", "7", "--probe-interval-s", "0.5",
                       "--upstream-timeout-s", "11",
                       "--drain-timeout-s", "9"])
    assert rc == 0 and captured["ran"]
    assert captured["upstreams"] == ["127.0.0.1:7431", "127.0.0.1:7432"]
    assert captured["port"] == 0
    assert captured["hash_seed"] == 7
    assert captured["probe_interval_s"] == 0.5
    assert captured["upstream_timeout_s"] == 11.0
    assert captured["drain_timeout_s"] == 9.0


@pytest.mark.parametrize("command", ["serve", "gateway"])
def test_cli_has_no_batch_window_option(command):
    # Batching is work-conserving: there is no collection window to set.
    from repro.runner import cli as cli_mod
    with pytest.raises(SystemExit):
        cli_mod.main([command, "--max-delay-s", "0.002"])


@pytest.mark.slow
def test_cli_gateway_subprocess_end_to_end(rng):
    """`python -m repro gateway` launches replicas, serves, drains on
    SIGTERM."""
    import os
    import signal
    import subprocess

    repo = Path(__file__).resolve().parent.parent
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "gateway", "--port", "0",
         "--replicas", "2"],
        stdout=subprocess.PIPE, text=True, cwd=repo,
        env={**os.environ, "PYTHONPATH": str(repo / "src")})
    try:
        line = proc.stdout.readline()
        assert "gateway on" in line
        port = int(line.split("gateway on ")[1].split()[0]
                   .rsplit(":", 1)[1])
        x = rng.standard_normal((2, 32))
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        status, _, body = _quantize(conn, x, fmt="m2xfp", op="weight")
        _assert_exact(status, body, x, fmt="m2xfp", op="weight",
                      dispatch="inherit", packed=False)
        conn.request("GET", "/healthz")
        assert json.loads(conn.getresponse().read())["status"] == "ok"
        conn.close()
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 0  # graceful drain, clean exit
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
