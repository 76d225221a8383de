"""Network quantization server: protocol, bit-exactness, backpressure.

The contract under test, in order of importance:

1. **End-to-end bit-exactness** — for every catalog format and both
   operand paths, the bytes a client gets over the socket are identical
   to the local ``quantize_weight`` / ``quantize_activation`` output
   (and packed responses are byte-identical to the local codec's
   ``encode``), including under concurrent multi-client load.
2. **Wire stability** — frames are pinned byte-exactly by
   ``tests/golden/wire_vectors.json``; malformed or mis-versioned
   frames are typed protocol errors, never crashes or hangs.
3. **Backpressure** — at the in-flight bound the server answers
   ``BUSY`` immediately instead of buffering without bound.
"""

from __future__ import annotations

import asyncio
import inspect
import json
import sys
import threading
import time
import types
from pathlib import Path

import numpy as np
import pytest

from repro.codec import PackedTensor, encode
from repro.errors import (CodecError, ConfigError, FormatError,
                          ProtocolError, ServerBusy, ServerDraining,
                          ServerError)
from repro.runner.formats import list_formats, make_format
from repro.server import (AsyncQuantClient, QuantClient, QuantServer,
                          ServerThread, local_expected, protocol)

GOLDEN_PATH = Path(__file__).parent / "golden" / "wire_vectors.json"


# ----------------------------------------------------------------------
# Protocol frames
# ----------------------------------------------------------------------
def test_request_frame_roundtrip(rng):
    x = rng.standard_normal((3, 32))
    blob = protocol.encode_request(7, x, fmt="m2xfp", op="weight",
                                   dispatch="reference", packed=True,
                                   fingerprint="fp")
    frame = protocol.frame_from_bytes(blob)
    assert frame.kind == protocol.KIND_REQUEST
    assert frame.request_id == 7
    req = protocol.decode_request(frame)
    assert (req.format_name, req.op, req.dispatch, req.packed,
            req.fingerprint) == ("m2xfp", "weight", "reference", True, "fp")
    assert req.x.tobytes() == np.asarray(x, dtype=np.float64).tobytes()


def test_response_frame_roundtrips(rng):
    arr = rng.standard_normal((2, 16))
    frame = protocol.frame_from_bytes(
        protocol.encode_response_array(3, arr, fingerprint="f"))
    out = protocol.response_result(frame)
    assert out.tobytes() == arr.tobytes() and out.shape == arr.shape

    pt = encode(make_format("mxfp4"), rng.standard_normal((2, 32)))
    frame = protocol.frame_from_bytes(
        protocol.encode_response_packed(4, pt))
    assert protocol.response_result(frame).to_bytes() == pt.to_bytes()


@pytest.mark.parametrize("status,exc_cls", [
    (protocol.Status.BUSY, ServerBusy),
    (protocol.Status.FORMAT_ERROR, FormatError),
    (protocol.Status.CONFIG_ERROR, ConfigError),
    (protocol.Status.CODEC_ERROR, CodecError),
    (protocol.Status.PROTOCOL_ERROR, ProtocolError),
    (protocol.Status.INTERNAL_ERROR, ServerError),
    (protocol.Status.DRAINING, ServerDraining),
])
def test_error_status_maps_to_typed_exception(status, exc_cls):
    frame = protocol.frame_from_bytes(
        protocol.encode_response_error(9, status, "boom"))
    with pytest.raises(exc_cls, match="boom"):
        protocol.response_result(frame)


def test_malformed_frames_raise_protocol_error(rng):
    good = protocol.encode_request(1, rng.standard_normal(8), fmt="m2xfp")
    with pytest.raises(ProtocolError, match="magic"):
        protocol.frame_from_bytes(good[:4] + b"XXXX" + good[8:])
    bad_version = bytearray(good)
    bad_version[8] = 99  # version byte (after 4B length + 4B magic)
    with pytest.raises(ProtocolError, match="version"):
        protocol.frame_from_bytes(bytes(bad_version))
    with pytest.raises(ProtocolError, match="length prefix"):
        protocol.frame_from_bytes(good[:-1])
    with pytest.raises(ProtocolError, match="limit"):
        protocol.frame_from_bytes(b"\xff\xff\xff\xff" + good[4:])


def test_request_validation(rng):
    x = rng.standard_normal(8)
    for kwargs, msg in [
        (dict(op="nope"), "op"),
        (dict(dispatch="warp"), "dispatch"),
        (dict(dispatch="bittwiddle"), "dispatch"),  # retired mode
    ]:
        blob = protocol.encode_request(1, x, fmt="m2xfp", **kwargs)
        with pytest.raises(ProtocolError, match=msg):
            protocol.decode_request(protocol.frame_from_bytes(blob))
    # Payload length must agree with the declared shape.
    frame = protocol.frame_from_bytes(
        protocol.encode_request(1, x, fmt="m2xfp"))
    frame.meta["shape"] = [99]
    with pytest.raises(ProtocolError, match="payload"):
        protocol.decode_request(frame)


# ----------------------------------------------------------------------
# Golden wire vectors
# ----------------------------------------------------------------------
def test_wire_vectors_pinned():
    """Frames rebuilt from committed inputs must match the pinned bytes."""
    assert GOLDEN_PATH.exists(), \
        "wire vectors missing; run scripts/regen_wire_vectors.py --regen"
    with open(GOLDEN_PATH) as f:
        golden = json.load(f)
    assert golden["protocol_version"] == protocol.PROTOCOL_VERSION, \
        "protocol version changed without regenerating the wire vectors"
    scripts = Path(__file__).parent.parent / "scripts"
    sys.path.insert(0, str(scripts))
    try:
        from regen_wire_vectors import build_payload
        rebuilt = build_payload()
    finally:
        sys.path.pop(0)
    assert set(rebuilt["cases"]) == set(golden["cases"])
    for key, case in sorted(golden["cases"].items()):
        fresh = rebuilt["cases"][key]
        assert fresh["request_hex"] == case["request_hex"], \
            f"{key}: request frame drifted from the golden bytes"
        assert fresh["response_hex"] == case["response_hex"], \
            f"{key}: response frame drifted from the golden bytes"
        # The pinned frames must also still parse and round-trip.
        req = protocol.decode_request(
            protocol.frame_from_bytes(bytes.fromhex(case["request_hex"])))
        assert req.format_name == case["format"] and req.op == case["op"]
        result = protocol.response_result(
            protocol.frame_from_bytes(bytes.fromhex(case["response_hex"])))
        expected = local_expected(req.x, fmt=case["format"], op=case["op"],
                                  packed=case["packed"])
        if case["packed"]:
            assert result.to_bytes() == expected.to_bytes()
        else:
            assert result.tobytes() == expected.tobytes()
    # The v2 control frames (PING / HEALTH / DRAIN) are pinned too.
    control = golden["control"]
    assert rebuilt["control"] == control
    ping = protocol.frame_from_bytes(bytes.fromhex(control["ping_hex"]))
    assert ping.kind == protocol.KIND_PING
    assert ping.request_id == control["request_id"]
    health = protocol.decode_health(
        protocol.frame_from_bytes(bytes.fromhex(control["health_hex"])))
    assert health == control["health_info"]
    drain = protocol.frame_from_bytes(bytes.fromhex(control["drain_hex"]))
    assert drain.kind == protocol.KIND_DRAIN


# ----------------------------------------------------------------------
# End-to-end over a real socket
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def server():
    with ServerThread(port=0) as st:
        yield st


def test_every_catalog_format_bit_exact_over_socket(server, rng):
    """Acceptance: socket results == local quantize for all 21 formats."""
    x = rng.standard_normal((4, 64))
    with QuantClient(port=server.port) as cli:
        for name in list_formats():
            for op in ("weight", "activation"):
                out = cli.quantize(x, fmt=name, op=op)
                expect = local_expected(x, fmt=name, op=op)
                assert out.tobytes() == expect.tobytes(), \
                    f"{name}:{op} drifted over the wire"


def test_packed_responses_byte_identical_to_local_encode(server, rng):
    x = rng.standard_normal((4, 64))
    with QuantClient(port=server.port) as cli:
        for name in ("m2xfp", "elem-em", "m2-nvfp4", "mxfp4"):
            pt = cli.quantize(x, fmt=name, op="weight", packed=True)
            assert isinstance(pt, PackedTensor)
            local = encode(make_format(name), x, op="weight", axis=-1)
            assert pt.to_bytes() == local.to_bytes(), \
                f"{name}: packed bytes differ from local codec output"


def test_concurrent_multi_client_load_bit_identical(server, rng):
    """N threads x M requests each: every response equals serial local."""
    arms = [("m2xfp", "activation"), ("elem-em", "activation"),
            ("sg-em", "weight"), ("nvfp4", "activation")]
    inputs = [rng.standard_normal((2 + i % 3, 64)) for i in range(8)]
    expected = {(a, i): local_expected(x, fmt=a[0], op=a[1]).tobytes()
                for a in arms for i, x in enumerate(inputs)}
    failures: list[str] = []

    def hammer(worker_id: int) -> None:
        try:
            with QuantClient(port=server.port) as cli:
                for rep in range(2):
                    for ai, arm in enumerate(arms):
                        for i, x in enumerate(inputs):
                            if (worker_id + ai + i) % 2:
                                continue  # vary interleaving per thread
                            out = cli.quantize(x, fmt=arm[0], op=arm[1])
                            if out.tobytes() != expected[(arm, i)]:
                                failures.append(
                                    f"worker {worker_id}: {arm} input {i}")
        except BaseException as exc:  # pragma: no cover - surfaced below
            failures.append(f"worker {worker_id}: {exc!r}")

    threads = [threading.Thread(target=hammer, args=(w,)) for w in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not failures, failures


def test_pipelined_requests_resolve_in_any_order(server, rng):
    xs = [rng.standard_normal((2, 64)) * (i + 1) for i in range(6)]
    with QuantClient(port=server.port) as cli:
        rids = [cli.submit(x, fmt="m2xfp") for x in xs]
        for rid, x in reversed(list(zip(rids, xs))):  # gather backwards
            out = cli.result(rid)
            assert out.tobytes() == \
                local_expected(x, fmt="m2xfp").tobytes()


def test_dispatch_modes_over_socket(server, rng):
    x = rng.standard_normal((4, 64))
    with QuantClient(port=server.port) as cli:
        for dispatch in ("fast", "reference"):
            cli.quantize(x, fmt="m2xfp", op="weight", dispatch=dispatch,
                         verify=True)
    keys = set(server.server._services)
    assert {("m2xfp", d, False) for d in ("fast", "reference")} <= keys, \
        "dispatch modes must map to distinct service arms"


def test_fingerprint_pins_the_format_config(server, rng):
    x = rng.standard_normal((2, 64))
    with QuantClient(port=server.port) as cli:
        cli.quantize(x, fmt="m2xfp",
                     fingerprint=repr(make_format("m2xfp")))  # match: fine
        with pytest.raises(ConfigError, match="fingerprint"):
            cli.quantize(x, fmt="m2xfp", fingerprint="bogus-config")


def test_server_errors_are_typed_client_side(server, rng):
    with QuantClient(port=server.port) as cli:
        with pytest.raises(FormatError, match="non-finite"):
            cli.quantize(np.array([[np.nan] * 32]), fmt="mxfp4")
        with pytest.raises(ConfigError, match="unknown format"):
            cli.quantize(rng.standard_normal((2, 32)), fmt="not-a-format")
        # The connection survives typed errors.
        cli.quantize(rng.standard_normal((2, 32)), fmt="mxfp4", verify=True)


def test_mis_versioned_frame_gets_protocol_error(server, rng):
    import socket
    good = bytearray(protocol.encode_request(
        1, rng.standard_normal(8), fmt="m2xfp"))
    good[8] = protocol.PROTOCOL_VERSION + 1  # version byte
    with socket.create_connection(("127.0.0.1", server.port), 10) as sock:
        sock.sendall(bytes(good))
        frame = protocol.recv_frame(sock)
        assert frame.status == protocol.Status.PROTOCOL_ERROR
        with pytest.raises(ProtocolError, match="version"):
            protocol.response_result(frame)


def test_async_client_pipelines(server, rng):
    import asyncio

    xs = [rng.standard_normal((2, 64)) * (i + 1) for i in range(4)]

    async def go():
        async with AsyncQuantClient(port=server.port) as cli:
            outs = await asyncio.gather(*[
                cli.quantize(x, fmt="elem-em", verify=True) for x in xs])
        return outs

    outs = asyncio.run(go())
    for x, out in zip(xs, outs):
        assert out.tobytes() == local_expected(x, fmt="elem-em").tobytes()


# ----------------------------------------------------------------------
# Backpressure
# ----------------------------------------------------------------------
class _StalledService:
    """A service stub whose requests finish only when the test says so."""

    def __init__(self):
        self.fmt = make_format("m2xfp")
        self.fingerprint = repr(self.fmt)
        self.released = threading.Event()

    def admit(self, x, op="activation", *, trace=None):
        return types.SimpleNamespace(x=x, result=None)

    def execute(self, job):
        assert self.released.wait(timeout=30)
        return np.zeros_like(job.x)

    def release(self):
        self.released.set()

    def close(self):
        self.release()


def test_buffered_burst_does_not_starve_other_connections(frame_io):
    """A connection whose pipelined frames are all buffered yields to
    the other connections every ``_FRAMES_PER_TURN`` frames: a lone
    request on a second connection is served among the first of a
    long burst, not after all of it."""
    from repro.server import server as server_mod

    per_turn = server_mod._FRAMES_PER_TURN
    srv = QuantServer(port=0, max_inflight=1000)
    served = []

    async def record(frame, writer, wlock):
        served.append(frame.request_id)
        srv._inflight -= 1

    srv._respond = record
    x = np.ones((1, 32))

    async def main():
        burst, lone = frame_io.open(), frame_io.open()
        frame_io.feed(burst, b"".join(
            protocol.encode_request(i, x, fmt="mxfp4")
            for i in range(1, 4 * per_turn + 1)))
        frame_io.feed(lone, protocol.encode_request(0, x, fmt="mxfp4"))
        for reader in (burst, lone):
            reader.eof_received()
        await asyncio.gather(srv._on_connection(burst),
                             srv._on_connection(lone))

    asyncio.run(main())
    assert sorted(served) == list(range(4 * per_turn + 1))
    assert served.index(0) <= per_turn, served


def test_busy_backpressure_not_a_hang(rng, monkeypatch):
    """At the in-flight bound the server answers BUSY immediately."""
    stub = _StalledService()
    monkeypatch.setattr(QuantServer, "_get_service", lambda self, req: stub)
    # Only a hopped request leaves the loop free while the stub stalls.
    monkeypatch.setattr("repro.server.server._INLINE_MAX_ELEMENTS", 0)
    with ServerThread(port=0, max_inflight=2) as st:
        with QuantClient(port=st.port, timeout=30.0) as cli:
            x = rng.standard_normal((2, 32))
            rids = [cli.submit(x, fmt="m2xfp") for _ in range(4)]
            # Requests 3 and 4 exceed max_inflight=2 while 1 and 2 are
            # stalled: both must come back BUSY without waiting.
            for rid in rids[2:]:
                with pytest.raises(ServerBusy, match="in-flight"):
                    cli.result(rid)
            assert st.server.stats["busy_rejections"] == 2
            stub.release()
            for rid in rids[:2]:  # the admitted pair still completes
                assert cli.result(rid).shape == x.shape
        # The decrement runs just after the response hits the wire; give
        # the loop a moment before asserting the counter drained.
        deadline = time.monotonic() + 5.0
        while st.server._inflight and time.monotonic() < deadline:
            time.sleep(0.01)
        assert st.server._inflight == 0


# ----------------------------------------------------------------------
# Graceful lifecycle: ping / health / drain
# ----------------------------------------------------------------------
def test_ping_reports_health(rng):
    x = rng.standard_normal((2, 32))
    with ServerThread(port=0) as st, QuantClient(port=st.port) as cli:
        info = cli.ping()
        assert info["status"] == "ok" and info["draining"] is False
        assert info["protocol_version"] == protocol.PROTOCOL_VERSION
        assert info["max_inflight"] == st.server.max_inflight
        cli.quantize(x, fmt="m2xfp")
        assert cli.ping()["stats"]["responses"] >= 1
        assert st.server.stats["pings"] == 2


def test_drain_finishes_inflight_then_exits(rng, monkeypatch):
    """DRAIN answers in-flight work, rejects new work with a retryable
    DRAINING error, and shuts the server down cleanly."""
    x = rng.standard_normal((2, 32))
    stub = _StalledService()
    monkeypatch.setattr(QuantServer, "_get_service", lambda self, req: stub)
    # Only a hopped request leaves the loop free while the stub stalls.
    monkeypatch.setattr("repro.server.server._INLINE_MAX_ELEMENTS", 0)
    st = ServerThread(port=0).__enter__()
    try:
        with QuantClient(port=st.port, timeout=30.0) as cli:
            rid = cli.submit(x, fmt="m2xfp")  # admitted, then stalled
            ack = cli.drain()
            assert ack["draining"] is True
            with pytest.raises(ServerDraining, match="draining"):
                cli.quantize(x, fmt="m2xfp")
            # The admitted request is not dropped: the drain waits for
            # it, and the answer still reaches this client.
            stub.release()
            assert cli.result(rid).shape == x.shape
        # DRAINING is retryable backpressure (a ServerBusy subclass):
        # clients with a retry budget move to another worker or wait.
        assert issubclass(ServerDraining, ServerBusy)
        deadline = time.monotonic() + 30.0
        while st._thread is not None and st._thread.is_alive() \
                and time.monotonic() < deadline:
            time.sleep(0.02)
        assert st._thread is None or not st._thread.is_alive()
        assert st.server.stats["drain_requests"] == 1
        assert st.server.stats["draining_rejections"] == 1
    finally:
        st.__exit__(None, None, None)


def test_async_ping_server_stats_and_drain(rng):
    x = rng.standard_normal((2, 32))

    async def run() -> None:
        async with AsyncQuantClient(port=st.port, timeout=30.0) as cli:
            info = await cli.ping()
            assert info["status"] == "ok" and info["draining"] is False
            assert info["protocol_version"] == protocol.PROTOCOL_VERSION
            await cli.quantize(x, fmt="m2xfp")
            stats = await cli.server_stats()
            assert set(stats) == {"stats", "services", "sessions",
                                  "metrics"}
            assert stats["stats"]["responses"] >= 1
            ack = await cli.drain()
            assert ack["draining"] is True

    st = ServerThread(port=0).__enter__()
    try:
        asyncio.run(run())
        assert st.server.stats["pings"] == 2
        assert st.server.stats["drain_requests"] == 1
    finally:
        st.__exit__(None, None, None)


#: The round trips both clients expose (sync returns, async awaits).
ROUND_TRIPS = ("submit", "quantize", "ping", "server_stats", "drain",
               "session_open", "session_append", "session_read",
               "session_close")


def test_sync_and_async_clients_expose_the_same_round_trips():
    def params(cls, name):
        return list(inspect.signature(getattr(cls, name)).parameters.values())

    for name in ("__init__",) + ROUND_TRIPS:
        assert params(QuantClient, name) == params(AsyncQuantClient, name), \
            name

    def public(cls):
        return {n for n in dir(cls)
                if not n.startswith("_") and callable(getattr(cls, n))}

    # Transport lifecycle aside, the async surface is the sync one minus
    # the sync-only pipelining helpers.
    assert public(QuantClient) - public(AsyncQuantClient) \
        == {"result", "quantize_batch"}
    assert public(AsyncQuantClient) <= public(QuantClient)
    # Every async round trip is awaitable (and fails typed unconnected).
    with pytest.raises(ConfigError, match="not connected"):
        asyncio.run(AsyncQuantClient(port=1).ping())


def test_server_thread_drain_method(rng):
    x = rng.standard_normal((2, 32))
    with ServerThread(port=0) as st:
        with QuantClient(port=st.port) as cli:
            cli.quantize(x, fmt="m2xfp")
        st.drain(timeout=30.0)
        assert st.server.draining


# ----------------------------------------------------------------------
# KV session ops: on the event loop up to the bound, a thread hop above
# ----------------------------------------------------------------------
def _count_hops(monkeypatch) -> list:
    """Log every ``QuantServer._hop`` (the one thread hop) in the
    returned list, by the function it runs."""
    real, calls = QuantServer._hop, []

    async def counting(self, fn, *args):
        calls.append(fn)
        return await real(self, fn, *args)

    monkeypatch.setattr(QuantServer, "_hop", counting)
    return calls


def _session_script(cli, k, v, at: int, calls: list) -> tuple[list, list]:
    """One session's ops below, at and one row above ``at`` K/V rows:
    how many hops (logged in ``calls``) each op made, and what it
    answered."""
    seq = iter(range(8))
    ops = [
        lambda: cli.session_append("s", 0, k[:1], v[:1], seq=next(seq)),
        lambda: cli.session_read("s", 0),
        lambda: cli.session_append("s", 1, k[:at], v[:at], seq=next(seq)),
        lambda: cli.session_read("s", 1),
        lambda: cli.session_append("s", 1, k[:1], v[:1], seq=next(seq)),
        lambda: cli.session_read("s", 1),            # one row above
        lambda: cli.session_append("s", 0, k[:at + 1], v[:at + 1],
                                   seq=next(seq)),
        lambda: cli.session_close("s"),
    ]
    cli.session_open(session_id="s", n_layers=2, policy="m2xfp")
    hops, answers = [], []
    for op in ops:
        before = len(calls)
        out = op()
        hops.append(len(calls) - before)
        answers.append(b"".join(a.tobytes() for a in out)
                       if isinstance(out, tuple) else out)
    return hops, answers


def test_session_ops_run_inline_up_to_the_bound(rng, monkeypatch):
    """A decode-step append, its READ and CLOSE make no thread hop; an
    append or READ one row above the bound makes exactly one. With the
    bound at 0 every append and READ hops, and the acks and READ bytes
    are identical either way."""
    calls = _count_hops(monkeypatch)
    from repro.server.server import _INLINE_MAX_ELEMENTS
    at = _INLINE_MAX_ELEMENTS // (2 * 64)   # K+V rows at the bound
    k, v = rng.standard_normal((2, at + 1, 64))
    with ServerThread(port=0) as st, QuantClient(port=st.port) as cli:
        hops, inline = _session_script(cli, k, v, at, calls)
    assert hops == [0, 0, 0, 0, 0, 1, 1, 0]
    monkeypatch.setattr("repro.server.server._INLINE_MAX_ELEMENTS", 0)
    with ServerThread(port=0) as st, QuantClient(port=st.port) as cli:
        hops, hopped = _session_script(cli, k, v, at, calls)
    assert hops == [1, 1, 1, 1, 1, 1, 1, 0]
    assert inline == hopped


#: Each quantize case of the inline test: (op, packed, row count).
_QUANTIZE_CASES = [(op, packed, rows) for op in ("activation", "weight")
                   for packed in (False, True) for rows in ("at", "above")]


def _quantize_script(x, at: int, calls: list) -> tuple[list, list, dict]:
    """Each of ``_QUANTIZE_CASES`` against a fresh server: the hops it
    made (``calls`` entries), its answer bytes, and the server's
    ``serve.*`` collector stats afterwards."""
    hops, answers = [], []
    with ServerThread(port=0) as st, QuantClient(port=st.port) as cli:
        for op, packed, rows in _QUANTIZE_CASES:
            xs = x[:at] if rows == "at" else x
            before = len(calls)
            out = cli.quantize(xs, fmt="m2xfp", op=op, packed=packed)
            hops.append(calls[before:])
            expect = local_expected(xs, fmt="m2xfp", op=op, packed=packed)
            got = out.to_bytes() if packed else out.tobytes()
            assert got == (expect.to_bytes() if packed
                           else expect.tobytes()), (op, packed, rows)
            answers.append(got)
        metrics = cli.server_stats()["metrics"]
    return hops, answers, {k: v for k, v in metrics.items()
                           if k.startswith("serve.") and
                           not k.endswith(".latency")}


def test_quantize_requests_run_inline_up_to_the_bound(rng, monkeypatch,
                                                      tmp_path):
    """A quantize request of at most ``_INLINE_MAX_ELEMENTS`` elements
    makes no hop, for either op, packed or not; one row above it makes
    exactly one hop. Answers are the local library's bytes and
    identical with the bound at 0, both paths keep their spans, and the
    ``serve.<arm>`` stats count them."""
    from repro.obs import TRACE_ENV, TRACE_PATH_ENV
    from repro.server.server import _INLINE_MAX_ELEMENTS

    calls = _count_hops(monkeypatch)
    width = 256
    at = _INLINE_MAX_ELEMENTS // width          # rows at the bound
    x = rng.standard_normal((at + 1, width))
    trace_path = tmp_path / "trace.jsonl"
    monkeypatch.setenv(TRACE_ENV, "1")
    monkeypatch.setenv(TRACE_PATH_ENV, str(trace_path))
    hops, inline, stats = _quantize_script(x, at, calls)
    monkeypatch.delenv(TRACE_ENV)
    assert [len(h) for h in hops] == [0 if rows == "at" else 1
                                      for _, _, rows in _QUANTIZE_CASES]
    for arm in ("m2xfp:inherit:unpacked", "m2xfp:inherit:packed"):
        assert stats[f"serve.{arm}"]["requests"] == 4
        assert stats[f"serve.{arm}"]["batches"] == 4
    records = [json.loads(line)
               for line in trace_path.read_text().splitlines()]
    assert len(records) == len(_QUANTIZE_CASES)
    for rec, (_, packed, _) in zip(records, _QUANTIZE_CASES):
        assert [s["name"] for s in rec["spans"]] == \
            ["queue", "batch", "quantize"] + (["pack"] if packed else []) \
            + ["serialize"]
        assert all(s["dur_s"] >= 0.0 for s in rec["spans"])

    monkeypatch.setattr("repro.server.server._INLINE_MAX_ELEMENTS", 0)
    hops, hopped, _ = _quantize_script(x, at, calls)
    assert [len(h) for h in hops] == [1] * len(_QUANTIZE_CASES)
    assert inline == hopped


def test_weight_memo_hit_above_the_bound_makes_no_hop(rng, monkeypatch):
    """An above-bound weight request that hits the memo is answered on
    the loop: only the miss hops, and the hit's bytes are the miss's."""
    from repro.server.server import _INLINE_MAX_ELEMENTS

    calls = _count_hops(monkeypatch)
    w = rng.standard_normal((_INLINE_MAX_ELEMENTS // 256 + 1, 256))
    with ServerThread(port=0) as st, QuantClient(port=st.port) as cli:
        miss = cli.quantize(w, fmt="m2xfp", op="weight")
        assert len(calls) == 1
        hit = cli.quantize(w, fmt="m2xfp", op="weight")
        assert len(calls) == 1
        stats = cli.server_stats()["metrics"]["serve.m2xfp:inherit:unpacked"]
    assert hit.tobytes() == miss.tobytes() == \
        local_expected(w, fmt="m2xfp", op="weight").tobytes()
    assert stats["weight_cache_hits"] == 1
    assert stats["requests"] == 2 and stats["batches"] == 1


def test_served_arms_add_no_threads(rng):
    """Serving more arms, and above-bound weights, starts no per-arm
    thread: the thread count after one arm equals the count after every
    ``wire_bulk`` arm, and every hop runs on the server's one hop
    thread."""
    from repro.server.server import _INLINE_MAX_ELEMENTS

    arms = (("m2xfp", False), ("m2xfp", True), ("elem-em", False),
            ("mxfp4", True), ("nvfp4", False))
    x = rng.standard_normal((16, 256))
    w = rng.standard_normal((_INLINE_MAX_ELEMENTS // 256 + 1, 256))
    with ServerThread(port=0) as st, QuantClient(port=st.port) as cli:
        # The first hop starts the server's hop thread.
        cli.quantize(w, fmt="m2xfp", op="weight")
        fmt, packed = arms[0]
        cli.quantize(x, fmt=fmt, packed=packed)
        n_threads = threading.active_count()
        for fmt, packed in arms[1:]:
            cli.quantize(x, fmt=fmt, packed=packed)
        cli.quantize(w * 2, fmt="m2xfp", op="weight")
        assert threading.active_count() <= n_threads
        names = [t.name for t in threading.enumerate()]
        metrics = cli.server_stats()["metrics"]
    for fmt, packed in arms:
        arm = f"serve.{fmt}:inherit:{'packed' if packed else 'unpacked'}"
        assert metrics[arm]["requests"] >= 1
    assert not [n for n in names if n.startswith("quant-service")], names
    assert len([n for n in names if n.startswith("repro-hop")]) == 1, names


# ----------------------------------------------------------------------
# CLI wiring
# ----------------------------------------------------------------------
def test_cli_serve_parses_and_wires_config(monkeypatch):
    from repro.runner import cli as cli_mod

    captured = {}

    class _FakeServer:
        def __init__(self, **kwargs):
            captured.update(kwargs)

    def _fake_run(server, sock=None, ready=None):
        captured["ran"] = True

    import repro.server as server_pkg
    monkeypatch.setattr(server_pkg, "QuantServer", _FakeServer)
    monkeypatch.setattr(server_pkg, "run_server", _fake_run)
    rc = cli_mod.main(["serve", "--port", "0", "--max-inflight", "7",
                       "--max-requests", "3",
                       "--read-timeout-s", "5", "--drain-timeout-s", "9"])
    assert rc == 0 and captured["ran"]
    assert captured["port"] == 0
    assert captured["max_inflight"] == 7
    assert "max_batch" not in captured
    assert captured["max_requests"] == 3
    assert captured["read_timeout_s"] == 5.0
    assert captured["drain_timeout_s"] == 9.0
    # Micro-batching is gone, and so is its flag on both commands.
    for cmd in ("serve", "gateway"):
        with pytest.raises(SystemExit) as exc:
            cli_mod.main([cmd, "--max-batch", "16"])
        assert exc.value.code == 2


@pytest.mark.slow
def test_cli_serve_subprocess_end_to_end(rng):
    import subprocess

    repo = Path(__file__).resolve().parent.parent
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--max-requests", "2"],
        stdout=subprocess.PIPE, text=True, cwd=repo,
        env={**__import__("os").environ, "PYTHONPATH": str(repo / "src")})
    try:
        line = proc.stdout.readline()
        assert "serving on" in line
        port = int(line.split("serving on ")[1].split()[0].rsplit(":", 1)[1])
        x = rng.standard_normal((4, 64))
        with QuantClient(port=port) as cli:
            cli.quantize(x, fmt="m2xfp", verify=True)
            cli.quantize(x, fmt="mxfp4", verify=True)
        assert proc.wait(timeout=60) == 0  # --max-requests 2 exits cleanly
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


# ----------------------------------------------------------------------
# Multi-process worker sharding
# ----------------------------------------------------------------------
@pytest.mark.slow
def test_worker_pool_shards_connections_bit_exactly(rng):
    from repro.server import WorkerPool

    x = rng.standard_normal((4, 64))
    expect = local_expected(x, fmt="m2xfp").tobytes()
    with WorkerPool(workers=2, port=0) as pool:
        assert pool.alive() == 2
        for _ in range(6):  # fresh connections land on either worker
            with QuantClient(port=pool.port) as cli:
                assert cli.quantize(x, fmt="m2xfp").tobytes() == expect
    assert pool.alive() == 0


@pytest.mark.slow
def test_load_generator_smoke():
    """bench_server's quick mode produces the committed-schema payload."""
    scripts = Path(__file__).parent.parent / "scripts"
    sys.path.insert(0, str(scripts))
    try:
        from bench_server import run_benchmarks
        payload = run_benchmarks(quick=True)
    finally:
        sys.path.pop(0)
    assert payload["arms"], "no load-test arms recorded"
    for arm in payload["arms"].values():
        for point in arm.values():
            assert point["requests"] > 0
            assert point["rps"] > 0
            assert point["p50_ms"] <= point["p99_ms"]
    sharded = payload["sharded"]
    assert sharded["single"]["rps"] > 0 and sharded["sharded"]["rps"] > 0
    assert sharded["speedup_sharded_vs_single"] > 0
    chaos = payload["chaos"]
    assert chaos["load"]["requests"] > 0 and chaos["load"]["rps"] > 0
    assert chaos["kill_prob"] > 0
    assert chaos["proxy"]["connections"] > 0
