"""Fault injection: the serving stack under network and process chaos.

The contract under test, in order of importance:

1. **Bit-exactness through faults** — with a retry budget, every
   request that completes through the chaos proxy (kills, truncations,
   corrupted frames, delays) returns bytes identical to the local
   re-derivation. Faults can cost retries, never correctness.
2. **Typed failure, never a hang** — when the retry budget exhausts
   or a deadline fires, the client raises a typed error
   (``RetryBudgetExceeded``, ``RequestTimeout``, ``ConnectionLost``);
   fuzzed/truncated/oversized frames always parse to ``ProtocolError``
   with bounded allocation.
3. **Supervision** — a SIGKILLed worker is restarted and a retrying
   client never surfaces a failure; a crash-looping worker trips a
   hard ``WorkerCrashLoop``; ``close()`` reaps every child (escalating
   to SIGKILL) so no test run leaks processes.
"""

from __future__ import annotations

import asyncio
import logging
import os
import random
import signal
import socket
import threading
import time
import types

import numpy as np
import pytest

from repro.errors import (ConfigError, ConnectionLost, ProtocolError,
                          RequestTimeout, RetryBudgetExceeded,
                          ServerDraining, SessionLost, WorkerCrashLoop)
from repro.kv import KVCacheSession
from repro.server import (AsyncQuantClient, FaultPlan, FaultProxy,
                          QuantClient, QuantServer, ServerThread,
                          WorkerPool, local_expected, protocol)
from repro.server.faults import (FAULT_CLOSE_AFTER_ENV, FAULT_KILL_PROB_ENV,
                                 FAULT_SEED_ENV)

#: Formats sampled by the chaos sweeps: the paper's lead format, the
#: per-element variant, and an NVFP4-profile arm (distinct meta paths).
CHAOS_FORMATS = ("m2xfp", "elem-em", "m2-nvfp4")


def _expect_exact(cli, x, *, fmt, op="weight", packed=False):
    out = cli.quantize(x, fmt=fmt, op=op, packed=packed, verify=True)
    exp = local_expected(x, fmt=fmt, op=op, packed=packed)
    if packed:
        assert out.to_bytes() == exp.to_bytes()
    else:
        assert out.tobytes() == exp.tobytes()


# ----------------------------------------------------------------------
# FaultPlan
# ----------------------------------------------------------------------
def test_fault_plan_from_env():
    plan = FaultPlan.from_env({FAULT_SEED_ENV: "9",
                               FAULT_KILL_PROB_ENV: "0.25",
                               FAULT_CLOSE_AFTER_ENV: "3"})
    assert (plan.seed, plan.kill_prob, plan.close_after_frames) \
        == (9, 0.25, 3)
    assert plan.any_faults
    assert not FaultPlan.from_env({}).any_faults


@pytest.mark.parametrize("bad", [
    {"kill_prob": 1.5}, {"truncate_prob": -0.1}, {"delay_s": -1.0},
    {"close_after_frames": 0},
])
def test_fault_plan_validation(bad):
    with pytest.raises(ConfigError):
        FaultPlan(**bad)


def test_fault_plan_env_type_error():
    with pytest.raises(ConfigError, match=FAULT_KILL_PROB_ENV):
        FaultPlan.from_env({FAULT_KILL_PROB_ENV: "often"})


# ----------------------------------------------------------------------
# Chaos proxy: transparency and injected faults
# ----------------------------------------------------------------------
def test_proxy_transparent_without_faults(rng):
    x = rng.standard_normal((3, 64))
    with ServerThread(port=0) as st, \
            FaultProxy(target_port=st.port) as px, \
            QuantClient(port=px.port) as cli:
        for fmt in CHAOS_FORMATS:
            _expect_exact(cli, x, fmt=fmt)
        assert px.stats["frames_forwarded"] >= 2 * len(CHAOS_FORMATS)
        assert px.stats["killed"] == px.stats["truncated"] \
            == px.stats["corrupted"] == 0


def test_proxy_stop_with_live_connection_logs_nothing(rng, caplog):
    """Stopping the proxy mid-connection reaps the handler quietly:
    asyncio's stream done-callback must not log a CancelledError."""
    x = rng.standard_normal((3, 64))
    caplog.set_level(logging.ERROR, logger="asyncio")
    with ServerThread(port=0) as st:
        cli = None
        try:
            with FaultProxy(target_port=st.port) as px:
                cli = QuantClient(port=px.port).connect()
                _expect_exact(cli, x, fmt="m2xfp")
                assert px.stats["connections"] == 1
            # The proxy stopped under the still-open client connection.
        finally:
            if cli is not None:
                cli.close()
    errors = [r for r in caplog.records
              if r.name == "asyncio" and r.levelno >= logging.ERROR]
    assert errors == []


def test_chaos_bit_exact_through_mixed_faults(rng):
    """The acceptance gate: heavy chaos, zero wrong bytes."""
    x = rng.standard_normal((4, 64))
    plan = FaultPlan(seed=7, kill_prob=0.08, truncate_prob=0.08,
                     corrupt_prob=0.08, delay_prob=0.25, delay_s=0.002)
    with ServerThread(port=0) as st, \
            FaultProxy(target_port=st.port, plan=plan) as px, \
            QuantClient(port=px.port, retries=16, backoff_base_s=0.005,
                        backoff_max_s=0.05, retry_seed=1,
                        timeout=30.0) as cli:
        for i in range(24):
            fmt = CHAOS_FORMATS[i % len(CHAOS_FORMATS)]
            _expect_exact(cli, x, fmt=fmt, op="weight", packed=(i % 2 == 0))
        # The run must actually have exercised faults, not a quiet wire.
        assert px.stats["killed"] + px.stats["truncated"] \
            + px.stats["corrupted"] > 0
        assert px.stats["delayed"] > 0


def test_chaos_deterministic_replay(rng):
    """Same seed + same serial traffic -> the same fault decisions."""
    x = rng.standard_normal((2, 64))
    plan = FaultPlan(seed=13, kill_prob=0.15, truncate_prob=0.15)

    def run() -> dict:
        with ServerThread(port=0) as st, \
                FaultProxy(target_port=st.port, plan=plan) as px, \
                QuantClient(port=px.port, retries=32,
                            backoff_base_s=0.001, backoff_max_s=0.01,
                            retry_seed=5, timeout=30.0) as cli:
            for _ in range(10):
                _expect_exact(cli, x, fmt="m2xfp")
            return dict(px.stats)

    assert run() == run()


def test_close_after_frames_kills_every_connection(rng):
    """close-after-1 means no response ever arrives; the budget must
    exhaust into a typed, cause-carrying error -- not a hang."""
    x = rng.standard_normal((2, 32))
    plan = FaultPlan(seed=0, close_after_frames=1)
    with ServerThread(port=0) as st, \
            FaultProxy(target_port=st.port, plan=plan) as px, \
            QuantClient(port=px.port, retries=2, backoff_base_s=0.001,
                        backoff_max_s=0.005, retry_seed=0,
                        timeout=10.0) as cli:
        with pytest.raises(RetryBudgetExceeded) as info:
            cli.quantize(x, fmt="m2xfp")
        assert isinstance(info.value.__cause__,
                          (ConnectionLost, RequestTimeout, ConnectionError,
                           OSError))
        assert px.stats["killed"] >= 3  # initial try + 2 retries


def test_async_client_retries_through_kills(rng):
    x = rng.standard_normal((2, 64))
    plan = FaultPlan(seed=21, kill_prob=0.12)

    async def run() -> None:
        async with AsyncQuantClient(port=px.port, retries=16,
                                    backoff_base_s=0.005,
                                    backoff_max_s=0.05, retry_seed=2,
                                    timeout=30.0) as cli:
            for i in range(12):
                fmt = CHAOS_FORMATS[i % len(CHAOS_FORMATS)]
                out = await cli.quantize(x, fmt=fmt, op="activation",
                                         verify=True)
                exp = local_expected(x, fmt=fmt, op="activation")
                assert out.tobytes() == exp.tobytes()

    with ServerThread(port=0) as st, \
            FaultProxy(target_port=st.port, plan=plan) as px:
        asyncio.run(run())
        assert px.stats["killed"] > 0


# ----------------------------------------------------------------------
# Client deadlines: a stalled server cannot hang a request
# ----------------------------------------------------------------------
def _stalled_acceptor():
    """A listener that accepts and then never answers."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.bind(("127.0.0.1", 0))
    sock.listen(8)
    conns: list[socket.socket] = []
    stop = threading.Event()

    def loop() -> None:
        sock.settimeout(0.1)
        while not stop.is_set():
            try:
                conn, _ = sock.accept()
            except (TimeoutError, OSError):
                continue
            conns.append(conn)

    thread = threading.Thread(target=loop, daemon=True)
    thread.start()
    return sock, conns, stop, thread


def test_sync_client_deadline_on_stalled_server():
    sock, conns, stop, thread = _stalled_acceptor()
    try:
        with QuantClient(port=sock.getsockname()[1], timeout=0.3) as cli:
            t0 = time.monotonic()
            with pytest.raises(RequestTimeout) as info:
                cli.quantize(np.zeros((2, 8)), fmt="m2xfp")
            assert time.monotonic() - t0 < 5.0
            assert isinstance(info.value, TimeoutError)  # typed subclass
    finally:
        stop.set()
        thread.join(timeout=5.0)
        for conn in conns:
            conn.close()
        sock.close()


def test_async_client_deadline_on_stalled_server():
    sock, conns, stop, thread = _stalled_acceptor()

    async def run() -> None:
        async with AsyncQuantClient(port=sock.getsockname()[1],
                                    timeout=0.3) as cli:
            with pytest.raises(RequestTimeout):
                await cli.quantize(np.zeros((2, 8)), fmt="m2xfp")

    try:
        t0 = time.monotonic()
        asyncio.run(run())
        assert time.monotonic() - t0 < 5.0
    finally:
        stop.set()
        thread.join(timeout=5.0)
        for conn in conns:
            conn.close()
        sock.close()


def test_timed_out_calls_leave_no_request_bookkeeping():
    """Every exit from a response wait drops the request's bookkeeping:
    a loop of timed-out calls against a stalled server leaves none."""
    sock, conns, stop, thread = _stalled_acceptor()
    port = sock.getsockname()[1]

    async def run() -> None:
        async with AsyncQuantClient(port=port, timeout=0.05) as cli:
            for _ in range(3):
                with pytest.raises(RequestTimeout):
                    await cli.quantize(np.zeros((2, 8)), fmt="m2xfp")
                with pytest.raises(RequestTimeout):
                    await cli.ping()
            assert cli._pending == {}

    try:
        with QuantClient(port=port, timeout=0.05) as cli:
            for _ in range(3):
                with pytest.raises(RequestTimeout):
                    cli.quantize(np.zeros((2, 8)), fmt="m2xfp")
                with pytest.raises(RequestTimeout):
                    cli.ping()
            assert cli._sent_gen == {} and cli._responses == {}
        asyncio.run(run())
    finally:
        stop.set()
        thread.join(timeout=5.0)
        for conn in conns:
            conn.close()
        sock.close()


def test_pipelined_futures_fail_fast_on_connection_loss(rng):
    """A dead connection rejects every pending pipelined future with a
    typed error immediately -- no waiting out individual deadlines."""
    x = rng.standard_normal((2, 32))

    async def run() -> None:
        async with AsyncQuantClient(port=st.port, timeout=30.0) as cli:
            # Pipeline several requests, then yank the transport.
            futs = [asyncio.ensure_future(
                cli.quantize(x, fmt="m2xfp")) for _ in range(4)]
            await asyncio.sleep(0)  # let the sends go out
            cli._conn.transport.abort()
            t0 = time.monotonic()
            results = await asyncio.gather(*futs, return_exceptions=True)
            assert time.monotonic() - t0 < 5.0
            for res in results:
                # Each pipelined call either finished before the abort
                # or failed fast with the typed connection error.
                assert isinstance(res, np.ndarray) \
                    or isinstance(res, ConnectionLost)

    with ServerThread(port=0) as st:
        asyncio.run(run())


# ----------------------------------------------------------------------
# Frame parser fuzz: truncated / corrupted / oversized input
# ----------------------------------------------------------------------
def _valid_frame_bytes(rng) -> bytes:
    x = rng.standard_normal((2, 16))
    return protocol.encode_request(5, x, fmt="m2xfp", op="weight",
                                   fingerprint="fp")


def test_frame_fuzz_truncation_and_corruption(rng):
    """Seeded property sweep: every mutation parses to a Frame or a
    typed ProtocolError -- never another exception, never a hang."""
    blob = _valid_frame_bytes(rng)
    fuzz = random.Random(20260807)
    for trial in range(400):
        mutated = bytearray(blob)
        mode = fuzz.randrange(3)
        if mode == 0:  # truncate
            mutated = mutated[:fuzz.randrange(len(mutated))]
        elif mode == 1:  # corrupt 1-4 bytes
            for _ in range(fuzz.randint(1, 4)):
                mutated[fuzz.randrange(len(mutated))] ^= \
                    fuzz.randint(1, 255)
        else:  # grow or shrink the buffer vs its prefix
            mutated += bytes(fuzz.randrange(1, 64))
        try:
            frame = protocol.frame_from_bytes(bytes(mutated))
        except ProtocolError:
            continue
        assert isinstance(frame, protocol.Frame)


def test_oversized_length_prefix_rejected_without_allocation():
    huge = (1 << 31).to_bytes(4, "little") + b"x" * 16
    with pytest.raises(ProtocolError, match="exceeds"):
        protocol.frame_from_bytes(huge)


def _read_one(frame_io, blob: bytes, timeout: float | None = 0.2):
    async def run():
        reader = frame_io.open(timeout)
        frame_io.feed(reader, blob)
        reader.eof_received()
        return await reader.read_frame()
    return asyncio.run(run())


def test_read_frame_truncated_stream_is_typed(rng, frame_io):
    blob = _valid_frame_bytes(rng)
    for cut in (1, 3, 7, len(blob) // 2, len(blob) - 1):
        with pytest.raises(ConnectionLost):
            _read_one(frame_io, blob[:cut])


def test_read_frame_oversized_prefix_rejected(frame_io):
    with pytest.raises(ProtocolError, match="exceeds"):
        _read_one(frame_io, (1 << 30).to_bytes(4, "little"))


def test_read_frame_slow_loris_guard(rng, frame_io):
    """A trickling peer is cut off by the frame deadline."""
    blob = _valid_frame_bytes(rng)

    async def run():
        reader = frame_io.open(0.1)
        frame_io.feed(reader, blob[:6])  # started, never finishes
        with pytest.raises(ProtocolError, match="slow-loris"):
            await reader.read_frame()

    t0 = time.monotonic()
    asyncio.run(run())
    assert time.monotonic() - t0 < 5.0


def test_server_read_timeout_drops_slow_loris_connection(rng):
    """End to end: a socket trickling a frame is disconnected, and the
    server keeps serving well-behaved clients afterwards."""
    x = rng.standard_normal((2, 32))
    with ServerThread(port=0, read_timeout_s=0.2) as st:
        loris = socket.create_connection(("127.0.0.1", st.port))
        try:
            loris.sendall(b"\x40")  # one byte of a frame, then stall
            loris.settimeout(10.0)
            frame = protocol.recv_frame(loris)
            assert frame.status == protocol.Status.PROTOCOL_ERROR
            assert "slow-loris" in frame.meta["error"]
            assert protocol.recv_frame(loris) is None  # then hung up
        finally:
            loris.close()
        with QuantClient(port=st.port) as cli:
            _expect_exact(cli, x, fmt="m2xfp")


# ----------------------------------------------------------------------
# BUSY retry fairness
# ----------------------------------------------------------------------
def test_busy_retry_fairness_all_clients_complete(rng):
    """Saturate a max_inflight=1 server from several retrying clients:
    everyone finishes and no client starves (bounded per-client p99)."""
    x = rng.standard_normal((2, 64))
    n_clients, n_requests = 4, 6
    latencies: dict[int, list[float]] = {i: [] for i in range(n_clients)}
    errors: list[BaseException] = []

    def worker(idx: int, port: int) -> None:
        try:
            with QuantClient(port=port, retries=200, backoff_base_s=0.002,
                             backoff_max_s=0.02, retry_seed=idx,
                             timeout=30.0) as cli:
                for _ in range(n_requests):
                    t0 = time.monotonic()
                    _expect_exact(cli, x, fmt="m2xfp")
                    latencies[idx].append(time.monotonic() - t0)
        except BaseException as exc:  # surfaced below, not swallowed
            errors.append(exc)

    with ServerThread(port=0, max_inflight=1) as st:
        threads = [threading.Thread(target=worker, args=(i, st.port))
                   for i in range(n_clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        assert not any(t.is_alive() for t in threads), "a client wedged"
    assert not errors, errors
    for idx, lats in latencies.items():
        assert len(lats) == n_requests
        assert max(lats) < 30.0, f"client {idx} starved: p99 {max(lats):.1f}s"


# ----------------------------------------------------------------------
# Worker supervision (multi-process: slow tier)
# ----------------------------------------------------------------------
@pytest.mark.slow
def test_sigkilled_worker_restarts_without_client_failures(rng):
    """The ISSUE's acceptance scenario: SIGKILL one worker mid-load;
    the retrying client sees zero failures and the pool heals."""
    x = rng.standard_normal((2, 64))
    with WorkerPool(workers=2, port=0, backoff_base_s=0.02,
                    healthy_reset_s=0.5) as pool:
        with QuantClient(port=pool.port, retries=10, backoff_base_s=0.02,
                         backoff_max_s=0.2, retry_seed=0,
                         timeout=30.0) as cli:
            _expect_exact(cli, x, fmt="m2xfp")
            os.kill(pool._procs[0].pid, signal.SIGKILL)
            for _ in range(20):
                _expect_exact(cli, x, fmt="m2xfp")
        deadline = time.monotonic() + 30.0
        while pool.stats()["restarts"] < 1 and time.monotonic() < deadline:
            time.sleep(0.05)
        assert pool.stats()["restarts"] >= 1
        assert any(e["exitcode"] == -signal.SIGKILL
                   for e in pool.stats()["exits"])
        deadline = time.monotonic() + 30.0
        while pool.alive() < 2 and time.monotonic() < deadline:
            time.sleep(0.05)
        assert pool.alive() == 2  # healed back to full strength
        pool.check()  # healthy restart must not look like a crash loop


@pytest.mark.slow
def test_crash_loop_trips_budget_with_typed_error():
    pool = WorkerPool(workers=1, port=0, max_restarts=2,
                      backoff_base_s=0.01, backoff_max_s=0.05,
                      healthy_reset_s=1000.0).start()
    try:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            for proc in list(pool._procs):
                if proc is not None and proc.is_alive():
                    os.kill(proc.pid, signal.SIGKILL)
            try:
                pool.check()
            except WorkerCrashLoop as exc:
                assert "budget" in str(exc)
                break
            time.sleep(0.2)
        else:
            pytest.fail("crash-loop budget never tripped")
        with pytest.raises(WorkerCrashLoop):
            pool.join()
    finally:
        pool.close()
    assert pool.alive() == 0


@pytest.mark.slow
def test_pool_close_reaps_children_no_zombies():
    import multiprocessing as mp
    pool = WorkerPool(workers=2, port=0, reap_timeout_s=5.0).start()
    procs = list(pool._procs)
    pool.close()
    assert all(not p.is_alive() for p in procs)
    assert pool.alive() == 0
    assert not [p for p in mp.active_children() if p in procs]


@pytest.mark.slow
def test_pool_close_escalates_to_kill_when_terminate_ignored():
    """If SIGTERM is swallowed (simulated by a no-op terminate), the
    bounded reap escalates to SIGKILL instead of leaking the child."""
    pool = WorkerPool(workers=1, port=0, reap_timeout_s=0.5,
                      restart=False).start()
    procs = list(pool._procs)
    for proc in procs:
        proc.terminate = lambda: None  # the graceful path goes missing
    t0 = time.monotonic()
    pool.close()
    assert time.monotonic() - t0 < 30.0
    assert all(not p.is_alive() for p in procs)


# ----------------------------------------------------------------------
# Streaming KV sessions under chaos
# ----------------------------------------------------------------------
def _kv_block(rng, tokens: int = 2, width: int = 64) -> np.ndarray:
    return rng.standard_normal((tokens, width)) \
        * np.exp(rng.standard_normal((tokens, width)))


def test_session_appends_resume_bit_exact_through_kills(rng):
    """Mid-session connection kills: the retrying client's seq-dedup
    resume must leave the stream bit-identical to an unfaulted local
    session — duplicates replayed, nothing applied twice, no gaps."""
    blocks = [(_kv_block(rng), _kv_block(rng)) for _ in range(14)]
    plan = FaultPlan(seed=11, kill_prob=0.10, delay_prob=0.2,
                     delay_s=0.002)
    with ServerThread(port=0) as st, \
            FaultProxy(target_port=st.port, plan=plan) as px, \
            QuantClient(port=px.port, retries=16, backoff_base_s=0.005,
                        backoff_max_s=0.05, retry_seed=3,
                        timeout=30.0) as cli:
        cli.session_open(session_id="chaos", n_layers=1, policy="m2xfp",
                         max_tokens=16, sink_tokens=4)
        local = KVCacheSession(1, "m2xfp", max_tokens=16, sink_tokens=4)
        for seq, (k, v) in enumerate(blocks):
            ack = cli.session_append("chaos", 0, k, v, seq=seq)
            ref = local.append(0, k, v)
            assert (ack["start"], ack["tokens_held"]) \
                == (ref["start"], ref["tokens_held"])
        K, V = cli.session_read("chaos", 0)
        lk, lv = local.read(0)
        assert K.tobytes() == lk.tobytes()
        assert V.tobytes() == lv.tobytes()
        assert px.stats["killed"] > 0, "the chaos never bit"
        # Kills mid-append forced retries: the server saw more APPEND
        # frames than there are blocks, yet applied exactly len(blocks).
        assert st.server.stats["session_appends"] >= len(blocks)
        assert local.stats()["appends"] == len(blocks)


def test_async_session_appends_resume_bit_exact_through_kills(rng):
    """The async twin of the sync chaos resume: same proxy, same seeded
    kills, the same bit-identical stream and exactly-once appends."""
    blocks = [(_kv_block(rng), _kv_block(rng)) for _ in range(14)]
    plan = FaultPlan(seed=11, kill_prob=0.10, delay_prob=0.2,
                     delay_s=0.002)
    local = KVCacheSession(1, "m2xfp", max_tokens=16, sink_tokens=4)

    async def run() -> None:
        async with AsyncQuantClient(port=px.port, retries=16,
                                    backoff_base_s=0.005,
                                    backoff_max_s=0.05, retry_seed=3,
                                    timeout=30.0) as cli:
            await cli.session_open(session_id="chaos", n_layers=1,
                                   policy="m2xfp", max_tokens=16,
                                   sink_tokens=4)
            for seq, (k, v) in enumerate(blocks):
                ack = await cli.session_append("chaos", 0, k, v, seq=seq)
                ref = local.append(0, k, v)
                assert (ack["start"], ack["tokens_held"]) \
                    == (ref["start"], ref["tokens_held"])
            K, V = await cli.session_read("chaos", 0)
            lk, lv = local.read(0)
            assert K.tobytes() == lk.tobytes()
            assert V.tobytes() == lv.tobytes()
            final = await cli.session_close("chaos")
            assert final["closed"] is True

    with ServerThread(port=0) as st, \
            FaultProxy(target_port=st.port, plan=plan) as px:
        asyncio.run(run())
        assert px.stats["killed"] > 0, "the chaos never bit"
        assert st.server.stats["session_appends"] >= len(blocks)
        assert local.stats()["appends"] == len(blocks)


class _StalledKVService:
    """A quantize-service stub whose requests finish on demand."""

    def __init__(self):
        from repro.runner.formats import make_format
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


def test_drain_rejects_session_ops_but_admits_close(rng, monkeypatch):
    """During a drain, open/append/read answer DRAINING (retryable
    backpressure) while CLOSE stays admitted — an open session is
    rejected cleanly and can still free its slot, never wedged."""
    x = rng.standard_normal((2, 32))
    k = _kv_block(rng)
    stub = _StalledKVService()
    monkeypatch.setattr(QuantServer, "_get_service",
                        lambda self, req: stub)
    # Only a hopped quantize request leaves the loop free while the
    # stub stalls.
    monkeypatch.setattr("repro.server.server._INLINE_MAX_ELEMENTS", 0)
    st = ServerThread(port=0).__enter__()
    try:
        with QuantClient(port=st.port, timeout=30.0) as cli:
            cli.session_open(session_id="s", n_layers=1)
            cli.session_append("s", 0, k, k, seq=0)
            rid = cli.submit(x, fmt="m2xfp")  # stalls: holds the drain
            ack = cli.drain()
            assert ack["draining"] is True
            with pytest.raises(ServerDraining):
                cli.session_open(session_id="t", n_layers=1, retries=0)
            with pytest.raises(ServerDraining):
                cli.session_append("s", 0, k, k, seq=1, retries=0)
            with pytest.raises(ServerDraining):
                cli.session_read("s", 0, retries=0)
            final = cli.session_close("s", retries=0)
            assert final["closed"] is True
            stub.release()
            assert cli.result(rid).shape == x.shape
    finally:
        st.__exit__(None, None, None)


@pytest.mark.slow
def test_sigkilled_worker_surfaces_session_lost_then_replay(rng):
    """SIGKILL the replica holding a session: the reconnecting client
    must get a typed ``SessionLost`` — never a silently fresh stream —
    and reopening + replaying from its own copy restores bit-exact
    state."""
    blocks = [(_kv_block(rng), _kv_block(rng)) for _ in range(6)]
    with WorkerPool(workers=1, port=0, backoff_base_s=0.02,
                    healthy_reset_s=0.5) as pool:
        with QuantClient(port=pool.port, retries=20, backoff_base_s=0.05,
                         backoff_max_s=0.5, retry_seed=0,
                         timeout=30.0) as cli:
            cli.session_open(session_id="s", n_layers=1)
            for seq in range(3):
                k, v = blocks[seq]
                cli.session_append("s", 0, k, v, seq=seq)
            os.kill(pool._procs[0].pid, signal.SIGKILL)
            # The retry loop reconnects to the restarted worker, whose
            # session table is empty: typed SessionLost, not retryable.
            with pytest.raises(SessionLost):
                cli.session_append("s", 0, *blocks[3], seq=3)
            # Recovery protocol: reopen and replay the client's copy.
            ack = cli.session_open(session_id="s", n_layers=1)
            assert ack["resumed"] is False and ack["next_seq"] == 0
            local = KVCacheSession(1)
            for seq, (k, v) in enumerate(blocks):
                cli.session_append("s", 0, k, v, seq=seq)
                local.append(0, k, v)
            K, V = cli.session_read("s", 0)
            lk, lv = local.read(0)
            assert K.tobytes() == lk.tobytes()
            assert V.tobytes() == lv.tobytes()


@pytest.mark.slow
def test_clean_worker_exit_is_not_restarted(rng):
    """A drain-induced exit (code 0) marks the slot done; supervision
    must not resurrect deliberately stopped workers."""
    x = rng.standard_normal((2, 32))
    with WorkerPool(workers=1, port=0, backoff_base_s=0.02) as pool:
        with QuantClient(port=pool.port, retries=4, backoff_base_s=0.05,
                         timeout=30.0) as cli:
            _expect_exact(cli, x, fmt="m2xfp")
            cli.drain()  # worker finishes in-flight work and exits 0
        deadline = time.monotonic() + 30.0
        while not pool._done_slots and time.monotonic() < deadline:
            time.sleep(0.05)
        assert 0 in pool._done_slots
        assert pool.stats()["restarts"] == 0
        assert pool.stats()["exits"] and \
            pool.stats()["exits"][-1]["exitcode"] == 0
        pool.join()  # all slots done -> returns promptly
