"""Sync and async clients for the quantization server.

Both clients speak the versioned frame protocol over one TCP
connection, round-trip numpy arrays as raw float64 payloads, and
support **pipelining**: ``submit()`` streams request frames without
waiting, ``result()`` collects responses by request id in any order.
``quantize(..., verify=True)`` additionally recomputes the expected
result with the local library — ``quantize_weight`` /
``quantize_activation`` under the requested dispatch mode, or
``repro.codec.encode`` for packed requests — and raises unless the
server's bytes are identical: the wire adds nothing and loses nothing.

Every round trip (quantize, ping, drain, the KV-session calls) is
defined once, in a shared core, as ``encoder → wait → decoder`` plus
its retry label; :class:`QuantClient` (blocking sockets) and
:class:`AsyncQuantClient` (asyncio, over the protocol's
:class:`~repro.server.protocol.FrameProtocol`) only supply the transport
and the retry loop that drives it.

Fault tolerance:

* **Deadlines everywhere.** ``timeout`` bounds *every* frame read and
  write, not just the connect; a stalled server raises the typed
  :class:`~repro.errors.RequestTimeout` (a ``TimeoutError``), never an
  indefinite hang. Per-request ``deadline_s`` overrides it per call.
* **Reconnect + bounded retry.** ``quantize()`` retries up to
  ``retries`` times with exponential backoff and (optionally seeded)
  jitter on connection loss, ``BUSY`` and ``DRAINING`` — safe because
  quantization requests are idempotent and request-id-tagged. An
  exhausted budget raises :class:`~repro.errors.RetryBudgetExceeded`
  with the last failure chained; ``retries=0`` (the default) keeps the
  raw typed errors.
* **Fail fast, never hang.** When the connection dies, every pending
  pipelined request is rejected with the typed
  :class:`~repro.errors.ConnectionLost` instead of waiting forever.

Example::

    from repro.server import QuantClient

    with QuantClient(port=7421, retries=4) as cli:
        out = cli.quantize(x, fmt="m2xfp", op="weight", verify=True)
        rids = [cli.submit(t, fmt="elem-em") for t in tensors]  # pipelined
        outs = [cli.result(r) for r in rids]
        cli.ping()   # {"status": "ok", "inflight": 0, ...}

    # asyncio flavour
    async with AsyncQuantClient(port=7421) as cli:
        out = await cli.quantize(x, fmt="m2xfp")
"""

from __future__ import annotations

import asyncio
import random
import socket
import time

import numpy as np

from ..errors import ConfigError, ConnectionLost, ProtocolError, \
    RequestTimeout, RetryBudgetExceeded, ServerBusy
from . import protocol
from .server import DEFAULT_PORT, PORT_ENV, _env_int

__all__ = ["QuantClient", "AsyncQuantClient", "local_expected",
           "DEFAULT_CLIENT_TIMEOUT_S", "DEFAULT_CLIENT_RETRIES"]

DEFAULT_CLIENT_TIMEOUT_S = 60.0
DEFAULT_CLIENT_RETRIES = 0

#: Failures a reconnecting retry may fix: explicit backpressure, a
#: draining or crashed server, a dead/garbled connection, a deadline.
#: Typed server errors (FormatError, ConfigError, ...) are
#: deterministic and never retried.
_RETRYABLE = (ServerBusy, ConnectionLost, RequestTimeout,
              ConnectionError, OSError)


def local_expected(x: np.ndarray, *, fmt: str, op: str = "activation",
                   dispatch: str = "inherit", packed: bool = False):
    """What the server must return: the local library's own answer.

    Runs ``quantize_weight`` / ``quantize_activation`` (or the codec's
    ``encode`` for packed requests) under ``dispatch`` — the function the
    bit-exactness tests and ``verify=True`` compare against.
    """
    from ..runner.formats import make_format
    from ..serve.service import _dispatch_scope
    fmt_obj = make_format(fmt)
    with _dispatch_scope(dispatch):
        if packed:
            from ..codec import encode
            return encode(fmt_obj, x, op=op, axis=-1)
        fn = (fmt_obj.quantize_weight if op == "weight"
              else fmt_obj.quantize_activation)
        return fn(np.asarray(x, dtype=np.float64), axis=-1)


def _verify(result, x, *, fmt, op, dispatch, packed) -> None:
    expect = local_expected(x, fmt=fmt, op=op, dispatch=dispatch,
                            packed=packed)
    if packed:
        same = result.to_bytes() == expect.to_bytes()
    else:
        same = result.tobytes() == \
            np.asarray(expect, dtype=np.float64).tobytes()
    if not same:
        raise ProtocolError(
            f"server result for {fmt}:{op} (dispatch={dispatch}, "
            f"packed={packed}) is not bit-identical to the local "
            f"quantization — wire or server corruption")


def _telemetry(frame: protocol.Frame) -> dict:
    health = protocol.decode_health(frame)
    return {key: health.get(key, {})
            for key in ("stats", "services", "sessions", "metrics")}


class _RetryPolicy:
    """Retry budget and backoff/jitter schedule (deterministic when
    seeded), shared by both transports."""

    def __init__(self, retries, backoff_base_s: float,
                 backoff_max_s: float, seed) -> None:
        self.retries = DEFAULT_CLIENT_RETRIES if retries is None \
            else self.budget(retries)
        self.backoff_base_s = float(backoff_base_s)
        self.backoff_max_s = float(backoff_max_s)
        self._rng = random.Random(seed)

    def budget(self, retries) -> int:
        """A call's retry budget: its own ``retries``, else the client's."""
        if retries is None:
            return self.retries
        if int(retries) < 0:
            raise ConfigError("retries must be >= 0")
        return int(retries)

    def delay_s(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (0-based), jittered."""
        base = min(self.backoff_base_s * (2.0 ** attempt),
                   self.backoff_max_s)
        return base * (0.5 + self._rng.random())

    def exhausted(self, budget: int, label: str,
                  last: BaseException) -> BaseException:
        """What a spent budget raises: the raw typed error when retries
        are off, else :class:`RetryBudgetExceeded` chaining ``last``."""
        if budget == 0:
            return last
        err = RetryBudgetExceeded(
            f"{label} failed after {budget + 1} attempts "
            f"(last: {type(last).__name__}: {last})")
        err.__cause__ = last
        return err


class _ClientCore:
    """The round trips, defined once over a transport.

    Parameters
    ----------
    timeout:
        Bound on the connect and on every frame read/write (``None``
        means the default, 60 s; ``0`` disables deadlines).
    retries:
        Retry budget for the resilient round trips (``None`` means the
        default, 0 = fail on the first error).
    backoff_base_s / backoff_max_s / retry_seed:
        Exponential-backoff schedule between retries; jitter comes
        from ``random.Random(retry_seed)`` so tests can pin it.

    A subclass supplies ``_init_transport()``, ``_send(encoder, *args,
    **fields)`` (one request on the wire; returns what its wait takes)
    and ``_call(label, decode, send, *args, deadline_s, retries,
    **fields)``: ``decode(wait(send(*args, **fields)))`` inside the
    retry loop. The async transport's ``_send``/``_call`` are
    coroutine functions, so every method here returns an awaitable
    there.
    """

    def __init__(self, host: str = "127.0.0.1", port: int | None = None, *,
                 timeout: float | None = None, retries: int | None = None,
                 backoff_base_s: float = 0.05, backoff_max_s: float = 2.0,
                 retry_seed=None) -> None:
        self.host = host
        self.port = _env_int(PORT_ENV, DEFAULT_PORT) if port is None \
            else int(port)
        if timeout is None:
            timeout = DEFAULT_CLIENT_TIMEOUT_S
        self.timeout = float(timeout) or None
        self.retry = _RetryPolicy(retries, backoff_base_s, backoff_max_s,
                                  retry_seed)
        self._conn_gen = 0
        self._next_id = 1
        self._init_transport()

    def _deadline_s(self, deadline_s: float | None) -> float | None:
        """A wait's time budget: its own ``deadline_s`` (``0`` = none),
        else the client ``timeout``."""
        return self.timeout if deadline_s is None else \
            (float(deadline_s) or None)

    # ------------------------------------------------------------------
    # Pipelined primitive (fail fast, never auto-retry)
    # ------------------------------------------------------------------
    def submit(self, x: np.ndarray, *, fmt: str, op: str = "activation",
               dispatch: str = "inherit", packed: bool = False,
               fingerprint: str = ""):
        """Stream one request frame without waiting (pipelined).

        Returns its request id (sync); awaited, a future resolving to
        the response frame (async).
        """
        return self._send(protocol.encode_request, x, fmt=fmt, op=op,
                          dispatch=dispatch, packed=packed,
                          fingerprint=fingerprint)

    # ------------------------------------------------------------------
    # Resilient round trips
    # ------------------------------------------------------------------
    def quantize(self, x: np.ndarray, *, fmt: str, op: str = "activation",
                 dispatch: str = "inherit", packed: bool = False,
                 fingerprint: str = "", verify: bool = False,
                 deadline_s: float | None = None,
                 retries: int | None = None):
        """One round trip: submit, wait, (optionally) verify bit-exactness.

        Retries (reconnecting as needed) on connection loss, timeouts,
        ``BUSY`` and ``DRAINING`` up to the retry budget — idempotent
        by the protocol contract, so a retried request returns the
        same bits the first attempt would have.
        """
        def decode(frame):
            out = protocol.response_result(frame)
            if verify:
                _verify(out, x, fmt=fmt, op=op, dispatch=dispatch,
                        packed=packed)
            return out

        return self._call(f"{fmt}:{op} quantize", decode, self.submit, x,
                          fmt=fmt, op=op, dispatch=dispatch, packed=packed,
                          fingerprint=fingerprint, deadline_s=deadline_s,
                          retries=retries)

    def _ping(self, decode, deadline_s, retries):
        return self._call("ping", decode, self._send, protocol.encode_ping,
                          deadline_s=deadline_s, retries=retries)

    def ping(self, *, deadline_s: float | None = None,
             retries: int | None = None) -> dict:
        """Liveness/health round trip: the server's health report dict."""
        return self._ping(protocol.decode_health, deadline_s, retries)

    def server_stats(self, *, deadline_s: float | None = None,
                     retries: int | None = None) -> dict:
        """The server-side telemetry subset of the HEALTH meta.

        ``{"stats", "services", "sessions", "metrics"}`` — the raw
        counters, the per-arm service aggregate, the KV session
        occupancy, and the full metrics-registry snapshot (empty under
        ``REPRO_NO_METRICS=1`` on the server). One PING round trip.
        """
        return self._ping(_telemetry, deadline_s, retries)

    def drain(self, *, deadline_s: float | None = None) -> dict:
        """Ask the server to drain gracefully (one attempt, never
        retried); returns its health ack."""
        return self._call("drain", protocol.decode_health, self._send,
                          protocol.encode_drain, deadline_s=deadline_s,
                          retries=0)

    # ------------------------------------------------------------------
    # Streaming KV-cache sessions (protocol v3)
    # ------------------------------------------------------------------
    def session_open(self, *, session_id: str, n_layers: int, policy=None,
                     max_tokens: int | None = None, sink_tokens: int = 0,
                     dispatch: str = "inherit", verify: bool = True,
                     deadline_s: float | None = None,
                     retries: int | None = None) -> dict:
        """Open (or idempotently resume) a KV-cache session.

        The ack carries the server's session info plus ``next_seq`` —
        the sequence number the next :meth:`session_append` must use.
        Safe to retry: re-opening with the same config resumes.
        """
        return self._call(f"session {session_id} open",
                          protocol.decode_session_ack, self._send,
                          protocol.encode_session_open,
                          session_id=session_id, n_layers=n_layers,
                          policy=policy, max_tokens=max_tokens,
                          sink_tokens=sink_tokens, dispatch=dispatch,
                          verify=verify, deadline_s=deadline_s,
                          retries=retries)

    def session_append(self, session_id: str, layer: int, k, v, *,
                       seq: int, deadline_s: float | None = None,
                       retries: int | None = None) -> dict:
        """Append one K/V block; ``seq`` is the caller's append counter.

        Retrying with the *same* seq is safe: the server replays the
        stored ack for a duplicate. An un-reconcilable seq (state lost
        to a crash) raises the typed, non-retryable
        :class:`~repro.errors.SessionLost`.
        """
        return self._call(f"session {session_id} append",
                          protocol.decode_session_ack, self._send,
                          protocol.encode_session_append,
                          session_id=session_id, layer=layer, seq=seq,
                          k=k, v=v, deadline_s=deadline_s, retries=retries)

    def session_read(self, session_id: str, layer: int, *,
                     deadline_s: float | None = None,
                     retries: int | None = None):
        """Dequantized (K, V) for one layer of a live session."""
        return self._call(f"session {session_id} read",
                          protocol.decode_session_kv, self._send,
                          protocol.encode_session_read,
                          session_id=session_id, layer=layer,
                          deadline_s=deadline_s, retries=retries)

    def session_close(self, session_id: str, *,
                      deadline_s: float | None = None,
                      retries: int | None = None) -> dict:
        """Close a session; the ack carries its final stats."""
        return self._call(f"session {session_id} close",
                          protocol.decode_session_ack, self._send,
                          protocol.encode_session_close,
                          session_id=session_id, deadline_s=deadline_s,
                          retries=retries)


class QuantClient(_ClientCore):
    """Blocking client over one pipelined TCP connection."""

    def _init_transport(self) -> None:
        self._sock: socket.socket | None = None
        self._broken = False
        self._sent_gen: dict[int, int] = {}
        self._responses: dict[int, protocol.Frame] = {}

    # ------------------------------------------------------------------
    # Connection lifecycle
    # ------------------------------------------------------------------
    def connect(self) -> "QuantClient":
        if self._sock is None:
            self._sock = socket.create_connection((self.host, self.port),
                                                  timeout=self.timeout)
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock.settimeout(self.timeout)
            self._broken = False
            self._conn_gen += 1
        return self

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None
        self._broken = False

    def _mark_broken(self) -> None:
        """The stream position is unknown; force a fresh connection."""
        self._broken = True
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def _ensure_connection(self) -> None:
        if self._broken:
            self._sock = None
            self._broken = False
        if self._sock is None:
            self.connect()

    def __enter__(self) -> "QuantClient":
        return self.connect()

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _send(self, encoder, *args, **kwargs) -> int:
        if self._sock is None and not self._broken:
            raise ConfigError("client is not connected; call connect() "
                              "or use it as a context manager")
        self._ensure_connection()
        rid = self._next_id
        self._next_id += 1
        try:
            self._sock.sendall(encoder(rid, *args, **kwargs))
        except socket.timeout as exc:
            self._mark_broken()
            raise RequestTimeout(
                f"sending request {rid} timed out after "
                f"{self.timeout:g}s") from exc
        except (ConnectionError, OSError) as exc:
            self._mark_broken()
            raise ConnectionLost(
                f"connection died sending request {rid}: {exc}") from exc
        self._sent_gen[rid] = self._conn_gen
        return rid

    def _wait_frame(self, request_id: int,
                    deadline_s: float | None = None) -> protocol.Frame:
        """Collect frames until ``request_id`` answers (bounded)."""
        budget = self._deadline_s(deadline_s)
        deadline = None if budget is None else time.monotonic() + budget
        try:
            while request_id not in self._responses:
                if self._sent_gen.get(request_id, self._conn_gen) \
                        != self._conn_gen or self._broken:
                    # The connection the request went out on is gone:
                    # its response can never arrive. Fail fast.
                    raise ConnectionLost(
                        f"connection died with request {request_id} in "
                        f"flight; resubmit on the new connection")
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise RequestTimeout(
                            f"no response to request {request_id} within "
                            f"{budget:g}s")
                try:
                    self._sock.settimeout(remaining if remaining is not None
                                          else self.timeout)
                    frame = protocol.recv_frame(self._sock)
                except socket.timeout as exc:
                    # recv may have consumed part of a frame: the stream
                    # position is unknown, so the connection is done for.
                    self._mark_broken()
                    raise RequestTimeout(
                        f"no response to request {request_id} within "
                        f"{budget:g}s") from exc
                except ConnectionLost:
                    self._mark_broken()
                    raise
                except ProtocolError as exc:
                    # Locally unframeable bytes (corruption): transport-
                    # level failure, distinct from a server-reported
                    # PROTOCOL_ERROR status (which stays non-retryable).
                    self._mark_broken()
                    raise ConnectionLost(
                        f"response stream unframeable: {exc}") from exc
                except (ConnectionError, OSError) as exc:
                    self._mark_broken()
                    raise ConnectionLost(
                        f"connection died awaiting request "
                        f"{request_id}: {exc}") from exc
                if frame is None:
                    self._mark_broken()
                    raise ConnectionLost(
                        f"server closed the connection before answering "
                        f"request {request_id}")
                self._responses[frame.request_id] = frame
                self._sent_gen.pop(frame.request_id, None)
            return self._responses.pop(request_id)
        finally:
            # Answered, timed out or lost: the request is no longer
            # awaited on any connection.
            self._sent_gen.pop(request_id, None)

    def _call(self, label, decode, send, *args, deadline_s=None,
              retries=None, **fields):
        budget = self.retry.budget(retries)
        for attempt in range(budget + 1):
            try:
                return decode(self._wait_frame(send(*args, **fields),
                                               deadline_s))
            except _RETRYABLE as exc:
                # BUSY/DRAINING answers arrive on a healthy connection
                # (a draining server still owes answers for admitted
                # in-flight work), so only transport failures force a
                # reconnect. A finished drain closes the connection,
                # which surfaces as ConnectionLost and reconnects here.
                if not isinstance(exc, ServerBusy):
                    self._mark_broken()
                if attempt >= budget:
                    raise self.retry.exhausted(budget, label, exc)
                time.sleep(self.retry.delay_s(attempt))

    # ------------------------------------------------------------------
    # Sync-only pipelining helpers
    # ------------------------------------------------------------------
    def result(self, request_id: int, *, deadline_s: float | None = None):
        """Wait for the response to ``request_id`` (any arrival order).

        Raises the typed exception an error status maps to
        (``ServerBusy``, ``FormatError``, ``ConfigError``, ...);
        ``ConnectionLost`` if the connection died with the request in
        flight; ``RequestTimeout`` past the deadline.
        """
        return protocol.response_result(
            self._wait_frame(request_id, deadline_s))

    def quantize_batch(self, tensors, *, fmt: str, op: str = "activation",
                       dispatch: str = "inherit", packed: bool = False,
                       window: int = 32) -> list:
        """Pipeline many tensors over this connection, gather in order.

        At most ``window`` requests are in flight at once: with both
        sides streaming blindly, unbounded pipelining can deadlock once
        the responses the client is not yet reading fill the socket
        buffers (and it would trip the server's in-flight bound anyway).
        """
        if window < 1:
            raise ConfigError("window must be >= 1")
        tensors = list(tensors)
        results: list = []
        pending: list[int] = []
        for x in tensors:
            if len(pending) >= window:
                results.append(self.result(pending.pop(0)))
            pending.append(self.submit(x, fmt=fmt, op=op, dispatch=dispatch,
                                       packed=packed))
        results.extend(self.result(rid) for rid in pending)
        return results


class AsyncQuantClient(_ClientCore):
    """asyncio client: same round trips, futures per in-flight request.

    Every round-trip method returns an awaitable; a dead connection
    rejects **all** pending futures with the typed
    :class:`~repro.errors.ConnectionLost` instead of hanging.
    """

    def _init_transport(self) -> None:
        self._conn: protocol.FrameProtocol | None = None
        self._pending: dict[int, asyncio.Future] = {}
        self._reader_task: asyncio.Task | None = None
        self._reader_error: BaseException | None = None
        self._conn_lock: asyncio.Lock | None = None

    # ------------------------------------------------------------------
    # Connection lifecycle
    # ------------------------------------------------------------------
    async def connect(self) -> "AsyncQuantClient":
        if self._conn_lock is None:
            self._conn_lock = asyncio.Lock()
        if self._conn is None:
            await self._open()
        return self

    async def _open(self) -> None:
        try:
            async with asyncio.timeout(self.timeout):
                _, self._conn = await asyncio.get_running_loop() \
                    .create_connection(protocol.FrameProtocol, self.host,
                                       self.port)
        except asyncio.TimeoutError:
            raise RequestTimeout(
                f"connect to {self.host}:{self.port} timed out after "
                f"{self.timeout:g}s") from None
        self._reader_error = None
        self._reader_task = asyncio.create_task(self._read_loop(self._conn))
        self._conn_gen += 1

    async def _teardown(self, error: BaseException | None = None) -> None:
        """Drop the connection and fail every pending future, typed."""
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except (asyncio.CancelledError, Exception):
                pass
            self._reader_task = None
        if self._conn is not None:
            self._conn.close()
            await self._conn.wait_closed()
            self._conn = None
        exc = error or ConnectionLost("client closed with the request "
                                      "in flight")
        for fut in self._pending.values():
            if not fut.done():
                fut.set_exception(exc)
        self._pending.clear()

    async def _reset_connection(self, failed_gen: int) -> None:
        """Reconnect once even when many tasks fail concurrently."""
        if self._conn_lock is None:
            self._conn_lock = asyncio.Lock()
        async with self._conn_lock:
            if self._conn_gen != failed_gen or self._conn is None:
                pass  # some other task already reconnected (or closed)
            else:
                await self._teardown(
                    ConnectionLost("connection reset after failure"))
            if self._conn is None:
                await self._open()

    async def close(self) -> None:
        await self._teardown()

    async def __aenter__(self) -> "AsyncQuantClient":
        return await self.connect()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    async def _read_loop(self, conn: protocol.FrameProtocol) -> None:
        try:
            while True:
                frame = await conn.read_frame()
                if frame is None:
                    raise ConnectionLost("server closed the connection")
                fut = self._pending.pop(frame.request_id, None)
                if fut is not None and not fut.done():
                    fut.set_result(frame)
        except asyncio.CancelledError:
            raise
        except BaseException as exc:
            if not isinstance(exc, ProtocolError):
                exc = ConnectionLost(f"connection reader failed: {exc}")
            self._reader_error = exc
            for fut in self._pending.values():
                if not fut.done():
                    fut.set_exception(exc)
            self._pending.clear()

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    async def _send(self, encoder, *args, **kwargs) -> asyncio.Future:
        if self._conn is None:
            raise ConfigError("client is not connected; use "
                              "`async with AsyncQuantClient(...)`")
        if self._reader_task is not None and self._reader_task.done():
            # The reader died (connection failure): a request parked now
            # would never resolve. Fail fast with the root cause.
            exc = self._reader_error
            raise ConnectionLost(
                f"connection reader has stopped"
                f"{f': {exc}' if exc else ''}; reconnect the client") \
                from exc
        rid = self._next_id
        self._next_id += 1
        fut = asyncio.get_running_loop().create_future()
        fut._repro_request_id = rid
        self._pending[rid] = fut
        try:
            self._conn.write(encoder(rid, *args, **kwargs))
            async with asyncio.timeout(self.timeout):
                await self._conn.drain()
        except asyncio.TimeoutError:
            self._pending.pop(rid, None)
            raise RequestTimeout(
                f"sending request {rid} timed out after "
                f"{self.timeout:g}s") from None
        except (ConnectionError, OSError) as exc:
            self._pending.pop(rid, None)
            raise ConnectionLost(
                f"connection died sending request {rid}: {exc}") from exc
        return fut

    async def _await_frame(self, fut: asyncio.Future,
                           deadline_s: float | None) -> protocol.Frame:
        budget = self._deadline_s(deadline_s)
        try:
            # Expiry cancels the await and with it ``fut``, as wait_for
            # did, without a wrapping task per request.
            async with asyncio.timeout(budget):
                return await fut
        except asyncio.TimeoutError:
            raise RequestTimeout(
                f"no response to request {fut._repro_request_id} within "
                f"{budget:g}s") from None
        finally:
            # The reader pops answered requests itself; a timed-out or
            # cancelled wait must not leave its future parked.
            self._pending.pop(fut._repro_request_id, None)

    async def _call(self, label, decode, send, *args, deadline_s=None,
                    retries=None, **fields):
        budget = self.retry.budget(retries)
        for attempt in range(budget + 1):
            gen = self._conn_gen
            try:
                if attempt and self._conn is None:
                    # An earlier reconnect failed; this attempt retries
                    # the connect itself (counted against the budget).
                    await self._reset_connection(gen)
                fut = await send(*args, **fields)
                return decode(await self._await_frame(fut, deadline_s))
            except _RETRYABLE as exc:
                if attempt >= budget:
                    raise self.retry.exhausted(budget, label, exc)
                await asyncio.sleep(self.retry.delay_s(attempt))
                # As in the sync client: BUSY/DRAINING keep the healthy
                # connection (it still owes pipelined answers); only
                # transport failures force a reconnect.
                if not isinstance(exc, ServerBusy):
                    try:
                        await self._reset_connection(gen)
                    except _RETRYABLE:
                        pass  # the next attempt retries the connect
