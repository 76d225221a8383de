"""The asyncio TCP quantization server.

``QuantServer`` bridges socket connections onto the in-process
:class:`~repro.serve.QuantService` stack: every request is routed to a
shared service keyed by **(format, dispatch mode, packed)**, so
concurrent clients asking for the same arm share one service (and one
weight memo) no matter which connection they arrived on. One rule
decides where work runs (see ``_INLINE_MAX_ELEMENTS``): a quantize
request or KV session op of at most 2^14 elements runs on the event
loop, because it costs less than the thread hop would; anything larger
takes one hop through the same code to the server's one hop thread, so
connections stay responsive while big CPU-bound passes run. A larger
weight request that hits the memo is answered on the loop: the digest
costs less than the hop.

Admission control is a bounded in-flight counter: once
``max_inflight`` requests are admitted and unanswered, further requests
are answered immediately with ``Status.BUSY`` instead of being
buffered without bound — backpressure is explicit, never a hang.
Connections are fully pipelined: a client may stream many request
frames before reading responses, and responses come back tagged with
the request id in completion order.

Fault tolerance (protocol version 2):

* **Graceful drain** — ``SIGTERM`` (or a ``DRAIN`` control frame)
  stops accepting new connections, answers new requests with
  ``Status.DRAINING``, finishes the admitted in-flight work bounded by
  ``drain_timeout_s``, then exits. In-flight results are never dropped
  on the floor by a shutdown.
* **Health** — a ``PING`` frame is answered with a ``HEALTH`` frame
  carrying draining state, in-flight count and the stats counters.
* **Slow-loris guard** — once a frame's first byte arrives, the rest
  must complete within ``read_timeout_s`` or the connection is dropped
  with a protocol error; a trickling or garbage peer cannot pin a
  connection task forever (the max-frame-size guard bounds allocation).

Streaming KV-cache sessions (protocol version 3): ``SESSION_OPEN``
creates (or idempotently resumes) a :class:`~repro.kv.KVCacheSession`
in the server's bounded session table; ``SESSION_APPEND`` carries one
K/V block tagged with a client sequence number — the server applies
the expected seq, **replays** the stored ack for the immediately
preceding one (a retried duplicate after a transport failure) and
answers ``SESSION_LOST`` for anything else, so a reconnecting client
either resumes exactly or learns the state is gone, never silently
corrupts the stream; ``SESSION_READ`` returns the dequantized layer;
``SESSION_CLOSE`` frees the slot. During a drain, open/append/read are
refused with ``DRAINING`` while close stays allowed — open sessions
are rejected cleanly, not wedged.

Env knobs (all overridable per instance): ``REPRO_SERVER_PORT`` (default
7421), ``REPRO_SERVER_MAX_INFLIGHT`` (default 64),
``REPRO_SERVER_READ_TIMEOUT_S`` (default 60),
``REPRO_SERVER_DRAIN_TIMEOUT_S`` (default 30),
``REPRO_SERVER_MAX_SESSIONS`` (default 64), and — consumed by the
CLI / worker pool — ``REPRO_SERVER_WORKERS`` /
``REPRO_SERVER_MAX_RESTARTS``.

Example::

    from repro.server import ServerThread, QuantClient

    with ServerThread(port=0) as st:             # ephemeral port
        with QuantClient(port=st.port) as cli:
            out = cli.quantize(x, fmt="m2xfp", op="weight")
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import itertools
import os
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from .. import obs
from ..errors import ConfigError, ProtocolError, ServerBusy, SessionLost
from . import protocol
from .protocol import Status

__all__ = ["QuantServer", "ServerThread", "run_server",
           "PORT_ENV", "MAX_INFLIGHT_ENV", "WORKERS_ENV",
           "READ_TIMEOUT_ENV", "DRAIN_TIMEOUT_ENV", "MAX_SESSIONS_ENV",
           "DEFAULT_PORT", "DEFAULT_MAX_INFLIGHT",
           "DEFAULT_READ_TIMEOUT_S", "DEFAULT_DRAIN_TIMEOUT_S",
           "DEFAULT_MAX_SESSIONS"]

#: Environment knobs (documented in the README's env-knob table).
PORT_ENV = "REPRO_SERVER_PORT"
MAX_INFLIGHT_ENV = "REPRO_SERVER_MAX_INFLIGHT"
WORKERS_ENV = "REPRO_SERVER_WORKERS"
READ_TIMEOUT_ENV = "REPRO_SERVER_READ_TIMEOUT_S"
DRAIN_TIMEOUT_ENV = "REPRO_SERVER_DRAIN_TIMEOUT_S"
MAX_SESSIONS_ENV = "REPRO_SERVER_MAX_SESSIONS"

DEFAULT_PORT = 7421
DEFAULT_MAX_INFLIGHT = 64
DEFAULT_READ_TIMEOUT_S = 60.0
DEFAULT_DRAIN_TIMEOUT_S = 30.0
DEFAULT_MAX_SESSIONS = 64


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return default
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{name} must be an integer, got {raw!r}") from None


def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return default
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{name} must be a number, got {raw!r}") from None


#: The one inline rule: a quantize request of at most this many
#: elements, a session APPEND of at most this many K+V elements and a
#: session READ of at most this many held elements run on the event
#: loop; anything larger hops to the server's one hop thread
#: (``QuantServer._hop``). For small work the hop (a
#: queue put, a thread wake-up and a future resolved across threads)
#: costs more than the work: a decode step (1 x 64 K and V per layer),
#: or a wire request of a few rows. Work at the bound (an m2-nvfp4
#: weight, the slowest) holds the loop 14-18 ms on 2 vCPUs, about as
#: long as a hopped pass already delays a PING through the GIL.
_INLINE_MAX_ELEMENTS = 1 << 14

#: A connection's read loop yields to the event loop after this many
#: frames. ``FrameProtocol.read_frame`` returns an already queued frame
#: without suspending, so without the yield one connection's pipelined
#: burst would all be read (and fill ``max_inflight``) before another
#: connection's first frame; yielding after every frame instead cost
#: wire_bulk about 12% of its throughput (5 alternating pairs, 2 vCPUs).
_FRAMES_PER_TURN = 8

#: Frame kinds that carry admitted (in-flight-bounded) work.
_SESSION_KINDS = (protocol.KIND_SESSION_OPEN, protocol.KIND_SESSION_APPEND,
                  protocol.KIND_SESSION_READ, protocol.KIND_SESSION_CLOSE)
_WORK_KINDS = (protocol.KIND_REQUEST, *_SESSION_KINDS)


class _SessionEntry:
    """One live session: the cache plus the seq-dedup resume state."""

    __slots__ = ("session", "lock", "next_seq", "last_ack")

    def __init__(self, session) -> None:
        self.session = session
        self.lock = asyncio.Lock()   # serializes appends per session
        self.next_seq = 0            # the seq the next append must carry
        self.last_ack: dict | None = None  # replayed for a retried dup


class QuantServer:
    """One asyncio TCP quantization server (single process).

    Parameters
    ----------
    host / port:
        Bind address. ``port=None`` reads ``REPRO_SERVER_PORT`` (default
        7421); ``port=0`` binds an ephemeral port, reported by
        :attr:`port` once started.
    max_inflight:
        Admission bound: requests admitted but not yet answered. At the
        bound, new requests get an immediate ``BUSY`` response.
        ``None`` reads ``REPRO_SERVER_MAX_INFLIGHT`` (default 64).
    max_requests:
        Stop serving after this many responses (smoke tests / CLI
        ``--max-requests``); ``None`` serves forever.
    read_timeout_s:
        Slow-loris guard: a started frame must finish within this many
        seconds (``None`` reads ``REPRO_SERVER_READ_TIMEOUT_S``, default
        60; ``0`` disables the guard).
    drain_timeout_s:
        Upper bound on how long a drain waits for admitted in-flight
        work before exiting anyway (``None`` reads
        ``REPRO_SERVER_DRAIN_TIMEOUT_S``, default 30).
    max_sessions:
        Bound on concurrently open KV-cache sessions; at the bound,
        ``SESSION_OPEN`` answers ``BUSY`` (``None`` reads
        ``REPRO_SERVER_MAX_SESSIONS``, default 64).
    """

    def __init__(self, host: str = "127.0.0.1", port: int | None = None, *,
                 max_inflight: int | None = None,
                 max_requests: int | None = None,
                 read_timeout_s: float | None = None,
                 drain_timeout_s: float | None = None,
                 max_sessions: int | None = None) -> None:
        self.host = host
        self.port = _env_int(PORT_ENV, DEFAULT_PORT) if port is None \
            else int(port)
        self.max_inflight = _env_int(MAX_INFLIGHT_ENV, DEFAULT_MAX_INFLIGHT) \
            if max_inflight is None else int(max_inflight)
        if self.max_inflight < 1:
            raise ConfigError("max_inflight must be >= 1")
        self.read_timeout_s = _env_float(READ_TIMEOUT_ENV,
                                         DEFAULT_READ_TIMEOUT_S) \
            if read_timeout_s is None else float(read_timeout_s)
        self.drain_timeout_s = _env_float(DRAIN_TIMEOUT_ENV,
                                          DEFAULT_DRAIN_TIMEOUT_S) \
            if drain_timeout_s is None else float(drain_timeout_s)
        if self.drain_timeout_s < 0 or self.read_timeout_s < 0:
            raise ConfigError("timeouts must be >= 0")
        self.max_sessions = _env_int(MAX_SESSIONS_ENV, DEFAULT_MAX_SESSIONS) \
            if max_sessions is None else int(max_sessions)
        if self.max_sessions < 1:
            raise ConfigError("max_sessions must be >= 1")
        self.max_requests = max_requests
        self.stats = {"connections": 0, "requests": 0, "responses": 0,
                      "busy_rejections": 0, "errors": 0, "pings": 0,
                      "drain_requests": 0, "draining_rejections": 0,
                      "session_opens": 0, "session_appends": 0,
                      "session_reads": 0, "session_closes": 0,
                      "sessions_lost": 0}
        self._services: dict[tuple, object] = {}
        self._sessions: dict[str, _SessionEntry] = {}
        self._inflight = 0
        self._draining = False
        self._server: asyncio.base_events.Server | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._drained: asyncio.Event | None = None
        self._hop_pool: ThreadPoolExecutor | None = None
        self._session_handlers = {
            protocol.KIND_SESSION_OPEN: self._session_open,
            protocol.KIND_SESSION_APPEND: self._session_append,
            protocol.KIND_SESSION_READ: self._session_read,
            protocol.KIND_SESSION_CLOSE: self._session_close,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self, sock=None) -> None:
        """Bind and start accepting (``sock`` overrides host/port)."""
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._drained = asyncio.Event()
        self._hop_pool = ThreadPoolExecutor(max_workers=1,
                                            thread_name_prefix="repro-hop")
        factory = functools.partial(protocol.FrameProtocol,
                                    self.read_timeout_s or None,
                                    self._on_connection)
        if sock is not None:
            self._server = await self._loop.create_server(factory, sock=sock)
        else:
            self._server = await self._loop.create_server(
                factory, host=self.host, port=self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        obs.registry().register_collector("server",
                                          lambda: dict(self.stats))

    async def run(self, sock=None) -> None:
        """Start (if needed), serve until :meth:`request_stop`, clean up."""
        if self._server is None:
            await self.start(sock=sock)
        try:
            await self._stop.wait()
        finally:
            self._server.close()
            await self._server.wait_closed()
            for svc in self._services.values():
                svc.close()
            self._services.clear()
            self._hop_pool.shutdown(wait=False)
            obs.registry().unregister_collector("server")

    def request_stop(self) -> None:
        """Ask the server to exit :meth:`run`; safe from any thread."""
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:
                pass  # loop already closed: the server has already exited

    def request_drain(self) -> None:
        """Begin a graceful drain; safe from any thread / signal handler.

        Stops accepting connections, answers new requests with
        ``Status.DRAINING``, waits (bounded by ``drain_timeout_s``) for
        admitted in-flight work, then stops the server.
        """
        if self._loop is not None:
            try:
                self._loop.call_soon_threadsafe(self._start_drain)
            except RuntimeError:
                pass  # loop already closed: nothing left to drain

    @property
    def draining(self) -> bool:
        return self._draining

    def health_info(self) -> dict:
        """The report a ``PING`` is answered with.

        ``services`` aggregates the per-arm ``QuantService`` counters
        (notably ``weight_cache_hits``) so upstream observers — the
        gateway's ``/metrics`` — see cache behaviour without a side
        channel.
        """
        services = {"arms": len(self._services), "requests": 0,
                    "batches": 0, "weight_cache_hits": 0}
        for svc in list(self._services.values()):
            try:
                svc_stats = svc.stats()
            except Exception:
                continue  # a closing service: skip, health stays cheap
            for key in ("requests", "batches", "weight_cache_hits"):
                services[key] += int(svc_stats.get(key, 0))
        return {"status": "draining" if self._draining else "ok",
                "draining": self._draining,
                "inflight": self._inflight,
                "max_inflight": self.max_inflight,
                "protocol_version": protocol.PROTOCOL_VERSION,
                "stats": dict(self.stats),
                "services": services,
                "sessions": {"open": len(self._sessions),
                             "max_sessions": self.max_sessions},
                # HEALTH meta is additive (DESIGN.md §12): the registry
                # snapshot rides along without a protocol version bump.
                # {} with REPRO_NO_METRICS=1.
                "metrics": obs.registry().snapshot()}

    def _start_drain(self) -> None:
        """Loop-side drain entry (idempotent)."""
        if self._draining or self._loop is None:
            return
        self._draining = True
        self.stats["drain_requests"] += 1
        self._loop.create_task(self._drain())

    async def _drain(self) -> None:
        if self._server is not None:
            self._server.close()  # stop accepting new connections
        if self._inflight == 0:
            self._drained.set()
        try:
            await asyncio.wait_for(self._drained.wait(),
                                   self.drain_timeout_s)
        except asyncio.TimeoutError:
            pass  # bounded drain: stragglers lose, the process exits
        self._stop.set()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _hop(self, fn, *args):
        """Run ``fn(*args)`` on the server's hop thread (carrying the
        caller's context, as ``asyncio.to_thread`` does) and await it.

        One thread, not the loop's default executor (up to cpu + 4
        threads): with 16 above-bound requests in flight (128 x 256
        activations, 2 vCPUs), parallel hop threads fought the loop for
        the GIL and served 20-30% fewer requests/s than one thread.
        """
        ctx = contextvars.copy_context()
        return await self._loop.run_in_executor(
            self._hop_pool, functools.partial(ctx.run, fn, *args))

    def _get_service(self, req: protocol.QuantRequest):
        key = (req.format_name, req.dispatch, req.packed)
        svc = self._services.get(key)
        if svc is None:
            from ..serve import QuantService
            svc = QuantService(req.format_name, packed=req.packed,
                               dispatch=req.dispatch)
            self._services[key] = svc
        return svc


    async def _on_connection(self, conn: protocol.FrameProtocol) -> None:
        self.stats["connections"] += 1
        wlock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()
        try:
            for n_read in itertools.count(1):
                frame = await conn.read_frame()
                if frame is None:
                    break
                if n_read % _FRAMES_PER_TURN == 0:
                    await asyncio.sleep(0)
                if frame.kind == protocol.KIND_PING:
                    self.stats["pings"] += 1
                    await self._answer(conn, wlock, protocol.encode_health(
                        frame.request_id, self.health_info()))
                    continue
                if frame.kind == protocol.KIND_DRAIN:
                    # Flip the draining flag synchronously so the ack
                    # already reports draining: true.
                    self._start_drain()
                    await self._answer(conn, wlock, protocol.encode_health(
                        frame.request_id, self.health_info()))
                    continue
                self.stats["requests"] += 1
                if frame.kind not in _WORK_KINDS:
                    await self._answer(conn, wlock,
                                       protocol.encode_response_error(
                                           frame.request_id,
                                           Status.PROTOCOL_ERROR,
                                           "expected a request or "
                                           "session frame"))
                    continue
                if self._draining and frame.kind == \
                        protocol.KIND_SESSION_CLOSE:
                    # Drain still lets clients close their sessions —
                    # open sessions are rejected cleanly, never wedged.
                    self._inflight += 1
                    task = asyncio.create_task(
                        self._respond_session(frame, conn, wlock))
                    tasks.add(task)
                    task.add_done_callback(tasks.discard)
                    continue
                if self._draining:
                    # The drain contract: admitted work finishes, new
                    # work is refused with a retryable typed status.
                    self.stats["draining_rejections"] += 1
                    await self._answer(conn, wlock,
                                       protocol.encode_response_error(
                                           frame.request_id, Status.DRAINING,
                                           "server is draining for "
                                           "shutdown; reconnect and retry"))
                    continue
                if self._inflight >= self.max_inflight:
                    # Explicit backpressure: answer BUSY now rather than
                    # queueing without bound (the client backs off).
                    self.stats["busy_rejections"] += 1
                    await self._answer(conn, wlock,
                                       protocol.encode_response_error(
                                           frame.request_id, Status.BUSY,
                                           f"server at max in-flight "
                                           f"({self.max_inflight}); retry"))
                    continue
                self._inflight += 1
                handler = self._respond if frame.kind == \
                    protocol.KIND_REQUEST else self._respond_session
                task = asyncio.create_task(handler(frame, conn, wlock))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        except ProtocolError as exc:
            # The stream is unframeable from here on: report and close.
            try:
                await self._answer(conn, wlock,
                                   protocol.encode_response_error(
                                       0, Status.PROTOCOL_ERROR, str(exc)))
            except (ConnectionError, OSError):
                pass
        except (ConnectionError, OSError):
            pass
        except asyncio.CancelledError:
            # Server shutdown with this connection open: finish quietly
            # (the task is being torn down with the loop either way).
            pass
        finally:
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            conn.close()
            try:
                await conn.wait_closed()
            except asyncio.CancelledError:
                # Loop teardown cancels handlers mid-close; the transport
                # is going away either way.
                pass

    async def _respond(self, frame: protocol.Frame,
                       writer: protocol.FrameProtocol,
                       wlock: asyncio.Lock) -> None:
        rid = frame.request_id
        # The trace id is the protocol's own request id — the span tree
        # is correlated with the wire frame for free.
        tr = obs.start_trace(rid, "quantize")
        try:
            try:
                req = protocol.decode_request(frame)
                svc = self._get_service(req)
                if tr is not None:
                    tr.arm = svc.arm
                if req.fingerprint and req.fingerprint != svc.fingerprint:
                    raise ConfigError(
                        f"format fingerprint mismatch: request pinned "
                        f"{req.fingerprint}, server built {svc.fingerprint}")
                # Admission (and a weight request's memo lookup) runs
                # on the loop: the digest is one pass over bytes the
                # frame read already made, and a hit needs no hop.
                job = svc.admit(req.x, req.op, trace=tr)
                if req.x.size <= _INLINE_MAX_ELEMENTS or \
                        job.result is not None:
                    result = svc.execute(job)
                else:
                    result = await self._hop(svc.execute, job)
                if tr is not None:
                    with tr.span("serialize"):
                        data = self._encode_result(rid, req, svc, result)
                    obs.export(tr)
                else:
                    data = self._encode_result(rid, req, svc, result)
            except asyncio.CancelledError:
                # Server-initiated teardown, not a request failure: let
                # cancellation propagate (the transport is closing).
                raise
            except Exception as exc:
                self.stats["errors"] += 1
                data = protocol.encode_response_error(
                    rid, protocol.status_for_exception(exc), str(exc),
                    type(exc).__name__)
            try:
                await self._answer(writer, wlock, data)
            except (ConnectionError, OSError):
                pass  # client went away; nothing left to tell it
        finally:
            self._inflight -= 1
            self.stats["responses"] += 1
            if self._draining and self._inflight == 0 and \
                    self._drained is not None:
                self._drained.set()
            if self.max_requests is not None and \
                    self.stats["responses"] >= self.max_requests:
                self.request_stop()

    @staticmethod
    def _encode_result(rid: int, req: protocol.QuantRequest, svc,
                       result) -> bytes:
        if req.packed:
            return protocol.encode_response_packed(
                rid, result, fingerprint=svc.fingerprint)
        return protocol.encode_response_array(rid, result,
                                              fingerprint=svc.fingerprint)

    async def _answer(self, writer: protocol.FrameProtocol,
                      wlock: asyncio.Lock, data: bytes) -> None:
        async with wlock:
            writer.write(data)
            await writer.drain()

    # ------------------------------------------------------------------
    # Streaming KV-cache sessions (protocol v3)
    # ------------------------------------------------------------------
    def _get_session(self, session_id: str) -> _SessionEntry:
        entry = self._sessions.get(session_id)
        if entry is None:
            self.stats["sessions_lost"] += 1
            raise SessionLost(
                f"unknown session {session_id!r} on this replica; "
                f"reopen the session and replay from the client's copy")
        return entry

    async def _respond_session(self, frame: protocol.Frame,
                               writer: protocol.FrameProtocol,
                               wlock: asyncio.Lock) -> None:
        rid = frame.request_id
        try:
            try:
                data = await self._session_handlers[frame.kind](frame)
            except asyncio.CancelledError:
                raise
            except Exception as exc:
                self.stats["errors"] += 1
                data = protocol.encode_response_error(
                    rid, protocol.status_for_exception(exc), str(exc),
                    type(exc).__name__)
            try:
                await self._answer(writer, wlock, data)
            except (ConnectionError, OSError):
                pass  # client went away; the session state stays
        finally:
            self._inflight -= 1
            self.stats["responses"] += 1
            if self._draining and self._inflight == 0 and \
                    self._drained is not None:
                self._drained.set()
            if self.max_requests is not None and \
                    self.stats["responses"] >= self.max_requests:
                self.request_stop()

    async def _session_open(self, frame: protocol.Frame) -> bytes:
        cfg = protocol.decode_session_open(frame)
        self.stats["session_opens"] += 1
        sid = cfg["session_id"]
        from ..kv import KVCacheSession, KVPolicy
        entry = self._sessions.get(sid)
        if entry is not None:
            # Idempotent resume: the same config is acknowledged (with
            # the seq the client must continue from); a different one
            # is a hard error — two writers must not share state. The
            # check builds no session: one would replace the live
            # session's registry collector under the shared id.
            policy = KVPolicy.from_spec(cfg["policy"])
            if {**cfg, "policy": policy.spec()} != entry.session.info():
                raise ConfigError(
                    f"session {sid!r} is already open with a different "
                    f"configuration; close it first or pick a new id")
            return protocol.encode_session_ack(
                frame.request_id, {**entry.session.info(),
                                   "resumed": True,
                                   "next_seq": entry.next_seq})
        if len(self._sessions) >= self.max_sessions:
            raise ServerBusy(f"server at max open sessions "
                             f"({self.max_sessions}); close one or retry")
        session = KVCacheSession(cfg["n_layers"], cfg["policy"],
                                 max_tokens=cfg["max_tokens"],
                                 sink_tokens=cfg["sink_tokens"],
                                 dispatch=cfg["dispatch"],
                                 session_id=sid, verify=cfg["verify"])
        self._sessions[sid] = _SessionEntry(session)
        return protocol.encode_session_ack(
            frame.request_id, {**session.info(), "resumed": False,
                               "next_seq": 0})

    @staticmethod
    def _traced_append(session, req: dict, tr) -> dict:
        """The append with ``tr`` bound as the calling thread's trace,
        so the codec's stage timers see it: on the hop thread, because
        the hop does not carry the thread-local over; on the loop,
        because the binding is scoped to this synchronous call and no
        other request's code runs meanwhile."""
        if tr is None:
            return session.append(req["layer"], req["k"], req["v"])
        with obs.use_trace(tr):
            # Everything between frame receipt and the append actually
            # starting (loop scheduling, session lock) is queue wait.
            tr.add_span("queue", tr.t0, time.perf_counter())
            return session.append(req["layer"], req["k"], req["v"])

    async def _session_append(self, frame: protocol.Frame) -> bytes:
        req = protocol.decode_session_append(frame)
        self.stats["session_appends"] += 1
        tr = obs.start_trace(frame.request_id, "kv_append")
        entry = self._get_session(req["session_id"])
        if tr is not None:
            tr.arm = entry.session.policy.name_for(req["layer"])
        async with entry.lock:
            seq = req["seq"]
            if seq == entry.next_seq:
                # A failed append still consumes its seq (the failure is
                # deterministic and will not be retried), so the stream
                # position stays in step with the client's counter.
                entry.next_seq += 1
                entry.last_ack = None
                if req["k"].size + req["v"].size <= _INLINE_MAX_ELEMENTS:
                    ack = self._traced_append(entry.session, req, tr)
                else:
                    ack = await self._hop(
                        self._traced_append, entry.session, req, tr)
                # The append's ack is a fresh dict: completed in place,
                # kept for a replay and serialized as it is.
                ack["seq"] = seq
                ack["duplicate"] = False
                entry.last_ack = ack
            elif seq == entry.next_seq - 1 and entry.last_ack is not None:
                # A retried duplicate (the first ack died with the
                # connection): replay the stored ack — idempotent.
                ack = {**entry.last_ack, "duplicate": True}
            else:
                self.stats["sessions_lost"] += 1
                raise SessionLost(
                    f"session {req['session_id']!r} expected append seq "
                    f"{entry.next_seq}, got {seq}; the stream cannot be "
                    f"reconciled — reopen and replay")
        if tr is not None:
            with tr.span("serialize"):
                data = protocol.encode_session_ack(frame.request_id, ack)
            obs.export(tr)
            return data
        return protocol.encode_session_ack(frame.request_id, ack)

    async def _session_read(self, frame: protocol.Frame) -> bytes:
        sid, layer = protocol.decode_session_read(frame)
        self.stats["session_reads"] += 1
        entry = self._get_session(sid)
        if entry.session.held_elements(layer) <= _INLINE_MAX_ELEMENTS:
            k, v = entry.session.read(layer)
        else:
            k, v = await self._hop(entry.session.read, layer)
        return protocol.encode_session_kv(frame.request_id, k, v,
                                          session_id=sid, layer=layer)

    async def _session_close(self, frame: protocol.Frame) -> bytes:
        sid = protocol.decode_session_close(frame)
        self.stats["session_closes"] += 1
        entry = self._sessions.pop(sid, None)
        if entry is None:
            self.stats["sessions_lost"] += 1
            raise SessionLost(f"unknown session {sid!r}; nothing to close")
        final = entry.session.close()   # stats only: runs on the loop
        return protocol.encode_session_ack(
            frame.request_id, {"session_id": sid, **final})


def _install_sigterm_drain(server: QuantServer) -> None:
    """SIGTERM -> graceful drain, where the platform allows it.

    Signal handlers only work on the main thread (so in-process
    ``ServerThread`` runs skip this; worker processes and the CLI get
    it) and only on loops that support ``add_signal_handler``.
    """
    if threading.current_thread() is not threading.main_thread():
        return
    try:
        asyncio.get_running_loop().add_signal_handler(
            signal.SIGTERM, server.request_drain)
    except (NotImplementedError, RuntimeError, ValueError):
        pass


def run_server(server: QuantServer, sock=None,
               ready=None) -> None:
    """Blocking entry point: run ``server`` until stopped.

    ``ready(port)`` — when given — is called from inside the loop once
    the server is accepting (the CLI prints the bound port through it).
    On the main thread, ``SIGTERM`` triggers a graceful drain instead
    of killing in-flight work.
    """
    async def _main():
        await server.start(sock=sock)
        _install_sigterm_drain(server)
        if ready is not None:
            ready(server.port)
        await server.run()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass


class ServerThread:
    """Run a :class:`QuantServer` on a background thread.

    The in-process flavour of deployment — tests, benchmarks and
    notebook use — with the same code path as the CLI server. Entering
    the context starts the loop and waits until the socket is bound;
    :attr:`port` then holds the real (possibly ephemeral) port.
    """

    def __init__(self, **kwargs) -> None:
        self.server = QuantServer(**kwargs)
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    @property
    def port(self) -> int:
        return self.server.port

    def __enter__(self) -> "ServerThread":
        self._thread = threading.Thread(target=self._main,
                                        name="quant-server", daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise ConfigError("quantization server failed to start in 30s")
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def drain(self, timeout: float = 30.0) -> None:
        """Gracefully drain the server and join its thread (bounded)."""
        self.server.request_drain()
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    def __exit__(self, *exc) -> None:
        self.server.request_stop()
        if self._thread is not None:
            # Bounded reap: a wedged loop must not hang the exiting
            # test/context forever (the thread is daemonic, so it can
            # never outlive the process either way).
            self._thread.join(timeout=30.0)
            self._thread = None

    def _main(self) -> None:
        try:
            run_server(self.server, ready=lambda port: self._ready.set())
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
