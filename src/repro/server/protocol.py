"""Versioned length-prefixed binary wire protocol for the quant server.

One frame shape for both directions, so a single parser serves client
and server. Layout (all little-endian)::

    uint32  body length B (bytes after this word)
    bytes 0..3   magic  b"RQP1"
    byte  4      protocol version (currently 3)
    byte  5      kind    (1 = request, 2 = response, 3 = ping,
                          4 = health, 5 = drain, 6 = session open,
                          7 = session append, 8 = session read,
                          9 = session close)
    byte  6      status  (requests: 0; responses: a Status code)
    byte  7      flags   (payload encoding: raw float64 | PackedTensor)
    bytes 8..11  uint32 request id (client-chosen; echoed in the response)
    bytes 12..15 uint32 meta length M
    16..16+M     canonical JSON meta (ascii, sorted keys)
    remainder    payload bytes

Request meta carries the catalog format name, its configuration
fingerprint (``repr`` of the format — the same string ``PackedTensor``
headers pin), the operand path (``weight`` / ``activation``), the kernel
dispatch mode and the ``packed`` response flag; the payload is the raw
little-endian C-order float64 tensor, shape in meta. Response payloads
are either the dequantized tensor in the same raw encoding or a
serialized :class:`~repro.codec.PackedTensor` container; error responses
carry a :class:`Status` code that maps 1:1 onto the library's exception
types (``FormatError``, ``ConfigError``, ``CodecError``, ...), plus the
message in meta.

Version 2 added the **control frames**: ``PING`` (client asks for
liveness/health), ``HEALTH`` (the server's answer — the meta block
carries draining state, in-flight count and counters; also acknowledges
``DRAIN``) and ``DRAIN`` (ask the server to stop accepting, finish
bounded in-flight work and exit), plus the ``DRAINING`` status answered
to requests that arrive during a drain (clients treat it like ``BUSY``
but reconnect first).

Version 3 added the **session frames** for streaming KV-cache
quantization: ``SESSION_OPEN`` (meta carries the session config —
layers, per-layer format policy, token budget, sink region, dispatch
mode), ``SESSION_APPEND`` (one K/V block as raw float64, K then V,
shapes in meta, plus a client-assigned monotonically increasing ``seq``
the server uses to deduplicate retried appends), ``SESSION_READ`` (the
server answers with both dequantized tensors in one raw payload) and
``SESSION_CLOSE``. Open/append/close are acknowledged with ordinary
``RESPONSE`` frames whose meta carries a ``session`` object; reads are
answered with a raw-float64 ``RESPONSE`` carrying ``k_shape`` /
``v_shape``. The ``SESSION_LOST`` status (-> the typed
:class:`~repro.errors.SessionLost`) reports unknown session ids and
un-reconcilable sequence numbers — the never-silent-corruption answer
after a replica crash.

**Versioning rule:** any change to the byte layout above — header
fields, meta keys, payload encodings, status numbering — bumps
``PROTOCOL_VERSION``; a server must reject frames carrying any other
version with ``Status.PROTOCOL_ERROR`` naming both versions. The golden
vectors in ``tests/golden/wire_vectors.json`` pin the current version's
frames byte-exactly, so accidental drift is a tier-1 failure.

**Frame I/O.** One reader per transport: :class:`FrameProtocol` (an
``asyncio.BufferedProtocol``) serves the server and the asyncio client,
:func:`recv_frame` the blocking client. Each puts a received frame's
body in the frame's own buffer, sized from the length prefix once that
and the header are checked (past the first MiB, never more than twice
the bytes received) and padded so the payload starts 8-byte aligned;
``Frame.payload`` is a view of it, and the decoders build writable
float64 arrays over it without a copy. The encoders read array
buffers where they lie, in one join per outgoing frame.

Example::

    from repro.server import protocol

    blob = protocol.encode_request(1, x, fmt="m2xfp", op="weight")
    frame = protocol.frame_from_bytes(blob)      # round-trips exactly
    req = protocol.decode_request(frame)
    req.x  # the tensor, bit-identical to the caller's float64 array
"""

from __future__ import annotations

import asyncio
import collections
import enum
import json
import struct
from dataclasses import dataclass, field

import numpy as np

# codec/, kv/ and serve/ never import server/: no cycle to break.
from ..codec import PackedTensor
from ..errors import CodecError, ConfigError, ConnectionLost, FormatError, \
    ProtocolError, ServerBusy, ServerDraining, ServerError, SessionLost
from ..kv.session import KVPolicy
from ..serve.service import DISPATCH_MODES

__all__ = [
    "MAGIC", "PROTOCOL_VERSION", "MAX_FRAME_BYTES",
    "KIND_REQUEST", "KIND_RESPONSE", "KIND_PING", "KIND_HEALTH",
    "KIND_DRAIN", "KIND_SESSION_OPEN", "KIND_SESSION_APPEND",
    "KIND_SESSION_READ", "KIND_SESSION_CLOSE",
    "FLAG_RAW_F64", "FLAG_PACKED",
    "Status", "Frame", "QuantRequest",
    "encode_request", "decode_request",
    "encode_response_array", "encode_response_packed",
    "encode_response_error", "response_result",
    "encode_ping", "encode_drain", "encode_health", "decode_health",
    "encode_session_open", "decode_session_open",
    "encode_session_append", "decode_session_append",
    "encode_session_read", "decode_session_read",
    "encode_session_close", "decode_session_close",
    "encode_session_ack", "decode_session_ack",
    "encode_session_kv", "decode_session_kv",
    "frame_from_bytes", "FrameProtocol", "recv_frame",
    "STAGING_BYTES",
    "status_for_exception", "shape_size",
]

MAGIC = b"RQP1"
PROTOCOL_VERSION = 3

#: Upper bound on one frame body; anything larger is a protocol error
#: (protects both sides from a corrupted or hostile length word).
MAX_FRAME_BYTES = 1 << 28

#: The fixed buffer a :class:`FrameProtocol` receives into: a frame no
#: larger completes there and is copied out once; the rest of a larger
#: frame's body is received into its own buffer. Also the backpressure
#: limit: a connection stops reading once its queued frames are charged
#: this many bytes (each at least 1/64 of it, so at most 64 tiny frames
#: wait). The size of asyncio's own receive for a stream: with a 64 KiB
#: buffer, a 128 KB wire_bulk frame took two receives, each its own
#: event-loop turn, and the frames behind it waited for the turn after.
STAGING_BYTES = 1 << 18

KIND_REQUEST = 1
KIND_RESPONSE = 2
KIND_PING = 3      # client -> server: are you alive, and how loaded?
KIND_HEALTH = 4    # server -> client: liveness/health report (answers
                   # PING, and acknowledges DRAIN)
KIND_DRAIN = 5     # client -> server: stop accepting, finish, exit

# Version-3 session frames (streaming KV-cache quantization).
KIND_SESSION_OPEN = 6    # client -> server: create/resume a session
KIND_SESSION_APPEND = 7  # client -> server: one K/V block, seq-tagged
KIND_SESSION_READ = 8    # client -> server: dequantize one layer
KIND_SESSION_CLOSE = 9   # client -> server: finish a session

_KINDS = (KIND_REQUEST, KIND_RESPONSE, KIND_PING, KIND_HEALTH, KIND_DRAIN,
          KIND_SESSION_OPEN, KIND_SESSION_APPEND, KIND_SESSION_READ,
          KIND_SESSION_CLOSE)

#: Payload encodings (``flags`` bits).
FLAG_RAW_F64 = 0x1   # raw little-endian C-order float64, shape in meta
FLAG_PACKED = 0x2    # a serialized PackedTensor container


class Status(enum.IntEnum):
    """Response status codes; each error code maps to one exception type."""

    OK = 0
    BUSY = 1
    FORMAT_ERROR = 2
    CONFIG_ERROR = 3
    CODEC_ERROR = 4
    PROTOCOL_ERROR = 5
    INTERNAL_ERROR = 6
    DRAINING = 7
    SESSION_LOST = 8


#: status -> exception class raised client-side (and the reverse map the
#: server uses to classify exceptions into status codes).
STATUS_TO_ERROR = {
    Status.BUSY: ServerBusy,
    Status.FORMAT_ERROR: FormatError,
    Status.CONFIG_ERROR: ConfigError,
    Status.CODEC_ERROR: CodecError,
    Status.PROTOCOL_ERROR: ProtocolError,
    Status.INTERNAL_ERROR: ServerError,
    Status.DRAINING: ServerDraining,
    Status.SESSION_LOST: SessionLost,
}

_OPS = ("weight", "activation")
_HEADER = struct.Struct("<4sBBBBII")
_LEN = struct.Struct("<I")


def status_for_exception(exc: BaseException) -> Status:
    """The wire status a server reports for ``exc`` (most specific wins)."""
    for status in (Status.DRAINING, Status.BUSY, Status.SESSION_LOST,
                   Status.FORMAT_ERROR, Status.CONFIG_ERROR,
                   Status.CODEC_ERROR, Status.PROTOCOL_ERROR):
        if isinstance(exc, STATUS_TO_ERROR[status]):
            return status
    return Status.INTERNAL_ERROR


@dataclass
class Frame:
    """One decoded wire frame (either direction)."""

    kind: int
    status: int
    flags: int
    request_id: int
    meta: dict = field(default_factory=dict)
    #: Received frames: a view of the frame's own buffer.
    payload: bytes | memoryview = b""


@dataclass
class QuantRequest:
    """A validated request: the tensor plus its routing fields."""

    request_id: int
    x: np.ndarray
    format_name: str
    op: str
    dispatch: str
    packed: bool
    fingerprint: str


# ----------------------------------------------------------------------
# Frame (de)serialization
# ----------------------------------------------------------------------
#: ``json.dumps(meta, sort_keys=True, separators=(",", ":"))``, with the
#: encoder built once rather than per frame.
_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _meta_bytes(meta: dict) -> bytes:
    return _canonical(meta).encode("ascii")


def _body_len(buf, offset: int = 0) -> int:
    """The body length a frame's prefix at ``offset`` declares, refused
    past :data:`MAX_FRAME_BYTES` or short of a header before anything
    is sized from it."""
    (body_len,) = _LEN.unpack_from(buf, offset)
    if body_len > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame length {body_len} exceeds the "
                            f"{MAX_FRAME_BYTES}-byte protocol limit")
    if body_len < _HEADER.size:
        raise ProtocolError(f"frame body truncated at {body_len} bytes "
                            f"(header needs {_HEADER.size})")
    return body_len


def _capacity(need: int, got: int) -> int:
    """Bytes to give a frame buffer that will hold ``need`` and holds
    ``got`` received so far: all of it up to 4 × :data:`STAGING_BYTES`
    (so a 512 KB weight frame lands in one buffer), past that at most
    twice what has arrived. A length prefix alone so never commits more
    memory than that; the buffer doubles as the body comes in."""
    return min(need, max(4 * STAGING_BYTES, 2 * got))


def _body_buffer(body_len: int, meta_len: int,
                 got: int) -> tuple[bytearray, int]:
    """A frame body's own buffer, for ``got`` body bytes received so
    far, and the offset the body goes at.

    The offset pads the body so that its payload, after the 16-byte
    header and ``meta_len`` bytes of meta, starts 8-byte aligned:
    float64 arrays over the payload then need no copy to be aligned.
    """
    pad = -meta_len % 8
    return bytearray(_capacity(pad + body_len, pad + got)), pad


def _grown(buf: bytearray, need: int) -> bytearray:
    """``buf``, full and short of ``need`` bytes, copied into a buffer
    sized by :func:`_capacity` (a new one: the transport may still hold
    a view of ``buf``, which bars resizing it in place)."""
    new = bytearray(_capacity(need, len(buf)))
    memoryview(new)[:len(buf)] = buf
    return new


def _own_frame(body) -> Frame:
    """Parse a complete frame body, copied once into its own buffer."""
    meta_len = _check_header(body, 0, len(body))[-1]
    buf, pad = _body_buffer(len(body), meta_len, len(body))
    own = memoryview(buf)[pad:]
    own[:] = body   # a memoryview store copies once; a bytearray's twice
    return _parse_body(own)


def _frame_bytes(kind: int, status: int, flags: int, request_id: int,
                 meta: dict, *payload) -> bytes:
    """One serialized frame, length prefix included: the payload parts
    (bytes-like objects or C-contiguous arrays) are read where they lie,
    in the frame's one join."""
    meta = _meta_bytes(meta)
    body_len = _HEADER.size + len(meta) + \
        sum([memoryview(part).nbytes for part in payload])
    if body_len > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame body of {body_len} bytes exceeds the "
                            f"{MAX_FRAME_BYTES}-byte protocol limit")
    head = _HEADER.pack(MAGIC, PROTOCOL_VERSION, kind, status, flags,
                        request_id, len(meta))
    return b"".join((_LEN.pack(body_len), head, meta, *payload))


def _check_header(buf, offset: int, body_len: int) -> tuple:
    """The header fields of a frame body at ``offset`` of ``buf``,
    ``body_len`` bytes long as :func:`_body_len` passed it, checked
    before anything is sized from them: the magic, version and kind
    are this protocol's and the body holds the meta it declares."""
    magic, version, kind, status, flags, request_id, meta_len = \
        _HEADER.unpack_from(buf, offset)
    if magic != MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r} (expected {MAGIC!r})")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(f"unsupported protocol version {version} "
                            f"(this build speaks {PROTOCOL_VERSION})")
    if kind not in _KINDS:
        raise ProtocolError(f"unknown frame kind {kind}")
    if _HEADER.size + meta_len > body_len:
        raise ProtocolError("frame meta section truncated")
    return kind, status, flags, request_id, meta_len


def _parse_body(body: memoryview) -> Frame:
    kind, status, flags, request_id, meta_len = \
        _check_header(body, 0, len(body))
    meta_end = _HEADER.size + meta_len
    try:
        meta = json.loads(str(body[_HEADER.size:meta_end], "ascii"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"unreadable frame meta: {exc}") from exc
    if not isinstance(meta, dict):
        raise ProtocolError("frame meta must be a JSON object")
    return Frame(kind=kind, status=status, flags=flags,
                 request_id=request_id, meta=meta, payload=body[meta_end:])


def frame_from_bytes(blob) -> Frame:
    """Parse one complete frame (length prefix included), copied once
    into the frame's own buffer."""
    blob = memoryview(blob)
    if len(blob) < _LEN.size:
        raise ProtocolError("frame shorter than its length prefix")
    body_len = _body_len(blob)
    if len(blob) != _LEN.size + body_len:
        raise ProtocolError(f"frame length prefix says {body_len} body "
                            f"bytes, buffer has {len(blob) - _LEN.size}")
    return _own_frame(blob[_LEN.size:])


class FrameProtocol(asyncio.BufferedProtocol):
    """One connection's frames, both directions: the frame reader of
    the server and of :class:`~repro.server.AsyncQuantClient`.

    **Receiving.** The transport receives into a staging buffer of
    :data:`STAGING_BYTES`, allocated with the first bytes to arrive. A
    frame no larger completes there (its start moved to the front of
    the buffer when it would not fit behind the frames before it) and
    is copied once into its own buffer. A larger frame gets its own
    buffer once its length prefix (checked against
    :data:`MAX_FRAME_BYTES`) and its header (checked as
    :func:`frame_from_bytes` checks it) are in, and the rest of its
    body is received straight into that buffer. The buffer is sized by
    :func:`_capacity`: a whole frame of up to 4 × :data:`STAGING_BYTES`,
    past that twice the bytes received, doubling as more arrive; a
    declared length alone never commits more. Each frame's ``payload``
    is a view of that buffer, so decoders build writable, aligned
    arrays over it without copying, and no frame shares bytes with
    another. Frames queue until :meth:`read_frame` takes them; a
    protocol error ends the stream after the frames before it.

    **Backpressure.** Each queued frame is charged its buffer's size,
    and at least ``STAGING_BYTES // 64``. Once the queued frames are
    charged :data:`STAGING_BYTES`, the reader stops parsing and the
    transport stops reading until the consumer has taken them below
    that. A connection so holds at most the staging buffer, its queued
    frames (at most 64, and :data:`STAGING_BYTES` plus the last one)
    and one partial frame, whose buffer is bounded by its received
    bytes as above.

    **Slow-loris guard.** With ``frame_timeout_s``, a frame must
    complete within that many seconds of its first byte arriving, or
    the stream fails with :class:`ProtocolError`; waiting for a frame
    to start is unbounded, and the clock stops while reading is paused.

    **Sending.** :meth:`write` hands bytes to the transport and
    :meth:`drain` waits while the transport's write buffer is full.

    ``on_connect(protocol)``, a coroutine function, runs as the
    connection's task once the transport is up.
    """

    def __init__(self, frame_timeout_s: float | None = None,
                 on_connect=None) -> None:
        self._loop = asyncio.get_running_loop()
        self._timeout_s = frame_timeout_s
        self._on_connect = on_connect
        self._task: asyncio.Task | None = None
        self.transport = None
        self._staging: bytearray | None = None    # with the first bytes
        self._staging_view: memoryview | None = None
        self._staged = 0          # unparsed bytes at staging[0:]
        self._body: bytearray | None = None   # a larger frame's, filling
        self._body_pad = 0
        self._body_got = 0        # bytes of _body filled, pad included
        self._body_need = 0       # its pad plus body length
        self._frames: collections.deque = collections.deque()
        self._queued_bytes = 0
        self._read_paused = False
        self._eof = False
        self._error: BaseException | None = None
        self._waiter: asyncio.Future | None = None
        self._loris: asyncio.TimerHandle | None = None
        self._write_paused = False
        self._drain_waiters: list[asyncio.Future] = []
        self._lost = False
        self._closed = self._loop.create_future()

    # -- asyncio protocol callbacks ------------------------------------
    def connection_made(self, transport) -> None:
        self.transport = transport
        if self._on_connect is not None:
            self._task = self._loop.create_task(self._on_connect(self))

    def get_buffer(self, sizehint: int) -> memoryview:
        if self._body is not None:
            return memoryview(self._body)[self._body_got:]
        if self._staging is None:
            self._staging = bytearray(STAGING_BYTES)
            self._staging_view = memoryview(self._staging)
        return self._staging_view[self._staged:]

    def buffer_updated(self, nbytes: int) -> None:
        if self._error is not None:
            return
        queued = len(self._frames)
        if self._body is None:
            self._split(self._staged + nbytes)
        else:
            self._body_got += nbytes
            if self._body_got == len(self._body) < self._body_need:
                self._body = _grown(self._body, self._body_need)
            elif self._body_got == self._body_need:
                body = memoryview(self._body)[self._body_pad:]
                self._body = None
                try:
                    self._queue(_parse_body(body))
                except ProtocolError as exc:
                    self._fail(exc)
        if self._error is not None:
            return
        if len(self._frames) > queued:
            # A new frame's clock starts with its own first byte.
            self._stop_loris()
            self._wake()
            if self._full():
                self._read_paused = True
                self.transport.pause_reading()
                return
        if self._loris is None and self._timeout_s and self._partial():
            self._loris = self._loop.call_later(self._timeout_s,
                                                self._on_loris)

    def eof_received(self) -> bool:
        self._eof = True
        self._stop_loris()
        self._wake()
        return True     # keep the transport open: answers may be owed

    def connection_lost(self, exc) -> None:
        self._lost = self._eof = True
        if exc is not None and self._error is None:
            self._error = exc
        self._stop_loris()
        self._wake()
        for waiter in self._drain_waiters:
            if not waiter.done():
                waiter.set_result(None)
        self._drain_waiters.clear()
        if not self._closed.done():
            self._closed.set_result(None)

    def pause_writing(self) -> None:
        self._write_paused = True

    def resume_writing(self) -> None:
        self._write_paused = False
        for waiter in self._drain_waiters:
            if not waiter.done():
                waiter.set_result(None)
        self._drain_waiters.clear()

    # -- receiving ----------------------------------------------------
    def _split(self, end: int) -> None:
        """Queue the frames complete in ``staging[:end]`` until the
        queue is full; start its own buffer for a frame larger than the
        staging buffer once its header is in and checked; move the
        bytes left to the front."""
        staging, view, pos = self._staging, self._staging_view, 0
        try:
            while end - pos >= _LEN.size and not self._full():
                start = pos + _LEN.size
                stop = start + _body_len(staging, pos)
                if stop <= end:
                    self._queue(_own_frame(view[start:stop]))
                    pos = stop
                    continue
                if stop - pos > STAGING_BYTES and \
                        end - start >= _HEADER.size:
                    # The rest of this body lands in its own buffer.
                    meta_len = _check_header(staging, start,
                                             stop - start)[-1]
                    buf, pad = _body_buffer(stop - start, meta_len,
                                            end - start)
                    got = pad + end - start
                    memoryview(buf)[pad:got] = view[start:end]
                    self._body, self._body_pad, self._body_got, \
                        self._body_need = buf, pad, got, pad + stop - start
                    pos = end
                break
        except ProtocolError as exc:
            self._fail(exc)
            return
        if pos:
            view[:end - pos] = view[pos:end]    # a memmove
        self._staged = end - pos

    def _queue(self, frame: Frame) -> None:
        # The frame's own buffer, and at least 1/64 of the limit.
        nbytes = max(len(frame.payload.obj), STAGING_BYTES >> 6)
        self._frames.append((frame, nbytes))
        self._queued_bytes += nbytes

    def _partial(self) -> bool:
        return bool(self._staged) or self._body is not None

    def _full(self) -> bool:
        return self._queued_bytes >= STAGING_BYTES

    def _fail(self, exc: BaseException) -> None:
        """End the stream with ``exc`` (after the frames queued before
        it) and stop reading."""
        self._error = exc
        self._stop_loris()
        self._wake()
        if not self._read_paused and self.transport is not None:
            self._read_paused = True
            self.transport.pause_reading()

    def _on_loris(self) -> None:
        self._loris = None
        self._fail(ProtocolError(
            f"frame not completed within {self._timeout_s:g}s of its "
            f"first byte (slow-loris guard)"))

    def _stop_loris(self) -> None:
        if self._loris is not None:
            self._loris.cancel()
            self._loris = None

    def _wake(self) -> None:
        waiter = self._waiter
        if waiter is not None:
            self._waiter = None
            if not waiter.done():
                waiter.set_result(None)

    async def read_frame(self) -> Frame | None:
        """The next frame, None on a clean EOF.

        Raises :class:`ProtocolError` on an unframeable stream or a
        tripped slow-loris guard, :class:`ConnectionLost` on an EOF
        inside a frame, and a lost connection's own error.
        """
        while not self._frames:
            if self._error is not None:
                raise self._error
            if self._eof:
                if self._partial():
                    raise ConnectionLost("connection closed mid-frame")
                return None
            self._waiter = self._loop.create_future()
            try:
                await self._waiter
            finally:
                self._waiter = None
        frame, nbytes = self._frames.popleft()
        self._queued_bytes -= nbytes
        if self._read_paused and self._error is None and not self._full():
            # Parse what the staging buffer still holds, then read on.
            if self._body is None:
                self._split(self._staged)
            if self._error is None and not self._full():
                self._read_paused = False
                self.transport.resume_reading()
                if self._timeout_s and self._partial():
                    self._loris = self._loop.call_later(self._timeout_s,
                                                        self._on_loris)
        return frame

    # -- sending ------------------------------------------------------
    def write(self, data) -> None:
        self.transport.write(data)

    async def drain(self) -> None:
        """Wait while the transport's write buffer is over its high-water
        mark; raise ``ConnectionResetError`` once the connection is lost."""
        if self.transport.is_closing():
            await asyncio.sleep(0)    # let connection_lost() run first
        if not self._lost and self._write_paused:
            waiter = self._loop.create_future()
            self._drain_waiters.append(waiter)
            await waiter
        if self._lost:
            raise ConnectionResetError("connection lost")

    def close(self) -> None:
        if self.transport is not None:
            self.transport.close()

    async def wait_closed(self) -> None:
        await self._closed


def recv_frame(sock) -> Frame | None:
    """Read one frame from a blocking socket; None on clean EOF.

    The length prefix and header land in a small buffer and are
    checked; the rest of the body is received (``recv_into``) straight
    into the frame's own buffer, padded and sized (growing as the body
    arrives) as :class:`FrameProtocol` does it.
    """
    head = bytearray(_LEN.size + _HEADER.size)
    view, got, body_len = memoryview(head), 0, None
    while got < len(head):
        n = sock.recv_into(view[got:])
        if not n:
            if got == 0:
                return None
            raise ConnectionLost("connection closed mid-frame")
        got += n
        if body_len is None and got >= _LEN.size:
            body_len = _body_len(head)
    meta_len = _check_header(head, _LEN.size, body_len)[-1]
    buf, pad = _body_buffer(body_len, meta_len, _HEADER.size)
    got, need = pad + _HEADER.size, pad + body_len
    memoryview(buf)[pad:got] = view[_LEN.size:]
    while got < need:
        if got == len(buf):
            buf = _grown(buf, need)
        n = sock.recv_into(memoryview(buf)[got:])
        if not n:
            raise ConnectionLost("connection closed mid-frame")
        got += n
    return _parse_body(memoryview(buf)[pad:])


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------
def shape_size(shape, max_bytes: int, what: str,
               error: type[Exception] = ProtocolError) -> int:
    """Element count of a float64 tensor ``shape`` read from a payload.

    ``shape`` must be a list of non-negative ints. The product is taken
    in exact Python ints, never ``np.prod``'s silently wrapping int64,
    and stops as soon as ``8 * n`` outgrows ``max_bytes``, so a hostile
    shape such as ``[2**62, 4]`` costs a few small multiplications. An
    empty shape's non-zero dims are held to :data:`MAX_FRAME_BYTES`
    instead, since numpy refuses ``[0, 2**70]`` too. Every refusal
    raises ``error``: ``ProtocolError`` on the wire, ``ConfigError``
    (HTTP 400) at the gateway.
    """
    if not isinstance(shape, list) or \
            not all(type(d) is int and d >= 0 for d in shape):
        raise error(f"bad {what} shape {shape!r}")
    empty = 0 in shape
    limit = MAX_FRAME_BYTES if empty else max_bytes
    n = 1
    for d in shape:
        n *= d or 1
        if 8 * n > limit:
            raise error(f"{what} shape {shape} outgrows the {limit}-byte "
                        f"payload limit")
    return 0 if empty else n


def encode_request(request_id: int, x: np.ndarray, *, fmt: str,
                   op: str = "activation", dispatch: str = "inherit",
                   packed: bool = False, fingerprint: str = "") -> bytes:
    """Serialize one quantization request frame."""
    x = np.ascontiguousarray(x, dtype="<f8")
    meta = {"format": fmt, "op": op, "dispatch": dispatch,
            "packed": bool(packed), "shape": list(x.shape),
            "fingerprint": fingerprint}
    return _frame_bytes(KIND_REQUEST, 0, FLAG_RAW_F64, request_id, meta, x)


def decode_request(frame: Frame) -> QuantRequest:
    """Validate a request frame; its tensor is a view of the payload
    (writable when the frame owns its buffer, as received frames do)."""
    if frame.kind != KIND_REQUEST:
        raise ProtocolError(f"expected a request frame, got kind {frame.kind}")
    if not frame.flags & FLAG_RAW_F64:
        raise ProtocolError("request payload must be raw float64 "
                            "(FLAG_RAW_F64)")
    meta = frame.meta
    op = meta.get("op")
    if op not in _OPS:
        raise ProtocolError(f"request op must be one of {_OPS}, got {op!r}")
    dispatch = meta.get("dispatch", "inherit")
    if dispatch not in DISPATCH_MODES:
        raise ProtocolError(f"request dispatch must be one of "
                            f"{DISPATCH_MODES}, got {dispatch!r}")
    fmt = meta.get("format")
    if not isinstance(fmt, str) or not fmt:
        raise ProtocolError("request meta is missing the format name")
    shape = meta.get("shape")
    n = shape_size(shape, len(frame.payload), "request")
    if len(frame.payload) != 8 * n:
        raise ProtocolError(f"request payload has {len(frame.payload)} "
                            f"bytes; shape {shape} needs {8 * n}")
    x = np.frombuffer(frame.payload, dtype="<f8").reshape(shape)
    return QuantRequest(request_id=frame.request_id, x=x, format_name=fmt,
                        op=op, dispatch=dispatch,
                        packed=bool(meta.get("packed", False)),
                        fingerprint=str(meta.get("fingerprint", "")))


# ----------------------------------------------------------------------
# Responses
# ----------------------------------------------------------------------
def encode_response_array(request_id: int, arr: np.ndarray, *,
                          fingerprint: str = "") -> bytes:
    """Serialize an OK response carrying a dequantized tensor."""
    arr = np.ascontiguousarray(arr, dtype="<f8")
    meta = {"shape": list(arr.shape), "fingerprint": fingerprint}
    return _frame_bytes(KIND_RESPONSE, Status.OK, FLAG_RAW_F64, request_id,
                        meta, arr)


def encode_response_packed(request_id: int, packed: PackedTensor, *,
                           fingerprint: str = "") -> bytes:
    """Serialize an OK response carrying a ``PackedTensor``: its
    serialized parts are joined into the frame, not into a blob first."""
    meta = {"fingerprint": fingerprint}
    return _frame_bytes(KIND_RESPONSE, Status.OK, FLAG_PACKED, request_id,
                        meta, *packed.parts())


def encode_response_error(request_id: int, status: Status, message: str,
                          exc_type: str = "") -> bytes:
    """Serialize an error response (``status`` must not be OK)."""
    if status == Status.OK:
        raise ProtocolError("error responses cannot carry Status.OK")
    meta = {"error": str(message), "exc_type": exc_type}
    return _frame_bytes(KIND_RESPONSE, status, 0, request_id, meta)


def response_result(frame: Frame):
    """The result carried by a response frame.

    OK responses yield the dequantized ``np.ndarray`` or the
    :class:`~repro.codec.PackedTensor`; error responses raise the
    exception type their status maps to, with the server's message.
    """
    if frame.kind != KIND_RESPONSE:
        raise ProtocolError(f"expected a response frame, got kind "
                            f"{frame.kind}")
    if frame.status != Status.OK:
        try:
            status = Status(frame.status)
        except ValueError:
            raise ProtocolError(f"response carries unknown status "
                                f"{frame.status}") from None
        exc_cls = STATUS_TO_ERROR[status]
        message = frame.meta.get("error", f"server error ({status.name})")
        raise exc_cls(message)
    if frame.flags & FLAG_PACKED:
        return PackedTensor.from_bytes(frame.payload)
    if frame.flags & FLAG_RAW_F64:
        shape = frame.meta.get("shape")
        n = shape_size(shape, len(frame.payload), "response")
        if len(frame.payload) != 8 * n:
            raise ProtocolError(f"response payload has "
                                f"{len(frame.payload)} bytes; shape "
                                f"{shape} needs {8 * n}")
        return np.frombuffer(frame.payload, dtype="<f8").reshape(shape)
    raise ProtocolError(f"response carries no known payload encoding "
                        f"(flags={frame.flags:#x})")


# ----------------------------------------------------------------------
# Control frames (version 2): PING / HEALTH / DRAIN
# ----------------------------------------------------------------------
def encode_ping(request_id: int) -> bytes:
    """Serialize a PING frame; the server answers with a HEALTH frame."""
    return _frame_bytes(KIND_PING, 0, 0, request_id, {})


def encode_drain(request_id: int) -> bytes:
    """Serialize a DRAIN frame: stop accepting, finish in-flight, exit.

    The server acknowledges with a HEALTH frame (``draining: true``)
    before it begins refusing new requests with ``Status.DRAINING``.
    """
    return _frame_bytes(KIND_DRAIN, 0, 0, request_id, {})


def encode_health(request_id: int, info: dict) -> bytes:
    """Serialize a HEALTH frame carrying the server's ``info`` report."""
    return _frame_bytes(KIND_HEALTH, Status.OK, 0, request_id, info)


def decode_health(frame: Frame) -> dict:
    """The health report carried by a HEALTH frame (or raise typed).

    Error responses (e.g. a version-1 server rejecting the unknown
    kind) raise exactly like :func:`response_result`.
    """
    if frame.kind == KIND_RESPONSE and frame.status != Status.OK:
        response_result(frame)  # raises the typed error
    if frame.kind != KIND_HEALTH:
        raise ProtocolError(f"expected a health frame, got kind "
                            f"{frame.kind}")
    return dict(frame.meta)


# ----------------------------------------------------------------------
# Session frames (version 3): streaming KV-cache quantization
# ----------------------------------------------------------------------
def _session_id_of(meta: dict) -> str:
    sid = meta.get("session_id")
    if not isinstance(sid, str) or not sid:
        raise ProtocolError("session frame meta is missing session_id")
    return sid


def _layer_of(meta: dict) -> int:
    layer = meta.get("layer")
    if not isinstance(layer, int) or layer < 0:
        raise ProtocolError(f"session frame layer must be an int >= 0, "
                            f"got {layer!r}")
    return layer


def encode_session_open(request_id: int, *, session_id: str, n_layers: int,
                        policy=None, max_tokens: int | None = None,
                        sink_tokens: int = 0, dispatch: str = "inherit",
                        verify: bool = True) -> bytes:
    """Serialize a SESSION_OPEN frame carrying the session config.

    ``policy`` is a catalog format name, a policy-spec dict, or a
    :class:`~repro.kv.KVPolicy` (serialized through its ``spec()``).
    Open is **idempotent**: re-opening an existing id with the same
    config is acknowledged as a resume; a different config is refused
    with ``CONFIG_ERROR``.
    """
    spec = KVPolicy.from_spec(policy).spec()
    meta = {"session_id": str(session_id), "n_layers": int(n_layers),
            "policy": spec,
            "max_tokens": None if max_tokens is None else int(max_tokens),
            "sink_tokens": int(sink_tokens), "dispatch": dispatch,
            "verify": bool(verify)}
    return _frame_bytes(KIND_SESSION_OPEN, 0, 0, request_id, meta)


def decode_session_open(frame: Frame) -> dict:
    """Validated SESSION_OPEN config (kwargs for ``KVCacheSession``)."""
    if frame.kind != KIND_SESSION_OPEN:
        raise ProtocolError(f"expected a session-open frame, got kind "
                            f"{frame.kind}")
    meta = frame.meta
    n_layers = meta.get("n_layers")
    if not isinstance(n_layers, int) or n_layers < 1:
        raise ProtocolError(f"session open n_layers must be an int >= 1, "
                            f"got {n_layers!r}")
    max_tokens = meta.get("max_tokens")
    if max_tokens is not None and not isinstance(max_tokens, int):
        raise ProtocolError(f"session open max_tokens must be an int or "
                            f"null, got {max_tokens!r}")
    dispatch = meta.get("dispatch", "inherit")
    if dispatch not in DISPATCH_MODES:
        raise ProtocolError(f"session dispatch must be one of "
                            f"{DISPATCH_MODES}, got {dispatch!r}")
    return {"session_id": _session_id_of(meta), "n_layers": n_layers,
            "policy": meta.get("policy"), "max_tokens": max_tokens,
            "sink_tokens": int(meta.get("sink_tokens", 0)),
            "dispatch": dispatch,
            "verify": bool(meta.get("verify", True))}


def encode_session_append(request_id: int, *, session_id: str, layer: int,
                          seq: int, k: np.ndarray,
                          v: np.ndarray) -> bytes:
    """Serialize a SESSION_APPEND frame: K then V as raw float64.

    ``seq`` is the client's per-session append counter (0-based,
    monotonically increasing across *all* layers). The server applies
    ``seq == next expected``, replays the stored ack for ``next - 1``
    (a retried duplicate), and answers ``SESSION_LOST`` for anything
    else — a reconnecting client either resumes exactly or learns the
    state is gone; it never silently corrupts the stream.
    """
    k = np.ascontiguousarray(k, dtype="<f8")
    v = np.ascontiguousarray(v, dtype="<f8")
    meta = {"session_id": str(session_id), "layer": int(layer),
            "seq": int(seq), "k_shape": list(k.shape),
            "v_shape": list(v.shape)}
    return _frame_bytes(KIND_SESSION_APPEND, 0, FLAG_RAW_F64, request_id,
                        meta, k, v)


def _split_kv_payload(frame: Frame) -> tuple[np.ndarray, np.ndarray]:
    """The K then V tensors of a raw-f64 two-tensor payload, as views."""
    if not frame.flags & FLAG_RAW_F64:
        raise ProtocolError("session K/V payload must be raw float64 "
                            "(FLAG_RAW_F64)")
    k_shape = frame.meta.get("k_shape")
    v_shape = frame.meta.get("v_shape")
    nk = shape_size(k_shape, len(frame.payload), "session k")
    nv = shape_size(v_shape, len(frame.payload) - 8 * nk, "session v")
    if len(frame.payload) != 8 * (nk + nv):
        raise ProtocolError(f"session K/V payload has "
                            f"{len(frame.payload)} bytes; shapes "
                            f"{k_shape}+{v_shape} need {8 * (nk + nv)}")
    k = np.frombuffer(frame.payload, dtype="<f8", count=nk).reshape(k_shape)
    v = np.frombuffer(frame.payload, dtype="<f8", offset=8 * nk) \
        .reshape(v_shape)
    return k, v


def decode_session_append(frame: Frame) -> dict:
    """Validated SESSION_APPEND fields: id, layer, seq and both tensors."""
    if frame.kind != KIND_SESSION_APPEND:
        raise ProtocolError(f"expected a session-append frame, got kind "
                            f"{frame.kind}")
    seq = frame.meta.get("seq")
    if not isinstance(seq, int) or seq < 0:
        raise ProtocolError(f"session append seq must be an int >= 0, "
                            f"got {seq!r}")
    k, v = _split_kv_payload(frame)
    return {"session_id": _session_id_of(frame.meta),
            "layer": _layer_of(frame.meta), "seq": seq, "k": k, "v": v}


def encode_session_read(request_id: int, *, session_id: str,
                        layer: int) -> bytes:
    """Serialize a SESSION_READ frame (answered with a raw K/V response)."""
    meta = {"session_id": str(session_id), "layer": int(layer)}
    return _frame_bytes(KIND_SESSION_READ, 0, 0, request_id, meta)


def decode_session_read(frame: Frame) -> tuple[str, int]:
    if frame.kind != KIND_SESSION_READ:
        raise ProtocolError(f"expected a session-read frame, got kind "
                            f"{frame.kind}")
    return _session_id_of(frame.meta), _layer_of(frame.meta)


def encode_session_close(request_id: int, *, session_id: str) -> bytes:
    """Serialize a SESSION_CLOSE frame (acknowledged with final stats)."""
    meta = {"session_id": str(session_id)}
    return _frame_bytes(KIND_SESSION_CLOSE, 0, 0, request_id, meta)


def decode_session_close(frame: Frame) -> str:
    if frame.kind != KIND_SESSION_CLOSE:
        raise ProtocolError(f"expected a session-close frame, got kind "
                            f"{frame.kind}")
    return _session_id_of(frame.meta)


def encode_session_ack(request_id: int, session: dict) -> bytes:
    """Serialize the OK answer to open/append/close: a ``session`` meta
    object (session info, append ack fields, or final stats), written
    as it is, not copied."""
    return _frame_bytes(KIND_RESPONSE, Status.OK, 0, request_id,
                        {"session": session})


def decode_session_ack(frame: Frame) -> dict:
    """The ``session`` object of an ack (or raise the typed error)."""
    if frame.kind != KIND_RESPONSE:
        raise ProtocolError(f"expected a response frame, got kind "
                            f"{frame.kind}")
    if frame.status != Status.OK:
        response_result(frame)  # raises the typed error
    session = frame.meta.get("session")
    if not isinstance(session, dict):
        raise ProtocolError("session ack is missing its session object")
    return session


def encode_session_kv(request_id: int, k: np.ndarray, v: np.ndarray, *,
                      session_id: str, layer: int) -> bytes:
    """Serialize the OK answer to SESSION_READ: both dequantized tensors."""
    k = np.ascontiguousarray(k, dtype="<f8")
    v = np.ascontiguousarray(v, dtype="<f8")
    meta = {"session_id": str(session_id), "layer": int(layer),
            "k_shape": list(k.shape), "v_shape": list(v.shape)}
    return _frame_bytes(KIND_RESPONSE, Status.OK, FLAG_RAW_F64, request_id,
                        meta, k, v)


def decode_session_kv(frame: Frame) -> tuple[np.ndarray, np.ndarray]:
    """The (K, V) tensors of a SESSION_READ answer (or raise typed)."""
    if frame.kind != KIND_RESPONSE:
        raise ProtocolError(f"expected a response frame, got kind "
                            f"{frame.kind}")
    if frame.status != Status.OK:
        response_result(frame)  # raises the typed error
    return _split_kv_payload(frame)
