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

Example::

    from repro.server import protocol

    blob = protocol.encode_request(1, x, fmt="m2xfp", op="weight")
    frame = protocol.frame_from_bytes(blob)      # round-trips exactly
    req = protocol.decode_request(frame)
    req.x  # the tensor, bit-identical to the caller's float64 array
"""

from __future__ import annotations

import enum
import json
import struct
from dataclasses import dataclass, field

import numpy as np

from ..errors import CodecError, ConfigError, ConnectionLost, FormatError, \
    ProtocolError, ServerBusy, ServerDraining, ServerError, SessionLost

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
    "frame_to_bytes", "frame_from_bytes", "read_frame", "recv_frame",
    "status_for_exception", "shape_size",
]

MAGIC = b"RQP1"
PROTOCOL_VERSION = 3

#: Upper bound on one frame body; anything larger is a protocol error
#: (protects both sides from a corrupted or hostile length word).
MAX_FRAME_BYTES = 1 << 28

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
    payload: bytes = b""


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
def _meta_bytes(meta: dict) -> bytes:
    return json.dumps(meta, sort_keys=True,
                      separators=(",", ":")).encode("ascii")


def frame_to_bytes(frame: Frame) -> bytes:
    """Serialize a frame, length prefix included."""
    meta = _meta_bytes(frame.meta)
    head = _HEADER.pack(MAGIC, PROTOCOL_VERSION, frame.kind, frame.status,
                        frame.flags, frame.request_id, len(meta))
    body_len = len(head) + len(meta) + len(frame.payload)
    if body_len > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame body of {body_len} bytes exceeds the "
                            f"{MAX_FRAME_BYTES}-byte protocol limit")
    return b"".join((_LEN.pack(body_len), head, meta, frame.payload))


def _parse_body(body: bytes) -> Frame:
    if len(body) < _HEADER.size:
        raise ProtocolError(f"frame body truncated at {len(body)} bytes "
                            f"(header needs {_HEADER.size})")
    magic, version, kind, status, flags, request_id, meta_len = \
        _HEADER.unpack_from(body, 0)
    if magic != MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r} (expected {MAGIC!r})")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(f"unsupported protocol version {version} "
                            f"(this build speaks {PROTOCOL_VERSION})")
    if kind not in _KINDS:
        raise ProtocolError(f"unknown frame kind {kind}")
    meta_end = _HEADER.size + meta_len
    if meta_end > len(body):
        raise ProtocolError("frame meta section truncated")
    try:
        meta = json.loads(body[_HEADER.size:meta_end].decode("ascii"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"unreadable frame meta: {exc}") from exc
    if not isinstance(meta, dict):
        raise ProtocolError("frame meta must be a JSON object")
    return Frame(kind=kind, status=status, flags=flags,
                 request_id=request_id, meta=meta, payload=body[meta_end:])


def frame_from_bytes(blob: bytes) -> Frame:
    """Parse one complete frame (length prefix included)."""
    blob = bytes(blob)
    if len(blob) < _LEN.size:
        raise ProtocolError("frame shorter than its length prefix")
    (body_len,) = _LEN.unpack_from(blob, 0)
    if body_len > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame length {body_len} exceeds the "
                            f"{MAX_FRAME_BYTES}-byte protocol limit")
    if len(blob) != _LEN.size + body_len:
        raise ProtocolError(f"frame length prefix says {body_len} body "
                            f"bytes, buffer has {len(blob) - _LEN.size}")
    return _parse_body(blob[_LEN.size:])


async def read_frame(reader, frame_timeout_s: float | None = None) \
        -> Frame | None:
    """Read one frame from an ``asyncio.StreamReader``; None on clean EOF.

    ``frame_timeout_s`` is the slow-loris guard: waiting for a frame to
    *start* is unbounded (idle pipelined connections are fine), but once
    its first byte has arrived the remaining prefix + body must complete
    within the deadline or the read fails with :class:`ProtocolError` —
    a peer trickling bytes can never pin the reader forever.
    """
    import asyncio
    try:
        first = await reader.readexactly(1)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ConnectionLost("connection closed mid-frame") from exc

    try:
        # A deadline on this task, not a wrapping task per frame.
        async with asyncio.timeout(frame_timeout_s):
            prefix = first + await reader.readexactly(_LEN.size - 1)
            (body_len,) = _LEN.unpack(prefix)
            if body_len > MAX_FRAME_BYTES:
                raise ProtocolError(f"frame length {body_len} exceeds the "
                                    f"{MAX_FRAME_BYTES}-byte protocol limit")
            body = await reader.readexactly(body_len)
    except asyncio.IncompleteReadError as exc:
        raise ConnectionLost("connection closed mid-frame") from exc
    except asyncio.TimeoutError:
        raise ProtocolError(
            f"frame not completed within {frame_timeout_s:g}s of its "
            f"first byte (slow-loris guard)") from None
    return _parse_body(body)


def recv_frame(sock) -> Frame | None:
    """Read one frame from a blocking socket; None on clean EOF."""
    prefix = _recv_exact(sock, _LEN.size, eof_ok=True)
    if prefix is None:
        return None
    (body_len,) = _LEN.unpack(prefix)
    if body_len > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame length {body_len} exceeds the "
                            f"{MAX_FRAME_BYTES}-byte protocol limit")
    body = _recv_exact(sock, body_len, eof_ok=False)
    return _parse_body(body)


def _recv_exact(sock, n: int, eof_ok: bool) -> bytes | None:
    chunks, got = [], 0
    while got < n:
        chunk = sock.recv(min(n - got, 1 << 20))
        if not chunk:
            if eof_ok and got == 0:
                return None
            raise ConnectionLost("connection closed mid-frame")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


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
    return frame_to_bytes(Frame(kind=KIND_REQUEST, status=0,
                                flags=FLAG_RAW_F64, request_id=request_id,
                                meta=meta, payload=x.tobytes()))


def decode_request(frame: Frame) -> QuantRequest:
    """Validate a request frame and materialize its tensor."""
    if frame.kind != KIND_REQUEST:
        raise ProtocolError(f"expected a request frame, got kind {frame.kind}")
    if not frame.flags & FLAG_RAW_F64:
        raise ProtocolError("request payload must be raw float64 "
                            "(FLAG_RAW_F64)")
    meta = frame.meta
    op = meta.get("op")
    if op not in _OPS:
        raise ProtocolError(f"request op must be one of {_OPS}, got {op!r}")
    from ..serve.service import DISPATCH_MODES
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
    x = np.frombuffer(frame.payload, dtype="<f8").reshape(shape).copy()
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
    return frame_to_bytes(Frame(kind=KIND_RESPONSE, status=int(Status.OK),
                                flags=FLAG_RAW_F64, request_id=request_id,
                                meta=meta, payload=arr.tobytes()))


def encode_response_packed(request_id: int, blob: bytes, *,
                           fingerprint: str = "") -> bytes:
    """Serialize an OK response carrying ``PackedTensor`` bytes."""
    meta = {"fingerprint": fingerprint}
    return frame_to_bytes(Frame(kind=KIND_RESPONSE, status=int(Status.OK),
                                flags=FLAG_PACKED, request_id=request_id,
                                meta=meta, payload=bytes(blob)))


def encode_response_error(request_id: int, status: Status, message: str,
                          exc_type: str = "") -> bytes:
    """Serialize an error response (``status`` must not be OK)."""
    if status == Status.OK:
        raise ProtocolError("error responses cannot carry Status.OK")
    meta = {"error": str(message), "exc_type": exc_type}
    return frame_to_bytes(Frame(kind=KIND_RESPONSE, status=int(status),
                                flags=0, request_id=request_id, meta=meta))


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
        from ..codec import PackedTensor
        return PackedTensor.from_bytes(frame.payload)
    if frame.flags & FLAG_RAW_F64:
        shape = frame.meta.get("shape")
        n = shape_size(shape, len(frame.payload), "response")
        if len(frame.payload) != 8 * n:
            raise ProtocolError(f"response payload has "
                                f"{len(frame.payload)} bytes; shape "
                                f"{shape} needs {8 * n}")
        return np.frombuffer(frame.payload, dtype="<f8").reshape(shape).copy()
    raise ProtocolError(f"response carries no known payload encoding "
                        f"(flags={frame.flags:#x})")


# ----------------------------------------------------------------------
# Control frames (version 2): PING / HEALTH / DRAIN
# ----------------------------------------------------------------------
def encode_ping(request_id: int) -> bytes:
    """Serialize a PING frame; the server answers with a HEALTH frame."""
    return frame_to_bytes(Frame(kind=KIND_PING, status=0, flags=0,
                                request_id=request_id))


def encode_drain(request_id: int) -> bytes:
    """Serialize a DRAIN frame: stop accepting, finish in-flight, exit.

    The server acknowledges with a HEALTH frame (``draining: true``)
    before it begins refusing new requests with ``Status.DRAINING``.
    """
    return frame_to_bytes(Frame(kind=KIND_DRAIN, status=0, flags=0,
                                request_id=request_id))


def encode_health(request_id: int, info: dict) -> bytes:
    """Serialize a HEALTH frame carrying the server's ``info`` report."""
    return frame_to_bytes(Frame(kind=KIND_HEALTH, status=int(Status.OK),
                                flags=0, request_id=request_id,
                                meta=dict(info)))


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
    from ..kv.session import KVPolicy
    spec = KVPolicy.from_spec(policy).spec()
    meta = {"session_id": str(session_id), "n_layers": int(n_layers),
            "policy": spec,
            "max_tokens": None if max_tokens is None else int(max_tokens),
            "sink_tokens": int(sink_tokens), "dispatch": dispatch,
            "verify": bool(verify)}
    return frame_to_bytes(Frame(kind=KIND_SESSION_OPEN, status=0, flags=0,
                                request_id=request_id, meta=meta))


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
    from ..serve.service import DISPATCH_MODES
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
    return frame_to_bytes(Frame(kind=KIND_SESSION_APPEND, status=0,
                                flags=FLAG_RAW_F64, request_id=request_id,
                                meta=meta,
                                payload=k.tobytes() + v.tobytes()))


def _split_kv_payload(frame: Frame) -> tuple[np.ndarray, np.ndarray]:
    """Materialize the K then V tensors of a raw-f64 two-tensor payload."""
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
    k = np.frombuffer(frame.payload, dtype="<f8", count=nk) \
        .reshape(k_shape).copy()
    v = np.frombuffer(frame.payload, dtype="<f8", offset=8 * nk) \
        .reshape(v_shape).copy()
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
    return frame_to_bytes(Frame(kind=KIND_SESSION_READ, status=0, flags=0,
                                request_id=request_id, meta=meta))


def decode_session_read(frame: Frame) -> tuple[str, int]:
    if frame.kind != KIND_SESSION_READ:
        raise ProtocolError(f"expected a session-read frame, got kind "
                            f"{frame.kind}")
    return _session_id_of(frame.meta), _layer_of(frame.meta)


def encode_session_close(request_id: int, *, session_id: str) -> bytes:
    """Serialize a SESSION_CLOSE frame (acknowledged with final stats)."""
    meta = {"session_id": str(session_id)}
    return frame_to_bytes(Frame(kind=KIND_SESSION_CLOSE, status=0, flags=0,
                                request_id=request_id, meta=meta))


def decode_session_close(frame: Frame) -> str:
    if frame.kind != KIND_SESSION_CLOSE:
        raise ProtocolError(f"expected a session-close frame, got kind "
                            f"{frame.kind}")
    return _session_id_of(frame.meta)


def encode_session_ack(request_id: int, session: dict) -> bytes:
    """Serialize the OK answer to open/append/close: a ``session`` meta
    object (session info, append ack fields, or final stats)."""
    return frame_to_bytes(Frame(kind=KIND_RESPONSE, status=int(Status.OK),
                                flags=0, request_id=request_id,
                                meta={"session": dict(session)}))


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
    return frame_to_bytes(Frame(kind=KIND_RESPONSE, status=int(Status.OK),
                                flags=FLAG_RAW_F64, request_id=request_id,
                                meta=meta,
                                payload=k.tobytes() + v.tobytes()))


def decode_session_kv(frame: Frame) -> tuple[np.ndarray, np.ndarray]:
    """The (K, V) tensors of a SESSION_READ answer (or raise typed)."""
    if frame.kind != KIND_RESPONSE:
        raise ProtocolError(f"expected a response frame, got kind "
                            f"{frame.kind}")
    if frame.status != Status.OK:
        response_result(frame)  # raises the typed error
    return _split_kv_payload(frame)
