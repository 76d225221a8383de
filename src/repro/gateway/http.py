"""Minimal HTTP/1.1 layer for the gateway (stdlib only, asyncio streams).

One parser and one renderer, both deliberately small and **byte
deterministic**: responses carry a fixed header set in a fixed order
and never a ``Date`` header, so the exact bytes a gateway serves for a
given input are pinned by ``tests/golden/http_vectors.json``
(``scripts/regen_http_vectors.py --regen``). The pure builders here
(:func:`quantize_response`, :func:`error_response`, ...) are the same
code path the live :class:`~repro.gateway.QuantGateway` answers with —
the golden test rebuilds bodies through them and the conformance test
checks the served bytes match.

The error contract maps the library's typed exception hierarchy onto
HTTP statuses (most specific first)::

    ConfigError / ProtocolError        -> 400   (bad request)
    SessionLost                        -> 410   (state gone; reopen)
    FormatError / CodecError           -> 422   (unprocessable numbers)
    ServerBusy / ServerDraining        -> 503 + Retry-After (retryable)
    RequestTimeout                     -> 504   (upstream deadline)
    ConnectionLost / ServerError / ... -> 502   (upstream failure)
    anything else                      -> 500

Every error body is canonical JSON (sorted keys, compact separators)
with ``error`` / ``exc_type`` / ``status`` fields, so a client can
recover the typed exception the wire protocol would have raised.

Request bodies for ``POST /v1/quantize`` come in two encodings:

* ``application/json`` — ``{"format", "op", "dispatch", "packed",
  "shape", "data_b64"}`` with the tensor as base64 little-endian
  C-order float64;
* ``application/octet-stream`` — the raw float64 bytes as the body,
  routing fields in the query string (``?format=m2xfp&op=weight&``
  ``shape=2,64&packed=1``).

Unpacked responses are canonical JSON with ``data_b64``; packed
responses ship the self-describing ``PackedTensor`` container bytes
(``application/x-repro-packed-tensor``) — the same bytes the codec's
golden vectors pin. Response bodies never echo the dispatch mode:
dispatch changes the compute path, not the bits, so responses are
byte-identical across modes (asserted by the golden suite).

Streaming KV sessions ride the same layer: ``POST /v1/session/open``,
``/append``, ``/read`` and ``/close`` take canonical-JSON bodies
(tensors as base64 ``<f8`` with explicit shapes, mirroring the wire
protocol's session frames) and answer with the session ack dict or the
decoded K/V pair. A session whose server-side state is gone answers
410 Gone (:class:`~repro.errors.SessionLost`) — the one status that
tells a client "reopen and replay", never "retry as-is".
"""

from __future__ import annotations

import asyncio
import base64
import binascii
import json
from dataclasses import dataclass, field
from urllib.parse import parse_qsl, unquote, urlsplit

import numpy as np

from ..errors import (CodecError, ConfigError, ConnectionLost, FormatError,
                      ProtocolError, RequestTimeout, RetryBudgetExceeded,
                      ServerBusy, ServerDraining, ServerError, SessionLost)
from ..server.protocol import shape_size

__all__ = [
    "HttpRequest", "HttpResponse", "read_http_request",
    "http_status_for", "error_response", "json_response",
    "text_response", "quantize_response", "parse_quantize_request",
    "parse_session_open", "parse_session_append", "parse_session_read",
    "parse_session_close", "session_ack_response", "session_kv_response",
    "canonical_json", "RETRY_AFTER_S",
    "MAX_HEADER_BYTES", "PACKED_CONTENT_TYPE",
]

#: Upper bound on the request line + headers block.
MAX_HEADER_BYTES = 16384

#: ``Retry-After`` value (seconds) on 503 answers.
RETRY_AFTER_S = 1

PACKED_CONTENT_TYPE = "application/x-repro-packed-tensor"

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout", 410: "Gone",
    413: "Payload Too Large", 422: "Unprocessable Entity",
    500: "Internal Server Error", 502: "Bad Gateway",
    503: "Service Unavailable", 504: "Gateway Timeout",
}

#: Exception -> HTTP status, most specific class first (isinstance walk).
_STATUS_ORDER = (
    (SessionLost, 410),
    (ServerDraining, 503),
    (ServerBusy, 503),
    (RequestTimeout, 504),
    (ConnectionLost, 502),
    (RetryBudgetExceeded, 502),
    (ServerError, 502),
    (ProtocolError, 400),
    (ConfigError, 400),
    (FormatError, 422),
    (CodecError, 422),
    # Raw socket failures reaching an upstream (refused connect, reset)
    # are gateway-side 502s. Last: ConnectionError/TimeoutError subclass
    # OSError, so the typed mappings above must win first.
    (ConnectionError, 502),
    (OSError, 502),
)


def http_status_for(exc: BaseException) -> int:
    """The HTTP status the gateway answers for ``exc``."""
    for cls, status in _STATUS_ORDER:
        if isinstance(exc, cls):
            return status
    return 500


def canonical_json(obj) -> bytes:
    """Canonical JSON bytes: sorted keys, compact, ASCII."""
    return json.dumps(obj, sort_keys=True,
                      separators=(",", ":")).encode("ascii")


@dataclass
class HttpRequest:
    """One parsed request: line, query, headers (lower-cased keys), body."""

    method: str
    path: str
    query: dict[str, str] = field(default_factory=dict)
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    http_version: str = "HTTP/1.1"

    @property
    def keep_alive(self) -> bool:
        conn = self.headers.get("connection", "").lower()
        if self.http_version == "HTTP/1.0":
            return conn == "keep-alive"
        return conn != "close"


@dataclass
class HttpResponse:
    """One response; :meth:`to_bytes` renders deterministic bytes."""

    status: int
    body: bytes = b""
    content_type: str = "application/json"
    #: Extra headers in emission order (after the fixed set).
    extra_headers: tuple = ()
    keep_alive: bool = True

    def to_bytes(self) -> bytes:
        reason = _REASONS.get(self.status, "Unknown")
        lines = [f"HTTP/1.1 {self.status} {reason}",
                 f"content-type: {self.content_type}",
                 f"content-length: {len(self.body)}"]
        lines.extend(f"{k}: {v}" for k, v in self.extra_headers)
        lines.append("connection: " +
                     ("keep-alive" if self.keep_alive else "close"))
        head = "\r\n".join(lines).encode("ascii") + b"\r\n\r\n"
        return head + self.body


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------
async def read_http_request(reader: asyncio.StreamReader,
                            max_body_bytes: int,
                            read_timeout_s: float | None = None) \
        -> HttpRequest | None:
    """Read one request; ``None`` on clean EOF before any byte.

    Mirrors the wire protocol's slow-loris stance: waiting for a
    request to *start* is unbounded (idle keep-alive connections are
    legal), but once the first byte arrives the head + body must
    complete within ``read_timeout_s`` (:class:`ProtocolError` on
    expiry). Oversized heads/bodies raise :class:`ConfigError` carrying
    the HTTP status to answer with.
    """
    try:
        first = await reader.readexactly(1)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("connection closed mid-request") from exc

    async def _rest() -> HttpRequest:
        try:
            head = first + await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError:
            raise _HttpError(413, "request head exceeds the "
                                  f"{MAX_HEADER_BYTES}-byte limit") from None
        except asyncio.IncompleteReadError as exc:
            raise ProtocolError("connection closed mid-request") from exc
        if len(head) > MAX_HEADER_BYTES:
            raise _HttpError(413, "request head exceeds the "
                                  f"{MAX_HEADER_BYTES}-byte limit")
        request = _parse_head(head)
        length = request.headers.get("content-length")
        if request.headers.get("transfer-encoding"):
            raise _HttpError(400, "chunked request bodies are not "
                                  "supported; send Content-Length")
        if length is not None:
            try:
                n = int(length)
            except ValueError:
                raise _HttpError(400, f"bad Content-Length {length!r}") \
                    from None
            if n < 0:
                raise _HttpError(400, f"bad Content-Length {length!r}")
            if n > max_body_bytes:
                raise _HttpError(413, f"request body of {n} bytes exceeds "
                                      f"the {max_body_bytes}-byte limit")
            try:
                request.body = await reader.readexactly(n)
            except asyncio.IncompleteReadError as exc:
                raise ProtocolError("connection closed mid-body") from exc
        return request

    try:
        # A deadline on this task, not a wrapping task per request.
        async with asyncio.timeout(read_timeout_s):
            return await _rest()
    except asyncio.TimeoutError:
        raise ProtocolError(
            f"request not completed within {read_timeout_s:g}s of its "
            f"first byte (slow-loris guard)") from None


class _HttpError(Exception):
    """A parse/validation failure with its HTTP answer attached."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _parse_head(head: bytes) -> HttpRequest:
    try:
        text = head.decode("latin-1")
    except UnicodeDecodeError as exc:  # pragma: no cover - latin-1 total
        raise _HttpError(400, f"undecodable request head: {exc}") from exc
    lines = text.split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise _HttpError(400, f"malformed request line {lines[0]!r}")
    method, target, version = parts
    if version not in ("HTTP/1.1", "HTTP/1.0"):
        raise _HttpError(400, f"unsupported HTTP version {version!r}")
    split = urlsplit(target)
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        if ":" not in line:
            raise _HttpError(400, f"malformed header line {line!r}")
        key, value = line.split(":", 1)
        headers[key.strip().lower()] = value.strip()
    query = {k: v for k, v in parse_qsl(split.query, keep_blank_values=True)}
    return HttpRequest(method=method, path=unquote(split.path) or "/",
                       query=query, headers=headers, http_version=version)


# ----------------------------------------------------------------------
# Response builders (pure — golden-pinned)
# ----------------------------------------------------------------------
def json_response(obj, status: int = 200, *, keep_alive: bool = True,
                  extra_headers: tuple = ()) -> HttpResponse:
    return HttpResponse(status=status, body=canonical_json(obj),
                        extra_headers=extra_headers, keep_alive=keep_alive)


def text_response(text: str, status: int = 200, *,
                  keep_alive: bool = True) -> HttpResponse:
    return HttpResponse(status=status, body=text.encode("utf-8"),
                        content_type="text/plain; version=0.0.4",
                        keep_alive=keep_alive)


def error_response(exc: BaseException, *, status: int | None = None,
                   keep_alive: bool = True) -> HttpResponse:
    """The gateway's typed error answer for ``exc`` (golden-pinned).

    503 answers carry ``Retry-After`` — the HTTP spelling of the wire
    protocol's "BUSY/DRAINING is retryable backpressure" contract.
    """
    if status is None:
        status = exc.status if isinstance(exc, _HttpError) \
            else http_status_for(exc)
    exc_type = "ConfigError" if isinstance(exc, _HttpError) \
        else type(exc).__name__
    body = {"error": str(exc), "exc_type": exc_type, "status": status}
    extra = (("retry-after", str(RETRY_AFTER_S)),) if status == 503 else ()
    return json_response(body, status=status, extra_headers=extra,
                         keep_alive=keep_alive)


def quantize_response(result, *, fmt: str, op: str, packed: bool,
                      fingerprint: str = "",
                      keep_alive: bool = True) -> HttpResponse:
    """The 200 answer for a quantize request.

    ``result`` is the dequantized ``np.ndarray`` (unpacked) or the
    :class:`~repro.codec.PackedTensor` / its bytes (packed). Dispatch
    mode is deliberately absent: the bits do not depend on it.
    """
    if packed:
        blob = result if isinstance(result, (bytes, bytearray)) \
            else result.to_bytes()
        return HttpResponse(
            status=200, body=bytes(blob), content_type=PACKED_CONTENT_TYPE,
            extra_headers=(("x-repro-format", fmt),
                           ("x-repro-op", op)),
            keep_alive=keep_alive)
    arr = np.ascontiguousarray(result, dtype="<f8")
    rest = {
        "fingerprint": fingerprint,
        "format": fmt,
        "op": op,
        "packed": False,
        "shape": list(arr.shape),
    }
    # Splice the payload into the canonical bytes instead of running
    # json.dumps over it: "data_b64" sorts first, and the base64
    # alphabet needs no escaping, so the bytes equal canonical_json.
    body = (b'{"data_b64":"' + base64.b64encode(arr) + b'",'
            + canonical_json(rest)[1:])
    return HttpResponse(status=200, body=body, keep_alive=keep_alive)


# ----------------------------------------------------------------------
# Quantize-request parsing
# ----------------------------------------------------------------------
_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off", "")


def _parse_bool(raw, name: str) -> bool:
    if isinstance(raw, bool):
        return raw
    if isinstance(raw, str) and raw.lower() in _TRUE:
        return True
    if isinstance(raw, str) and raw.lower() in _FALSE:
        return False
    raise ConfigError(f"{name} must be a boolean, got {raw!r}")


def _parse_shape(raw) -> list:
    """A JSON shape list, or ``"d0,d1,..."`` query text as one; the
    dims themselves are checked where the payload is sized
    (:func:`~repro.server.protocol.shape_size`)."""
    if isinstance(raw, str):
        try:
            return [int(part) for part in raw.split(",") if part != ""]
        except ValueError:
            raise ConfigError(f"shape must be comma-separated ints, "
                              f"got {raw!r}") from None
    if not isinstance(raw, list):
        raise ConfigError(f"shape must be a list of ints, got {raw!r}")
    return raw


def parse_quantize_request(request: HttpRequest):
    """Decode a ``POST /v1/quantize`` body into routing fields + tensor.

    Returns ``(x, fmt, op, dispatch, packed)``; raises
    :class:`ConfigError` (-> 400) on anything malformed. Both body
    encodings land here so the two paths cannot drift.
    """
    ctype = request.headers.get("content-type", "application/json")
    ctype = ctype.split(";", 1)[0].strip().lower()
    if ctype == "application/octet-stream":
        fields: dict = dict(request.query)
        payload = request.body
        if "shape" not in fields:
            raise ConfigError("octet-stream quantize requests need a "
                              "shape=<d0,d1,...> query parameter")
    elif ctype == "application/json":
        try:
            fields = json.loads(request.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"unreadable JSON body: {exc}") from exc
        if not isinstance(fields, dict):
            raise ConfigError("JSON quantize body must be an object")
        raw = fields.get("data_b64")
        if not isinstance(raw, str):
            raise ConfigError("JSON quantize body is missing data_b64")
        try:
            payload = base64.b64decode(raw.encode("ascii"), validate=True)
        except (UnicodeEncodeError, binascii.Error, ValueError) as exc:
            raise ConfigError(f"data_b64 is not valid base64: {exc}") \
                from exc
        if "shape" not in fields:
            raise ConfigError("JSON quantize body is missing shape")
    else:
        raise ConfigError(f"unsupported content-type {ctype!r}; use "
                          f"application/json or application/octet-stream")
    fmt = fields.get("format")
    if not isinstance(fmt, str) or not fmt:
        raise ConfigError("quantize request is missing the format name")
    op = fields.get("op", "activation")
    if op not in ("weight", "activation"):
        raise ConfigError(f"op must be 'weight' or 'activation', got {op!r}")
    from ..serve.service import DISPATCH_MODES
    dispatch = fields.get("dispatch", "inherit")
    if dispatch not in DISPATCH_MODES:
        raise ConfigError(f"dispatch must be one of {DISPATCH_MODES}, "
                          f"got {dispatch!r}")
    packed = _parse_bool(fields.get("packed", False), "packed")
    shape = _parse_shape(fields["shape"])
    n = shape_size(shape, len(payload), "tensor", ConfigError)
    if len(payload) != 8 * n:
        raise ConfigError(f"tensor payload has {len(payload)} bytes; "
                          f"shape {shape} needs {8 * n} "
                          f"(little-endian float64)")
    # A read-only view of the decoded bytes: the upstream frame only
    # reads it.
    x = np.frombuffer(payload, dtype="<f8").reshape(shape)
    return x, fmt, op, dispatch, packed


# ----------------------------------------------------------------------
# Session request parsing + responses (JSON bodies, golden-pinned)
# ----------------------------------------------------------------------
def _json_object(request: HttpRequest, what: str) -> dict:
    ctype = request.headers.get("content-type", "application/json")
    ctype = ctype.split(";", 1)[0].strip().lower()
    if ctype != "application/json":
        raise ConfigError(f"{what} bodies must be application/json, "
                          f"got {ctype!r}")
    try:
        fields = json.loads(request.body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"unreadable JSON body: {exc}") from exc
    if not isinstance(fields, dict):
        raise ConfigError(f"{what} body must be a JSON object")
    return fields


def _session_id_of(fields: dict) -> str:
    sid = fields.get("session_id")
    if not isinstance(sid, str) or not sid:
        raise ConfigError("session request is missing session_id")
    return sid


def _int_field(fields: dict, name: str, minimum: int) -> int:
    raw = fields.get(name)
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ConfigError(f"{name} must be an integer, got {raw!r}")
    if raw < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {raw}")
    return raw


def _tensor_field(fields: dict, b64_key: str, shape_key: str) -> np.ndarray:
    raw = fields.get(b64_key)
    if not isinstance(raw, str):
        raise ConfigError(f"session append body is missing {b64_key}")
    try:
        payload = base64.b64decode(raw.encode("ascii"), validate=True)
    except (UnicodeEncodeError, binascii.Error, ValueError) as exc:
        raise ConfigError(f"{b64_key} is not valid base64: {exc}") from exc
    if shape_key not in fields:
        raise ConfigError(f"session append body is missing {shape_key}")
    shape = _parse_shape(fields[shape_key])
    n = shape_size(shape, len(payload), b64_key, ConfigError)
    if len(shape) != 2:
        raise ConfigError(f"{shape_key} must be 2-D (tokens, width), "
                          f"got {shape}")
    if len(payload) != 8 * n:
        raise ConfigError(f"{b64_key} has {len(payload)} bytes; shape "
                          f"{shape} needs {8 * n} (little-endian float64)")
    return np.frombuffer(payload, dtype="<f8").reshape(shape)


def parse_session_open(request: HttpRequest) -> dict:
    """Decode ``POST /v1/session/open`` into ``session_open`` kwargs.

    Policy / budget validation is deliberately left to the replica (and
    :class:`~repro.kv.KVPolicy`): the gateway checks shape, not
    semantics, so the two layers cannot disagree about what a legal
    policy is.
    """
    fields = _json_object(request, "session open")
    from ..serve.service import DISPATCH_MODES
    dispatch = fields.get("dispatch", "inherit")
    if dispatch not in DISPATCH_MODES:
        raise ConfigError(f"dispatch must be one of {DISPATCH_MODES}, "
                          f"got {dispatch!r}")
    max_tokens = fields.get("max_tokens")
    if max_tokens is not None:
        if isinstance(max_tokens, bool) or not isinstance(max_tokens, int):
            raise ConfigError(f"max_tokens must be an integer or null, "
                              f"got {max_tokens!r}")
    policy = fields.get("policy", "m2xfp")
    if not isinstance(policy, (str, dict)):
        raise ConfigError(f"policy must be a format name or a policy "
                          f"spec object, got {policy!r}")
    return {
        "session_id": _session_id_of(fields),
        "n_layers": _int_field(fields, "n_layers", 1),
        "policy": policy,
        "max_tokens": max_tokens,
        "sink_tokens": _int_field(fields, "sink_tokens", 0)
        if "sink_tokens" in fields else 0,
        "dispatch": dispatch,
        "verify": _parse_bool(fields.get("verify", True), "verify"),
    }


def parse_session_append(request: HttpRequest):
    """Decode ``POST /v1/session/append`` -> (sid, layer, seq, k, v)."""
    fields = _json_object(request, "session append")
    k = _tensor_field(fields, "k_b64", "k_shape")
    v = _tensor_field(fields, "v_b64", "v_shape")
    return (_session_id_of(fields), _int_field(fields, "layer", 0),
            _int_field(fields, "seq", 0), k, v)


def parse_session_read(request: HttpRequest):
    """Decode ``POST /v1/session/read`` -> (session_id, layer)."""
    fields = _json_object(request, "session read")
    return _session_id_of(fields), _int_field(fields, "layer", 0)


def parse_session_close(request: HttpRequest) -> str:
    """Decode ``POST /v1/session/close`` -> session_id."""
    fields = _json_object(request, "session close")
    return _session_id_of(fields)


def session_ack_response(session: dict, *,
                         keep_alive: bool = True) -> HttpResponse:
    """The 200 answer for open/append/close: the replica's ack dict."""
    return json_response({"session": session}, keep_alive=keep_alive)


def session_kv_response(k: np.ndarray, v: np.ndarray, *, session_id: str,
                        layer: int, keep_alive: bool = True) -> HttpResponse:
    """The 200 answer for ``/v1/session/read``: decoded K and V."""
    k = np.ascontiguousarray(k, dtype="<f8")
    v = np.ascontiguousarray(v, dtype="<f8")
    body = {
        "k_b64": base64.b64encode(k).decode("ascii"),
        "k_shape": list(k.shape),
        "layer": int(layer),
        "session_id": session_id,
        "v_b64": base64.b64encode(v).decode("ascii"),
        "v_shape": list(v.shape),
    }
    return json_response(body, keep_alive=keep_alive)
