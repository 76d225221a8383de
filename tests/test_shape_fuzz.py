"""Seeded shape fuzz at every parse site that sizes a float64 payload.

Each site turns a client- or replica-supplied shape into an element
count before it touches the payload: the gateway's quantize and
session-append bodies, and the wire request, raw response,
session-append and session-READ answer frames. Hostile shapes (huge
dims whose int64 product wraps, ``[0, 2**70]``, negative, fractional,
boolean or nested entries) against payloads of every length must either
parse to exactly the declared shape or raise the site's typed error:
``ConfigError`` (HTTP 400) at the gateway, ``ProtocolError`` on the
wire. No bare ``ValueError`` / ``OverflowError`` / ``MemoryError``.
"""

from __future__ import annotations

import base64
import json

import numpy as np
import pytest

from repro.errors import ConfigError, ProtocolError
from repro.gateway import http as ghttp
from repro.server import protocol
from repro.server.protocol import (FLAG_RAW_F64, KIND_REQUEST, KIND_RESPONSE,
                                   KIND_SESSION_APPEND, Frame, Status)

CASES = 400

#: Dimensions whose ``np.prod(..., int64)`` wraps or overflows, and
#: JSON values that are not dimensions at all; mixed with ordinary small
#: dims so that some shapes parse.
_HOSTILE_INTS = (2 ** 31, 2 ** 32, 2 ** 62, 2 ** 63, 2 ** 64, 2 ** 70, -1,
                 -2 ** 63)
_NOT_DIMS = (True, False, 1.5, "4", None, [2], {})


def _shape(rng, ints_only: bool = False) -> list:
    hostile = _HOSTILE_INTS if ints_only else _HOSTILE_INTS + _NOT_DIMS
    dims = []
    for _ in range(rng.integers(0, 5)):
        if rng.random() < 0.3:
            dims.append(hostile[rng.integers(len(hostile))])
        else:
            dims.append(int(rng.integers(0, 5)))
    return dims


def _payload(rng, shape) -> bytes:
    """Either exactly what a small shape needs, or a random length."""
    try:
        n = int(np.prod(shape)) if rng.random() < 0.5 else -1
    except (TypeError, ValueError, OverflowError):
        n = -1
    if not 0 <= n <= 256:
        n = int(rng.integers(0, 40))
        return bytes(rng.integers(0, 256, size=8 * n + int(rng.random() < 0.2),
                                  dtype=np.uint8))
    return rng.standard_normal(n).tobytes()


def _fuzz(site, error, seed, ints_only=False):
    """Run ``site(shape, payload)`` on seeded cases: it must return an
    array of the declared shape or raise ``error``."""
    rng = np.random.default_rng(seed)
    parsed = 0
    for _ in range(CASES):
        shape = _shape(rng, ints_only)
        payload = _payload(rng, shape)
        try:
            x = site(shape, payload)
        except error:
            continue
        assert list(x.shape) == shape and 8 * x.size == len(payload), \
            f"shape {shape!r} with {len(payload)} bytes parsed as {x.shape}"
        parsed += 1
    assert parsed, "no case parsed; the fuzz only exercised refusals"


def _b64(payload: bytes) -> str:
    return base64.b64encode(payload).decode("ascii")


def _json_request(fields: dict) -> ghttp.HttpRequest:
    return ghttp.HttpRequest("POST", "/", body=json.dumps(fields).encode(),
                             headers={"content-type": "application/json"})


# ----------------------------------------------------------------------
# Gateway (HTTP) sites: ConfigError -> 400
# ----------------------------------------------------------------------
def test_gateway_quantize_shape_fuzz():
    def site(shape, payload):
        req = _json_request({"format": "m2xfp", "shape": shape,
                             "data_b64": _b64(payload)})
        return ghttp.parse_quantize_request(req)[0]
    _fuzz(site, ConfigError, seed=1)


def test_gateway_octet_quantize_shape_fuzz():
    """The octet-stream body carries its shape as query text, so only
    integer dims are fuzzed there."""
    def site(shape, payload):
        req = ghttp.HttpRequest(
            "POST", "/", body=payload,
            query={"format": "m2xfp", "shape": ",".join(map(str, shape))},
            headers={"content-type": "application/octet-stream"})
        return ghttp.parse_quantize_request(req)[0]
    _fuzz(site, ConfigError, seed=2, ints_only=True)


def test_gateway_session_append_shape_fuzz():
    def site(shape, payload):
        req = _json_request({"session_id": "s", "layer": 0, "seq": 0,
                             "k_b64": _b64(payload), "k_shape": shape,
                             "v_b64": _b64(payload), "v_shape": shape})
        return ghttp.parse_session_append(req)[3]
    _fuzz(site, ConfigError, seed=3)


# ----------------------------------------------------------------------
# Wire sites: ProtocolError
# ----------------------------------------------------------------------
def test_wire_request_shape_fuzz():
    def site(shape, payload):
        frame = Frame(kind=KIND_REQUEST, status=0, flags=FLAG_RAW_F64,
                      request_id=1, payload=payload,
                      meta={"format": "m2xfp", "op": "activation",
                            "shape": shape})
        return protocol.decode_request(frame).x
    _fuzz(site, ProtocolError, seed=4)


def test_wire_raw_response_shape_fuzz():
    def site(shape, payload):
        frame = Frame(kind=KIND_RESPONSE, status=int(Status.OK),
                      flags=FLAG_RAW_F64, request_id=1, payload=payload,
                      meta={"shape": shape})
        return protocol.response_result(frame)
    _fuzz(site, ProtocolError, seed=5)


@pytest.mark.parametrize("kind", [KIND_SESSION_APPEND, KIND_RESPONSE])
def test_wire_session_kv_shape_fuzz(kind):
    """SESSION_APPEND requests and SESSION_READ answers share the K/V
    split; the fuzzed shape is K's, then V's, against one payload."""
    decode = protocol.decode_session_append if kind == KIND_SESSION_APPEND \
        else protocol.decode_session_kv

    def site(shape, payload, fuzz_k):
        k_shape, v_shape = (shape, [1]) if fuzz_k else ([1], shape)
        frame = Frame(kind=kind, status=int(Status.OK), flags=FLAG_RAW_F64,
                      request_id=1, payload=payload,
                      meta={"session_id": "s", "layer": 0, "seq": 0,
                            "k_shape": k_shape, "v_shape": v_shape})
        out = decode(frame)
        k, v = (out["k"], out["v"]) if isinstance(out, dict) else out
        return k if fuzz_k else v

    _fuzz(lambda s, p: site(s, p + bytes(8), True), ProtocolError, seed=6)
    _fuzz(lambda s, p: site(s, bytes(8) + p, False), ProtocolError, seed=7)
