"""Regenerate the golden wire-protocol vectors for the quant server.

Run:  PYTHONPATH=src python scripts/regen_wire_vectors.py --regen

Writes ``tests/golden/wire_vectors.json``: a deterministic input tensor
(as ``float.hex()`` text) plus the exact serialized **request and
response frames** — byte for byte, protocol version included — for the
m2xfp / elem-em / m2-nvfp4 arms, covering the raw-float64 and the
packed-container payload encodings — plus the control frames
(PING / HEALTH / DRAIN) with a fixed health-info dict and the v3
session exchange (SESSION_OPEN / APPEND / READ / CLOSE requests with
their exact ack and K/V response frames, built through a real
``KVCacheSession``). ``tests/test_server.py`` rebuilds
every frame from the committed inputs with the same construction path
the client and server use and compares hex: any silent change to the
frame header, meta canonicalization, status numbering or payload
encoding fails tier-1.

Like the other ``regen_*`` scripts, run this only when the wire format
changes intentionally — which also means bumping
``repro.server.protocol.PROTOCOL_VERSION`` — and say so in the commit
message.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

from repro.codec import encode
from repro.runner.formats import make_format
from repro.server import protocol

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "tests" / "golden" / \
    "wire_vectors.json"

#: The protocol arms whose frames are pinned.
PINNED = ("m2xfp", "elem-em", "m2-nvfp4")


def _fixed_input() -> np.ndarray:
    """A deterministic (2, 64) tensor hitting zeros, ties and outliers."""
    rng = np.random.default_rng(20260728)
    x = rng.standard_normal((2, 64)) * np.exp(rng.standard_normal((2, 64)))
    x[0, 0:5] = [0.0, -0.0, 1e-30, 640.0, -0.4375]
    x[1, 7] = -6.0 * 2.0 ** 5
    return x


def build_payload() -> dict:
    """All pinned frames, keyed ``<format>:<op>:<packed|raw>``.

    Responses are built exactly the way ``QuantServer._respond`` builds
    them: the format's own quantize output (or the codec's container)
    behind ``encode_response_array`` / ``encode_response_packed``
    with the format's fingerprint.
    """
    x = _fixed_input()
    payload = {
        "protocol_version": protocol.PROTOCOL_VERSION,
        "input_hex": [float(v).hex() for v in x.ravel()],
        "shape": list(x.shape),
        "cases": {},
    }
    rid = 0
    for name in PINNED:
        fmt = make_format(name)
        for op, packed in (("activation", False), ("weight", True)):
            rid += 1
            request = protocol.encode_request(
                rid, x, fmt=name, op=op, packed=packed,
                fingerprint=repr(fmt))
            if packed:
                pt = encode(fmt, x, op=op, axis=-1, verify=True)
                response = protocol.encode_response_packed(
                    rid, pt, fingerprint=repr(fmt))
            else:
                fn = (fmt.quantize_weight if op == "weight"
                      else fmt.quantize_activation)
                response = protocol.encode_response_array(
                    rid, fn(x, axis=-1), fingerprint=repr(fmt))
            payload["cases"][f"{name}:{op}:{'packed' if packed else 'raw'}"] \
                = {
                    "format": name,
                    "op": op,
                    "packed": packed,
                    "request_id": rid,
                    "request_hex": request.hex(),
                    "response_hex": response.hex(),
                }
    payload["control"] = _control_frames()
    payload["sessions"] = _session_frames(x)
    return payload


#: A fixed health-info dict so the HEALTH frame bytes are stable. The
#: live server reports the same keys (tests/test_server.py checks that).
HEALTH_INFO = {
    "status": "ok",
    "draining": False,
    "inflight": 0,
    "max_inflight": 64,
    "protocol_version": protocol.PROTOCOL_VERSION,
    # HEALTH meta is additive (DESIGN.md §12): the metrics-registry
    # snapshot rides along without a protocol version bump. A small
    # fixed snapshot keeps the pinned frame deterministic.
    "metrics": {
        "plan_cache": {"compiles": 2, "entries": 2, "evictions": 0,
                       "hits": 3, "misses": 2},
        "serve.m2xfp:inherit:unpacked.latency": {
            "count": 5, "p50": 0.001, "p95": 0.002, "p99": 0.002},
    },
}


def _control_frames() -> dict:
    """Pinned control frames: PING request, HEALTH reply, DRAIN."""
    rid = 1001
    return {
        "ping_hex": protocol.encode_ping(rid).hex(),
        "health_hex": protocol.encode_health(rid, HEALTH_INFO).hex(),
        "drain_hex": protocol.encode_drain(rid).hex(),
        "request_id": rid,
        "health_info": HEALTH_INFO,
    }


#: The pinned session configuration (exercises a policy override, a
#: token budget and a sink block in the acks).
SESSION_CONFIG = {
    "session_id": "golden-kv",
    "n_layers": 2,
    "policy": {"default": "m2xfp", "op": "weight",
               "overrides": {"1": "elem-em"}},
    "max_tokens": 4,
    "sink_tokens": 1,
    "dispatch": "inherit",
    "verify": True,
}


def _session_frames(x: np.ndarray) -> dict:
    """The pinned v3 session exchange, acks built by a real session.

    Request frames come from ``protocol.encode_session_*`` exactly as
    the client sends them; ack/K-V response frames are built the way
    ``QuantServer._session_*`` builds them, with the ack dicts produced
    by an actual :class:`~repro.kv.KVCacheSession` fed slices of the
    fixed input — so the pinned bytes cover the whole construction
    path, not just the frame packer.
    """
    from repro.kv import KVCacheSession

    cfg = SESSION_CONFIG
    sid = cfg["session_id"]
    session = KVCacheSession(cfg["n_layers"], cfg["policy"],
                             max_tokens=cfg["max_tokens"],
                             sink_tokens=cfg["sink_tokens"],
                             dispatch=cfg["dispatch"], session_id=sid,
                             verify=cfg["verify"])
    k, v = x[:, :16], x[:, 16:32]
    rid = 2001
    frames = {
        "config": cfg,
        "open_hex": protocol.encode_session_open(rid, **cfg).hex(),
        "open_ack_hex": protocol.encode_session_ack(
            rid, {**session.info(), "resumed": False,
                  "next_seq": 0}).hex(),
    }
    ack = {**session.append(0, k, v), "seq": 0, "duplicate": False}
    frames["append_hex"] = protocol.encode_session_append(
        rid + 1, session_id=sid, layer=0, seq=0, k=k, v=v).hex()
    frames["append_ack_hex"] = protocol.encode_session_ack(
        rid + 1, ack).hex()
    rk, rv = session.read(0)
    frames["read_hex"] = protocol.encode_session_read(
        rid + 2, session_id=sid, layer=0).hex()
    frames["read_kv_hex"] = protocol.encode_session_kv(
        rid + 2, rk, rv, session_id=sid, layer=0).hex()
    frames["close_hex"] = protocol.encode_session_close(
        rid + 3, session_id=sid).hex()
    frames["close_ack_hex"] = protocol.encode_session_ack(
        rid + 3, {"session_id": sid, **session.close()}).hex()
    frames["request_id"] = rid
    return frames


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--regen", action="store_true",
                        help="actually overwrite the golden file")
    ns = parser.parse_args()
    payload = build_payload()
    if not ns.regen:
        print("dry run (use --regen to write); cases:")
        for key, case in payload["cases"].items():
            print(f"  {key:28s} request {len(case['request_hex']) // 2:5d} B, "
                  f"response {len(case['response_hex']) // 2:5d} B")
        return
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    with open(GOLDEN_PATH, "w") as f:
        json.dump(payload, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
