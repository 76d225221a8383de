"""Simulated decode-loop benchmark for streaming KV-cache sessions.

Drives the serving workload the session layer exists for: a prefill
block followed by single-token decode steps, each step appending one
quantized K/V block per layer through :class:`~repro.kv.KVCacheSession`
(plan-compiled kernels, packed bytes retained, sliding-window + sink
eviction). Per catalog format it records:

* **tokens/s** — decode positions per second (every position fans out
  to one append per layer, so this is the end-to-end decode rate);
* **appends/s** — per-layer K/V block appends per second;
* **measured bits/elem** — the session's packed payload footprint.

Sessions run with ``verify=True`` — the serving default: an O(bytes)
unpack-and-compare of every packed stream against the plan executor's
code arrays, so the numbers price the integrity contract, not a fast
path the server never takes. A ``verify_off_tokens_per_s`` column
records what the cross-check costs, ``stage_s_per_append`` breaks
each append into its quantize / pack / verify stage seconds (from
:func:`repro.codec.collect_encode_stats`, surfaced through
``KVCacheSession.encode_stage_stats``), and ``fused_appends`` counts
the appends packed from plan codes (every one).

The **wire** section replays the same decode loop through a live
:class:`~repro.server.ServerThread` over protocol-v3 SESSION frames
(OPEN/APPEND/READ/CLOSE), recording wire tokens/s and the final READ's
bit-exactness against a local session fed identical blocks.

Run:  PYTHONPATH=src python scripts/bench_kv.py [--out PATH] [--quick]

Writes ``BENCH_kv.json``. Absolute rates are machine-dependent; the
regression gate (``scripts/check_bench_regression.py --suite kv``)
validates structure — a fresh run must complete the decode loop with
positive rates and packed-from-codes appends, and a bit-exact wire
replay — rather than raw speed.
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np

from repro.kv import KVCacheSession, KVPolicy
from repro.server import QuantClient, ServerThread

DEFAULT_OUT = "BENCH_kv.json"

#: Catalog formats the decode loop is measured under (group-scoped and
#: tensor-scoped both represented).
FORMATS = ("m2xfp", "mxfp4", "elem-em", "sg-em", "nvfp4", "m2-nvfp4")

#: The format the over-the-wire section replays.
WIRE_FORMAT = "m2xfp"


def _blocks(rng, *, n_layers, dh, prefill, steps, channel):
    """Prefill + decode K/V blocks, shared across all measured arms."""
    out = []
    for layer in range(n_layers):
        out.append((layer, rng.standard_normal((prefill, dh)) * channel,
                    rng.standard_normal((prefill, dh)) * channel))
    for _ in range(steps):
        for layer in range(n_layers):
            out.append((layer, rng.standard_normal((1, dh)) * channel,
                        rng.standard_normal((1, dh)) * channel))
    return out


def _decode_loop(fmt: str, blocks, *, n_layers, max_tokens, sink_tokens,
                 steps, verify: bool) -> dict:
    """Run one session over the shared blocks; returns the rate row."""
    sess = KVCacheSession(n_layers, KVPolicy(fmt), max_tokens=max_tokens,
                          sink_tokens=sink_tokens, verify=verify)
    n_prefill = n_layers  # one prefill block per layer leads the list
    for layer, k, v in blocks[:n_prefill]:
        sess.append(layer, k, v)
    t0 = time.perf_counter()
    for layer, k, v in blocks[n_prefill:]:
        sess.append(layer, k, v)
    elapsed = time.perf_counter() - t0
    stats = sess.stats()
    stages = sess.encode_stage_stats()
    sess.close()
    appends = n_layers * (1 + steps)  # prefill blocks + decode steps
    return {
        "tokens_per_s": round(steps / elapsed, 1),
        "appends_per_s": round(steps * n_layers / elapsed, 1),
        "decode_wall_s": round(elapsed, 4),
        "measured_bits_per_element": round(
            stats["measured_bits_per_element"], 3),
        "evicted_tokens": stats["evicted_tokens"],
        "verify": verify,
        # Appends whose every encode packed from plan codes (one
        # stacked K/V encode, or one each for fp16).
        "fused_appends": stages["fused_appends"],
        "stage_s_per_append": {
            "quantize": round(stages["quantize_s"] / appends, 7),
            "pack": round(stages["pack_s"] / appends, 7),
            "verify": round(stages["verify_s"] / appends, 7),
        },
    }


def run_wire(blocks, *, n_layers, max_tokens, sink_tokens, steps) -> dict:
    """The same decode loop spoken over protocol-v3 session frames."""
    local = KVCacheSession(n_layers, KVPolicy(WIRE_FORMAT),
                           max_tokens=max_tokens, sink_tokens=sink_tokens)
    with ServerThread(port=0) as st, QuantClient(port=st.port) as cli:
        cli.session_open(session_id="bench-kv", n_layers=n_layers,
                         policy=WIRE_FORMAT, max_tokens=max_tokens,
                         sink_tokens=sink_tokens)
        n_prefill = n_layers
        seq = 0
        for layer, k, v in blocks[:n_prefill]:
            cli.session_append("bench-kv", layer, k, v, seq=seq)
            local.append(layer, k, v)
            seq += 1
        t0 = time.perf_counter()
        for layer, k, v in blocks[n_prefill:]:
            cli.session_append("bench-kv", layer, k, v, seq=seq)
            seq += 1
        elapsed = time.perf_counter() - t0
        for layer, k, v in blocks[n_prefill:]:
            local.append(layer, k, v)
        bit_exact = True
        for layer in range(n_layers):
            kw, vw = cli.session_read("bench-kv", layer)
            kl, vl = local.read(layer)
            bit_exact &= (kw.tobytes() == kl.tobytes()
                          and vw.tobytes() == vl.tobytes())
        cli.session_close("bench-kv")
    local.close()
    row = {
        "format": WIRE_FORMAT,
        "tokens_per_s": round(steps / elapsed, 1),
        "appends_per_s": round(steps * n_layers / elapsed, 1),
        "decode_wall_s": round(elapsed, 4),
        "read_bit_exact": bit_exact,
    }
    print(f"  wire {WIRE_FORMAT}: {row['tokens_per_s']:8.1f} tokens/s  "
          f"({row['appends_per_s']:.1f} appends/s, "
          f"read {'bit-exact' if bit_exact else 'MISMATCH'})")
    if not bit_exact:
        raise RuntimeError("wire session READ diverged from the local "
                           "session fed identical blocks")
    return row


def run_benchmarks(quick: bool = False) -> dict:
    """Per-format decode loops plus the wire replay; returns the payload."""
    rng = np.random.default_rng(0)
    n_layers, dh = 4, 64
    prefill = 16
    steps = 32 if quick else 192
    max_tokens, sink_tokens = 128, 8
    channel = np.exp(0.3 * rng.standard_normal(dh))
    channel[rng.choice(dh, 2, replace=False)] *= 12.0
    blocks = _blocks(np.random.default_rng(1), n_layers=n_layers, dh=dh,
                     prefill=prefill, steps=steps, channel=channel)
    payload: dict = {
        "config": {
            "n_layers": n_layers,
            "d_head": dh,
            "prefill_tokens": prefill,
            "decode_steps": steps,
            "max_tokens": max_tokens,
            "sink_tokens": sink_tokens,
            "quick": quick,
        },
        "decode_loop": {},
        "wire": {},
    }
    kw = dict(n_layers=n_layers, max_tokens=max_tokens,
              sink_tokens=sink_tokens, steps=steps)
    for fmt in FORMATS:
        row = _decode_loop(fmt, blocks, verify=True, **kw)
        row["verify_off_tokens_per_s"] = _decode_loop(
            fmt, blocks, verify=False, **kw)["tokens_per_s"]
        payload["decode_loop"][fmt] = row
        print(f"  {fmt:10s} {row['tokens_per_s']:8.1f} tokens/s verified "
              f"({row['verify_off_tokens_per_s']:8.1f} unverified)  "
              f"{row['measured_bits_per_element']:5.2f} bits/elem")

    payload["wire"] = run_wire(blocks, **kw)
    return payload


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=DEFAULT_OUT)
    parser.add_argument("--quick", action="store_true",
                        help="fewer decode steps")
    ns = parser.parse_args()
    payload = run_benchmarks(quick=ns.quick)
    with open(ns.out, "w") as f:
        json.dump(payload, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {ns.out}")


if __name__ == "__main__":
    main()
