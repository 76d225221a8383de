"""Benchmark the packed-tensor codec and the quantization service.

Measures, per catalog format arm:

* **encode** — original tensor -> ``PackedTensor`` (quantization search
  included, since that is what a cold encode costs);
* **decode** — ``PackedTensor`` -> dequantized float64;
* **footprint** — measured payload bits/element vs the format's nominal
  EBW (and the container's total-with-header bytes).

Plus a service-overhead row: direct ``quantize_activation`` calls vs
``QuantService.quantize`` on the same stream of small activation
tensors (the ratio is what the service's stats, memo check, dispatch
pin and latency histogram cost per request), and a ``fused`` section
timing a plain encode against one with ``verify=True``, the serving
default (``speedup_encode_vs_verified``, at most 1: the share of encode
speed the O(bytes) stream cross-check leaves).

Run:  PYTHONPATH=src python scripts/bench_codec.py [--out PATH] [--quick]

Writes ``BENCH_codec.json``. Absolute throughput is machine-dependent;
the footprint columns and the service-vs-direct / encode-vs-verified
ratios are the stable part.
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np

from repro.codec import PackedTensor, decode, encode
from repro.runner.formats import make_format
from repro.serve import QuantService

DEFAULT_OUT = "BENCH_codec.json"

#: (catalog name, operand path) arms to measure.
ARMS = (
    ("mxfp4", "activation"),
    ("nvfp4", "activation"),
    ("smx4", "activation"),
    ("elem-em", "activation"),
    ("sg-em", "weight"),
    ("m2xfp", "weight"),
    ("m2xfp", "activation"),
    ("m2-nvfp4", "weight"),
)

#: (catalog name, operand path) arms for the encode-vs-verified section.
FUSED_ARMS = (
    ("mxfp4", "activation"),
    ("mxfp6-e2m3", "activation"),
    ("elem-em", "activation"),
    ("sg-em", "weight"),
    ("m2xfp", "weight"),
    ("m2xfp", "activation"),
)


def _best_time(fn, reps: int) -> float:
    fn()  # warm caches and allocators
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _alternating_best(calls, inputs, rounds: int) -> list[float]:
    """Per call, the sum over ``inputs`` of its minimum seconds over
    ``rounds`` rounds. Both calls run back to back on each input, in
    alternating order: a preemption costs one sample, not a whole side."""
    best = [[float("inf")] * len(inputs) for _ in calls]
    for r in range(rounds):
        order = (0, 1) if r % 2 == 0 else (1, 0)
        for i, t in enumerate(inputs):
            for side in order:
                t0 = time.perf_counter()
                calls[side](t)
                best[side][i] = min(best[side][i],
                                    time.perf_counter() - t0)
    return [sum(b) for b in best]


def run_benchmarks(quick: bool = False) -> dict:
    """Run every codec/service benchmark; returns the payload dict."""
    rng = np.random.default_rng(0)
    rows = 128 if quick else 512
    cols = 1024
    x = rng.standard_normal((rows, cols)) * np.exp(
        0.4 * rng.standard_normal((rows, cols)))
    n = x.size
    reps = 2 if quick else 3

    results: dict[str, dict] = {}
    for name, op in ARMS:
        fmt = make_format(name)
        pt = encode(fmt, x, op=op)
        blob = pt.to_bytes()
        enc_s = _best_time(lambda: encode(fmt, x, op=op), reps)
        dec_s = _best_time(lambda: decode(PackedTensor.from_bytes(blob)), reps)
        nominal = fmt.weight_ebw if op == "weight" else fmt.activation_ebw
        results[f"{name}:{op}"] = {
            "elements": n,
            "encode_s": round(enc_s, 6),
            "decode_s": round(dec_s, 6),
            "encode_elems_per_s": round(n / enc_s, 1),
            "decode_elems_per_s": round(n / dec_s, 1),
            "payload_bits_per_elem": round(pt.bits_per_element, 4),
            "nominal_ebw": round(nominal, 4),
            "total_bytes": pt.total_bytes,
            "header_bytes": pt.header_bytes,
        }

    # --- plain encode vs verify=True ----------------------------------
    # Every encode packs from plan codes; ``verify=True`` adds the
    # O(bytes) unpack-and-compare of each stream. The gated ratio is
    # plain / verified seconds, so a verify that grows costlier (or an
    # encode that slows relative to it) drops it.
    fused: dict[str, dict] = {}
    for name, op in FUSED_ARMS:
        fmt = make_format(name)
        encode(fmt, x, op=op)       # compile the plan
        plain_s, verified_s = _alternating_best(
            (lambda t: encode(fmt, t, op=op),
             lambda t: encode(fmt, t, op=op, verify=True)),
            [x], 2 * reps)
        fused[f"{name}:{op}"] = {
            "elements": n,
            "encode_s": round(plain_s, 6),
            "verified_s": round(verified_s, 6),
            "encode_elems_per_s": round(n / plain_s, 1),
            "speedup_encode_vs_verified": round(plain_s / verified_s, 3),
        }

    # --- bitstream: fast paths vs the generic bit expansion ------------
    from repro.codec.bitstream import (_pack_bits_generic,
                                       _unpack_bits_generic, pack_bits,
                                       unpack_bits)
    # Always full-size: the generic packer's cost is superlinear once
    # its bit-expansion spills cache, so the fast-vs-generic ratio is
    # only comparable against the committed baseline at the same field
    # count (and the whole section costs well under a second). Extra
    # reps even in --quick mode: the byte/uint16 fast paths finish in
    # fractions of a millisecond, where best-of-2 jitter alone can
    # halve a several-hundred-x ratio.
    n_fields = 800_000
    bit_reps = 5
    for width in (3, 4, 5, 6, 8, 16):
        vals = rng.integers(0, 1 << width, n_fields)
        blob = pack_bits(vals, width)
        raw_bytes = blob.tobytes()
        raw = np.frombuffer(raw_bytes, dtype=np.uint8)
        # Generic first: its multi-MB bit-expansion temporaries warm
        # the allocator, so the fast paths measure compute rather than
        # first-touch page faults (which otherwise swing the ratio ~2x
        # between cold --quick runs and a fully-warmed full run).
        pack_gen = _best_time(lambda: _pack_bits_generic(vals, width),
                              bit_reps)
        pack_fast = _best_time(lambda: pack_bits(vals, width), bit_reps)
        unpack_gen = _best_time(
            lambda: _unpack_bits_generic(raw, width, n_fields), bit_reps)
        unpack_fast = _best_time(
            lambda: unpack_bits(raw_bytes, width, n_fields), bit_reps)
        results[f"bitstream_w{width}"] = {
            "fields": n_fields,
            "pack_fast_s": round(pack_fast, 6),
            "pack_generic_s": round(pack_gen, 6),
            "unpack_fast_s": round(unpack_fast, 6),
            "unpack_generic_s": round(unpack_gen, 6),
            "pack_fields_per_s": round(n_fields / pack_fast, 1),
            "unpack_fields_per_s": round(n_fields / unpack_fast, 1),
            "speedup_pack": round(pack_gen / pack_fast, 3),
            "speedup_unpack": round(unpack_gen / unpack_fast, 3),
        }

    # --- service overhead: QuantService.quantize vs direct -------------
    n_req = 64 if quick else 256
    tensors = [rng.standard_normal((4, 256)) for _ in range(n_req)]
    fmt = make_format("m2xfp")
    with QuantService(fmt) as svc:
        direct_s, service_s = _alternating_best(
            (lambda t: fmt.quantize_activation(t, axis=-1), svc.quantize),
            tensors, 16)
    total = sum(t.size for t in tensors)
    results["service_overhead_m2xfp_activation"] = {
        "requests": n_req,
        "elements": total,
        "direct_s": round(direct_s, 6),
        "service_s": round(service_s, 6),
        # < 1: the share of direct speed a request keeps through the
        # service; gated like every other ``speedup*``.
        "speedup_service_vs_direct": round(direct_s / service_s, 3),
        "service_elems_per_s": round(total / service_s, 1),
    }
    return {"schema": 1, "quick": bool(quick), "arms": results,
            "fused": fused}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=DEFAULT_OUT)
    parser.add_argument("--quick", action="store_true",
                        help="smaller tensors / fewer reps")
    ns = parser.parse_args()
    payload = run_benchmarks(quick=ns.quick)
    with open(ns.out, "w") as f:
        json.dump(payload, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {ns.out}")
    for name, row in payload["arms"].items():
        if "encode_s" in row:
            print(f"  {name:24s} enc {row['encode_elems_per_s']:>12,.0f} e/s  "
                  f"dec {row['decode_elems_per_s']:>12,.0f} e/s  "
                  f"{row['payload_bits_per_elem']:.3f} b/e "
                  f"(nominal {row['nominal_ebw']:.3f})")
        elif "service_s" in row:
            print(f"  {name:24s} direct {row['direct_s']*1e3:8.1f} ms  "
                  f"service {row['service_s']*1e3:8.1f} ms  "
                  f"({row['speedup_service_vs_direct']:.2f}x)")
        else:
            print(f"  {name:24s} pack {row['pack_fields_per_s']:>13,.0f} f/s "
                  f"({row['speedup_pack']:.1f}x)  "
                  f"unpack {row['unpack_fields_per_s']:>13,.0f} f/s "
                  f"({row['speedup_unpack']:.1f}x)")
    for name, row in payload["fused"].items():
        print(f"  fused {name:18s} "
              f"{row['encode_elems_per_s']:>12,.0f} e/s  "
              f"(plain / verified {row['speedup_encode_vs_verified']:.2f}x)")


if __name__ == "__main__":
    main()
