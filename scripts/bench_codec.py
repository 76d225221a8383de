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
pin and latency histogram cost per request), and a ``fused`` section timing the fused quantize→pack encode path against the
re-derive path, run by patching out the codec's plan lookup (same
format, same tensor, same container bytes — the ratio is what the
zero-copy code-space encode buys).

Run:  PYTHONPATH=src python scripts/bench_codec.py [--out PATH] [--quick]

Writes ``BENCH_codec.json``. Absolute throughput is machine-dependent;
the footprint columns and the service-vs-direct / fused-vs-unfused
ratios are the stable part.
"""

from __future__ import annotations

import argparse
import json
import time
from unittest import mock

import numpy as np

from repro.codec import PackedTensor, collect_encode_stats, decode, encode
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

#: (catalog name, operand path) arms for the fused-vs-unfused section —
#: formats whose plan executors emit a code-space result.
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


def _unfused():
    """Patch scope in which ``encode`` finds no plan and re-derives every
    code from floats. Only the codec imports ``lookup_plan`` from
    ``repro.plan.cache``; format entry points resolve theirs through
    ``repro.plan`` and keep their plans, verify's quantize included."""
    return mock.patch("repro.plan.cache.lookup_plan", lambda *args: None)


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

    # --- fused quantize→pack vs the re-derive path ---------------------
    # Each arm is timed twice per mode: plain encode (pack throughput —
    # where the codec-bound activation formats gain 2-3x and the
    # search-bound weight formats roughly break even), and encode with
    # ``verify=True`` — the serving default, where the fused path's
    # O(bytes) cross-check replaces a full re-quantization and every
    # arm wins. ``speedup_fused_pack`` (the regression-gated ratio) is
    # the verified one; ``speedup_fused_encode_only`` is the plain one.
    fused: dict[str, dict] = {}
    for name, op in FUSED_ARMS:
        fmt = make_format(name)
        fused_s = _best_time(lambda: encode(fmt, x, op=op), reps)
        fused_v = _best_time(
            lambda: encode(fmt, x, op=op, verify=True), reps)
        with _unfused():
            unfused_s = _best_time(lambda: encode(fmt, x, op=op), reps)
            unfused_v = _best_time(
                lambda: encode(fmt, x, op=op, verify=True), reps)
            with collect_encode_stats() as es:
                encode(fmt, x, op=op)
        if es["fused_encodes"]:
            raise RuntimeError(f"{name}:{op}: unfused arm took the "
                               "fused path")
        fused[f"{name}:{op}"] = {
            "elements": n,
            "fused_encode_s": round(fused_s, 6),
            "unfused_encode_s": round(unfused_s, 6),
            "fused_verified_s": round(fused_v, 6),
            "unfused_verified_s": round(unfused_v, 6),
            "fused_encode_elems_per_s": round(n / fused_s, 1),
            "speedup_fused_pack": round(unfused_v / fused_v, 3),
            "speedup_fused_encode_only": round(unfused_s / fused_s, 3),
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
        calls = (lambda t: fmt.quantize_activation(t, axis=-1), svc.quantize)
        best = [[float("inf")] * n_req for _ in calls]
        for r in range(16):
            # Per-call minimums over rounds, each tensor timed on both
            # sides back to back in alternating order: a preemption
            # costs one sample, not the whole side.
            order = (0, 1) if r % 2 == 0 else (1, 0)
            for i, t in enumerate(tensors):
                for side in order:
                    t0 = time.perf_counter()
                    calls[side](t)
                    best[side][i] = min(best[side][i],
                                        time.perf_counter() - t0)
    direct_s, service_s = sum(best[0]), sum(best[1])
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
              f"{row['fused_encode_elems_per_s']:>12,.0f} e/s  "
              f"(encode {row['speedup_fused_encode_only']:.2f}x, "
              f"verified {row['speedup_fused_pack']:.2f}x vs unfused)")


if __name__ == "__main__":
    main()
