"""Benchmark the fast kernels against the reference paths.

Times every hot quantization path twice — once through the fast path
(the default: compiled plans for the format arms, the boundary-cache
kernels for scalar encodes) and once through the reference oracle
(``REPRO_REFERENCE_KERNELS=1`` semantics) — and writes the results to
``BENCH_kernels.json`` so future changes have a trajectory to beat.
``scripts/check_bench_regression.py`` compares a fresh run against the
committed file.

Run:  PYTHONPATH=src python scripts/bench_kernels.py [--out PATH] [--quick]

Absolute numbers are machine-dependent; the committed file records the
machine that produced it only through its own throughputs. The *speedup*
columns (fast vs reference on the same machine) are the stable part.
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np

from repro.core import ElemEM, M2NVFP4, SgEE, SgEM, m2xfp
from repro.formats.registry import FP4_E2M1, FP6_E2M3, FP8_E4M3
from repro.kernels import fast_kernels, reference_kernels
from repro.models.profiles import load_runtime
from repro.models.quantized import QuantizedLM
from repro.mx import MXFP4, NVFP4

DEFAULT_OUT = "BENCH_kernels.json"


def _best_time(fn, reps: int) -> float:
    fn()  # warm caches and allocators
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _bench_pair(fn, elements: int, reps_fast: int = 3, reps_ref: int = 1) -> dict:
    with reference_kernels():
        ref_s = _best_time(fn, reps_ref)
    with fast_kernels():
        fast_s = _best_time(fn, reps_fast)
    return {
        "elements": int(elements),
        "ref_s": round(ref_s, 6),
        "fast_s": round(fast_s, 6),
        "speedup": round(ref_s / fast_s, 3),
        "fast_elems_per_s": round(elements / fast_s, 1),
    }


def run_benchmarks(quick: bool = False) -> dict:
    """Run every kernel benchmark; returns the BENCH_kernels payload."""
    rng = np.random.default_rng(0)
    scale = 4 if quick else 1
    results: dict[str, dict] = {}

    # --- scalar encode throughput -------------------------------------
    x1m = rng.standard_normal(1_000_000 // scale)
    for name, spec in (("fp4_encode", FP4_E2M1), ("fp6_encode", FP6_E2M3),
                       ("fp8_e4m3_encode", FP8_E4M3)):
        results[name] = _bench_pair(lambda s=spec: s.encode(x1m), x1m.size,
                                    reps_fast=5, reps_ref=3)

    # --- block formats -------------------------------------------------
    w_act = rng.standard_normal((1024 // scale, 4096))
    results["mxfp4_quantize"] = _bench_pair(
        lambda: MXFP4().quantize(w_act, axis=-1), w_act.size)
    results["nvfp4_quantize"] = _bench_pair(
        lambda: NVFP4().quantize(w_act, axis=-1), w_act.size)
    results["elem_em_top1"] = _bench_pair(
        lambda: ElemEM().quantize_activation(w_act, axis=-1), w_act.size)

    # --- adaptive searches ---------------------------------------------
    # The headline micro-benchmark: Sg-EM adaptive weight quantization of
    # an LLM-layer-sized matrix (the M2XFP offline path).
    w_big = rng.standard_normal((2048 // scale, 2048))
    results["sg_em_adaptive_weight"] = _bench_pair(
        lambda: SgEM(adaptive=True).quantize_weight(w_big, axis=-1),
        w_big.size)
    w_mid = rng.standard_normal((1024 // scale, 1024))
    results["sg_ee_adaptive"] = _bench_pair(
        lambda: SgEE(adaptive=True).quantize_weight(w_mid, axis=-1),
        w_mid.size)
    results["m2nvfp4_weight"] = _bench_pair(
        lambda: M2NVFP4().quantize_weight(w_mid, axis=-1), w_mid.size)

    # --- end-to-end model run ------------------------------------------
    # Full QuantizedLM construction + perplexity with m2xfp (every run
    # starts from an empty weight cache so both paths do the same
    # offline work).
    rt = load_runtime("llama2-7b", n_seq=4, seq_len=48)

    def full_run():
        rt.model.__dict__.pop("_quant_weight_cache", None)
        return QuantizedLM(rt.model, m2xfp).perplexity(rt.tokens)
    n_weights = sum(layer[name].size for layer in rt.model.layers
                    for name in ("wq", "wk", "wv", "wo",
                                 "w_gate", "w_up", "w_down"))
    results["qlm_m2xfp_perplexity"] = _bench_pair(full_run, n_weights,
                                                  reps_fast=3, reps_ref=2)

    # Weight-cache effect on a repeated experiment arm (fast path only).
    rt.model.__dict__.pop("_quant_weight_cache", None)
    t0 = time.perf_counter()
    QuantizedLM(rt.model, m2xfp)
    cold = time.perf_counter() - t0
    t0 = time.perf_counter()
    QuantizedLM(rt.model, m2xfp)
    warm = time.perf_counter() - t0
    results["qlm_weight_cache"] = {
        "cold_s": round(cold, 6), "warm_s": round(warm, 6),
        "speedup": round(cold / warm, 3) if warm > 0 else float("inf"),
    }

    return {
        "schema": 1,
        "quick": bool(quick),
        "note": ("fast vs REPRO_REFERENCE_KERNELS=1 on one machine; "
                 "speedups are the stable columns, absolute throughput is "
                 "machine-dependent"),
        "kernels": results,
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default=DEFAULT_OUT)
    ap.add_argument("--quick", action="store_true",
                    help="smaller tensors (~4x faster, noisier numbers)")
    args = ap.parse_args()
    payload = run_benchmarks(quick=args.quick)
    with open(args.out, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {args.out}")
    for name, row in payload["kernels"].items():
        if "speedup" in row and "ref_s" in row:
            print(f"  {name:>24}: {row['speedup']:6.2f}x "
                  f"({row['ref_s']*1e3:8.1f} ms -> {row['fast_s']*1e3:7.1f} ms)")
        else:
            print(f"  {name:>24}: {row}")


if __name__ == "__main__":
    main()
