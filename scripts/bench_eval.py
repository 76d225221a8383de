"""Benchmark the compiled-plan layer and the multi-format eval engine.

Two sections, written to ``BENCH_eval.json``:

* **activation_quantize** — repeated ``quantize_activation`` calls per
  format at an eval-batch shape and a serving (single-sequence) shape,
  three ways: compiled plans (the default), the legacy path
  (``fmt.quantize``, the format's own quantizer a plan replaces) and
  the reference kernels. The speedup columns are the stable,
  machine-portable part.
* **eval_grids** — the Tbl. 3 and Tbl. 8 multi-format arms over
  preloaded runtimes (profile calibration excluded — it is identical
  work in every mode), run as one engine session (tbl3 then tbl8, so
  tbl8's floor-rule cells hit the session memo) vs the legacy side:
  plan lookups patched out (:func:`_no_plans`) and a fresh engine per
  table call (:func:`_fresh_engines`), so no cell reuses another's
  wrapper or perplexity.

Run:  PYTHONPATH=src python scripts/bench_eval.py [--out PATH] [--quick]
          [--pre-pr PATH]

``--pre-pr`` embeds a measurement file produced by running this
script's legacy arms against the pre-PR checkout on the same machine,
and adds ``speedup_vs_pre_pr`` columns.
``--quick`` (also used by the opt-in ``REPRO_BENCH_REGRESSION=1``
smoke test) uses one profile and a small corpus.
"""

from __future__ import annotations

import argparse
import json
import time
from contextlib import contextmanager
from unittest import mock

import numpy as np

DEFAULT_OUT = "BENCH_eval.json"

#: (catalog format, shape label) activation arms.
ACT_FORMATS = ("mxfp4", "elem-em", "sg-em", "sg-ee", "m2xfp", "mx-m-ant")
ACT_SHAPES = {"eval_batch": (12, 96, 128), "serving_seq": (1, 96, 128)}


def _best_time(fn, reps: int) -> float:
    fn()  # warm plan caches and allocators
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


@contextmanager
def _no_plans():
    """Every plan lookup finds no plan: format entry points and
    ``QuantizedLM`` (built inside the scope) fall back to the formats'
    own ``quantize`` paths plans replace."""
    # ``lookup_plan`` resolves ``get_plan`` in ``repro.plan.cache``;
    # ``QuantizedLM`` binds ``repro.plan.get_plan`` at construction.
    no_plan = lambda *args: None
    with mock.patch("repro.plan.cache.get_plan", no_plan), \
            mock.patch("repro.plan.get_plan", no_plan):
        yield


@contextmanager
def _fresh_engines():
    """Every table call gets a new, empty ``EvalEngine``: no wrapper,
    task item or perplexity is shared between calls."""
    # The eval entry points bind ``default_engine`` at import.
    from repro.eval.engine import EvalEngine
    with mock.patch("repro.eval.perplexity.default_engine", EvalEngine), \
            mock.patch("repro.eval.harness.default_engine", EvalEngine):
        yield


def _make_format(name):
    if name == "mx-m-ant":
        from repro.algos.mant import MXMAnt
        return MXMAnt()
    from repro.runner.formats import make_format
    return make_format(name)


def bench_activation(quick: bool = False) -> dict:
    """Repeated activation-quantize throughput: plan vs legacy vs reference."""
    from repro.kernels import reference_kernels

    rng = np.random.default_rng(0)
    reps = 3 if quick else 5
    results: dict[str, dict] = {}
    for shape_name, shape in ACT_SHAPES.items():
        x = rng.standard_normal(shape)
        for name in ACT_FORMATS:
            fmt = _make_format(name)
            call = lambda: fmt.quantize_activation(x, axis=-1)
            plan_s = _best_time(call, reps)
            legacy_s = _best_time(lambda: fmt.quantize(x, axis=-1), reps)
            with reference_kernels():
                ref_s = _best_time(call, max(1, reps - 2))
            results[f"{name}@{shape_name}"] = {
                "elements": int(x.size),
                "plan_s": round(plan_s, 6),
                "legacy_s": round(legacy_s, 6),
                "reference_s": round(ref_s, 6),
                "plan_elems_per_s": round(x.size / plan_s, 1),
                "speedup_vs_legacy": round(legacy_s / plan_s, 3),
                "speedup_vs_reference": round(ref_s / plan_s, 3),
            }
    return results


def _grid_session(profiles: tuple[str, ...], fast: bool) -> dict[str, float]:
    """One tbl3-then-tbl8 session; returns per-experiment wall-clock."""
    from repro.experiments import tbl3_wikitext_ppl, tbl8_scale_rules

    t0 = time.perf_counter()
    tbl3_wikitext_ppl.run(profile_keys=profiles, fast=fast)
    t1 = time.perf_counter()
    tbl8_scale_rules.run(profile_keys=profiles, fast=fast)
    t2 = time.perf_counter()
    return {"tbl3_s": t1 - t0, "tbl8_s": t2 - t1, "session_s": t2 - t0}


def bench_eval_grids(quick: bool = False) -> dict:
    """Tbl. 3 / Tbl. 8 multi-format arms: engine session vs legacy path."""
    from repro.eval.engine import default_engine, reset_default_engine
    from repro.models.profiles import load_runtime

    profiles = ("llama2-7b",) if quick else ("llama2-7b", "llama3-8b")
    # Preload runtimes so profile calibration (identical in every mode)
    # stays out of the measurement.
    for key in profiles:
        load_runtime(key, n_seq=8 if quick else None,
                     seq_len=64 if quick else None)

    def _clear_weight_caches() -> None:
        # Both modes start with cold per-model weight caches; only the
        # engine's own sharing (wrappers, memo) may carry state.
        from repro.models.profiles import _RUNTIME_CACHE
        for runtime in _RUNTIME_CACHE.values():
            runtime.model.__dict__.pop("_quant_weight_cache", None)

    _clear_weight_caches()
    with _fresh_engines(), _no_plans():
        legacy = _grid_session(profiles, fast=quick)
    _clear_weight_caches()
    reset_default_engine()
    engine = _grid_session(profiles, fast=quick)
    stats = default_engine().stats()

    out = {"profiles": list(profiles),
           "note": "runtimes preloaded (calibration excluded); engine "
                   "session runs tbl3 then tbl8 so shared arms hit the memo"}
    for k in ("tbl3_s", "tbl8_s", "session_s"):
        label = k[:-2]
        out[label] = {
            "engine_s": round(engine[k], 3),
            "legacy_s": round(legacy[k], 3),
            "speedup": round(legacy[k] / engine[k], 3),
        }
    out["engine_stats"] = {k: stats[k] for k in
                           ("wrapper_builds", "wrapper_hits", "ppl_evals",
                            "ppl_hits", "items_builds", "items_hits")}
    return out


def run_benchmarks(quick: bool = False) -> dict:
    """Run every eval benchmark; returns the BENCH_eval payload."""
    return {
        "schema": 1,
        "quick": bool(quick),
        "note": ("compiled plans + eval engine vs the legacy path "
                 "(no plans, a fresh engine per table call) and the "
                 "reference kernels, one machine; speedups are the stable "
                 "columns"),
        "activation_quantize": bench_activation(quick),
        "eval_grids": bench_eval_grids(quick),
    }


def _merge_pre_pr(payload: dict, pre: dict) -> None:
    """Attach a pre-PR measurement and vs-pre-PR speedups."""
    payload["pre_pr"] = pre
    for key, row in payload["activation_quantize"].items():
        base = pre.get("activation_quantize", {}).get(key)
        if base and "legacy_s" in base:
            row["pre_pr_s"] = base["legacy_s"]
            row["speedup_vs_pre_pr"] = round(base["legacy_s"] / row["plan_s"], 3)
    for label in ("tbl3", "tbl8", "session"):
        base = pre.get("eval_grids", {}).get(label)
        row = payload["eval_grids"].get(label)
        if base and row and "legacy_s" in base:
            row["pre_pr_s"] = base["legacy_s"]
            row["speedup_vs_pre_pr"] = round(
                base["legacy_s"] / row["engine_s"], 3)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default=DEFAULT_OUT)
    ap.add_argument("--quick", action="store_true",
                    help="one profile, small corpus (the smoke mode)")
    ap.add_argument("--pre-pr", default=None,
                    help="JSON from this script run on the pre-PR checkout")
    args = ap.parse_args()
    payload = run_benchmarks(quick=args.quick)
    if args.pre_pr:
        with open(args.pre_pr) as f:
            _merge_pre_pr(payload, json.load(f))
    with open(args.out, "w") as f:
        json.dump(payload, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {args.out}")
    for name, row in payload["activation_quantize"].items():
        extra = f"  vs pre-PR {row['speedup_vs_pre_pr']:5.2f}x" \
            if "speedup_vs_pre_pr" in row else ""
        print(f"  {name:24s} plan {row['plan_s']*1e3:8.2f} ms  "
              f"vs legacy {row['speedup_vs_legacy']:5.2f}x  "
              f"vs reference {row['speedup_vs_reference']:5.2f}x{extra}")
    for label in ("tbl3", "tbl8", "session"):
        row = payload["eval_grids"][label]
        extra = f"  vs pre-PR {row['speedup_vs_pre_pr']:5.2f}x" \
            if "speedup_vs_pre_pr" in row else ""
        print(f"  {label:24s} engine {row['engine_s']:7.2f} s  "
              f"legacy {row['legacy_s']:7.2f} s  ({row['speedup']:.2f}x){extra}")


if __name__ == "__main__":
    main()
