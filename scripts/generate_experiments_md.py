"""Regenerate EXPERIMENTS.md: paper-reported vs measured for every artifact.

Run:  python scripts/generate_experiments_md.py [--full] [--jobs N]

Thin shell over ``repro.runner``: the experiment runs are sharded over
``--jobs`` workers and served from the content-addressed result cache
when nothing relevant changed, so regenerating this file after a
doc-only edit is nearly free.
"""

from __future__ import annotations

import argparse
import json
import os

from repro.experiments import list_experiments
from repro.runner import ExperimentRunner, RunContext

HEADER = """# EXPERIMENTS — paper vs measured

Generated by `scripts/generate_experiments_md.py`{mode_note}. The synthetic
LLM substrate anchors every profile's FP16 row to the paper's FP16 value
and *measures* all quantized numbers (see [DESIGN.md](DESIGN.md) for the
substitution rationale). Absolute magnitudes therefore differ from the paper's testbed;
the claims to check are the *shapes*: who wins, rough factors, crossover
locations.

## Shape checklist (paper claim -> what to verify below)

| artifact | paper claim | status in this repo |
|---|---|---|
| Fig. 3 | max-value preservation nearly closes MXFP4's gap to FP4/NVFP4 | holds (see fig3 table) |
| Fig. 4 | gains plateau beyond g-32 while EBW keeps rising | holds |
| Fig. 6 | Elem-EM lowest MSE at 4.5-4.75 EBW under fixed scale; Sg-EE never competitive | holds |
| Fig. 7 | adaptive scale promotes Sg-EM past Elem-EM; Sg-EE still worst | holds for Sg-EM vs fixed; Sg-EM vs Elem-EM is a near-tie on our substrate |
| Tbl. 2 | M2XFP lowest average accuracy loss; SMX4 unusable | ordering holds; our substrate compresses the loss gaps |
| Tbl. 3 | M2XFP best on 5/6 models; MX-OliVe worse than MXFP4 on several | M2XFP best or tied on most profiles; OliVe weakest baseline |
| Tbl. 4 | MXFP4 collapses on reasoning; M2XFP recovers most of the loss | holds |
| Tbl. 5 | metadata units cost 0.26% area / 0.36% power | matches (calibrated area model) |
| Fig. 13 | 1.91x speedup / 1.75x energy vs MicroScopiQ; OliVe slowest | measured ~1.88x / ~1.85x; orderings hold |
| Tbl. 6 | M2-NVFP4 lowers NVFP4 perplexity across models | holds on most profiles |
| Tbl. 7 | M2XFP beats QuaRot/DuQuant/MR-GPTQ; combination incremental | holds |
| Tbl. 8 | M2XFP improves over MXFP4 under every scale rule; RTN1 worst for MXFP4 | improvement holds under all rules |
| Alg. 1 | bias-clamp vs exact FP6 costs <= 0.02 ppl | small (reported below) |

Known deviations of the substrate are listed at the end.

"""

PERFORMANCE = """
## Performance

Every quantization hot path runs through the fast kernel subsystem in
`src/repro/kernels/` by default:

* **boundary-cache encode** — each `FloatSpec` precomputes its RTNE
  decision boundaries at construction, so encode/quantize is a single
  `searchsorted` (and grids quantized via `quantize_to_grid` hit a
  per-grid boundary cache);
* **two implementations** — each format's compiled plan and the
  reference oracle in `repro/core/` (and `repro/formats/`,
  `repro/mx/`) are the only dispatch choices;
  `REPRO_REFERENCE_KERNELS=1` selects the reference process-wide (no
  plans), `reference_kernels()` for the calling thread only;
* **batched code-space search** — the Sg-EM / adaptive Sg-EE / M2-NVFP4
  (bias x multiplier) searches quantize the whole candidate grid in one
  chunked, cache-resident pass (`repro/kernels/search.py`) instead of 12
  sequential quantization sweeps;
* **fused Elem-EM round trip** — the Elem-EM plan collapses the
  encode+decode transfer function into one code-space pass
  (`repro/plan/ops.py`);
* **weight-quantization cache** — `QuantizedLM` memoizes offline weight
  quantization per `(format fingerprint, projection)` on the model
  instance, so experiment arms sharing a model and format skip the
  adaptive search entirely;
* **compiled quantization plans** — every `quantize_weight` /
  `quantize_activation` entry point resolves to a `QuantPlan`
  (`src/repro/plan/`) compiled once per (format, op, shape): fused
  executors with precompiled geometry, bisected grid thresholds and
  candidate scale sets, no per-call env reads (`BENCH_eval.json`
  records the measured effect against the formats' own `quantize`);
* **single-pass eval engine** — the table grids share runtimes,
  `QuantizedLM` arms, task items and per-arm perplexities across
  formats and experiments (`src/repro/eval/engine.py`, the only
  evaluation path; its grids are byte-identical to a cell-by-cell
  evaluation);
* **network serving** — `src/repro/server/` ships quantized (or
  packed) tensors over a versioned binary TCP protocol, bridging
  connections onto one shared service per format arm with explicit
  `BUSY` backpressure and optional `SO_REUSEPORT` worker-process
  sharding (`python -m repro serve --workers N`); every byte over the
  wire is bit-identical to the local quantizers.{server_note}
* **fused quantize→pack encode** — plan executors hand the codec
  integer code streams (`src/repro/plan/codespace.py`), so packed
  containers and streaming KV-session appends are written with no
  dequantize/re-derive round trip and `verify=True` collapses to an
  O(bytes) stream cross-check (containers byte-identical to the
  codec's re-derive path and to reference dispatch).{fused_note}
* **observability** — `src/repro/obs/` threads a unified metrics
  registry, span-based request tracing (`REPRO_TRACE=1`) and
  HEALTH-meta stats exposition through every serving layer
  (DESIGN.md §12).{obs_note}

`REPRO_REFERENCE_KERNELS=1` routes everything through the original
reference implementations; fast and reference paths are bit-identical
(`tests/test_kernel_parity.py` sweeps every format over adversarial
tensors, so the choice never affects any number in this file).

Benchmarks: `PYTHONPATH=src python scripts/bench_kernels.py` writes
`BENCH_kernels.json` (per-kernel reference/fast seconds, speedup, and
fast-path elements/sec — speedups are machine-portable, absolute
throughput is not). `scripts/check_bench_regression.py` fails when a
fresh run's speedups drop >20% below the committed file; it is wired
into the suite as an opt-in test via `REPRO_BENCH_REGRESSION=1`.
{bench_table}"""

RUNNER = """
## Runner & artifacts

All experiments run through the sharded runner in ``src/repro/runner/``:

```
python -m repro list                      # experiment ids + sweep formats
python -m repro run tbl3 fig6 --jobs 4    # shard over 4 worker processes
python -m repro run all --fast            # whole registry, reduced sizes
python -m repro sweep --formats mxfp4,m2xfp --profiles llama2-7b,opt-6.7b
python -m repro serve --workers 2         # TCP quantization server, sharded
```

* **Artifacts** — every run writes ``results/<exp_id>.json`` (the
  deterministic result payload: headers, rows, notes, extras as
  canonical JSON) and ``results/<exp_id>.meta.json`` (wall-clock
  timings, cache hit/miss, job count, code salt). The payload artifact
  is byte-identical between ``--jobs 1`` and ``--jobs N`` runs and
  between fresh and cache-served runs; only the meta sidecar varies.
  Sweeps write ``results/sweep.json`` / ``sweep.meta.json``.
* **Result cache** — completed runs are content-addressed under
  ``results/cache/<key>.json``, keyed by experiment id + kwargs + a
  digest of the whole ``repro`` source tree + the kernel dispatch mode
  (+ the format fingerprint for sweep arms). Any code change
  invalidates every entry; re-running an unchanged tree is served
  entirely from cache. A partially-failed sweep resumes from the arms
  that finished.
* **Determinism** — workers are ``spawn``-ed fresh and apply the same
  ``RunContext`` (global seed, fast/full mode) as in-process execution;
  ``tests/test_runner.py`` asserts serial/parallel byte-identity.
* **Env knobs** — ``REPRO_CACHE_DIR`` (cache location, default
  ``results/cache``), ``REPRO_RESULTS_DIR`` (artifact location),
  ``REPRO_NO_RESULT_CACHE=1`` (disable the result cache),
  ``REPRO_REFERENCE_KERNELS=1`` (kernel dispatch; fast and
  reference have separate cache namespaces),
  ``REPRO_PACKED_WEIGHTS=1`` (store quantized weights as packed
  containers), ``REPRO_SERVER_PORT`` / ``REPRO_SERVER_MAX_INFLIGHT`` /
  ``REPRO_SERVER_WORKERS`` (network server defaults). The full table
  lives in [README.md](README.md).
* **Packed codec & serving** — ``src/repro/codec/`` serializes every
  catalog format to true-bit-width bytes (bit-exact against the kernel
  dispatch; measured bits/element vs nominal EBW in
  ``BENCH_codec.json``), ``src/repro/serve/`` runs each quantization
  request on the caller's thread with a per-format weight memo, and
  ``src/repro/server/`` exposes the whole stack over a versioned TCP
  wire protocol with worker-process sharding
  (``BENCH_server.json``). See [DESIGN.md](DESIGN.md).
"""

FOOTER = """
## Known deviations

* The substrate's MXFP4-vs-NVFP4 degradation ratio (~2x in nll) is smaller
  than the paper's (~4x): a 2-layer synthetic teacher saturates decision
  margins faster than a 7B model, compressing differences between the
  better formats. Orderings are preserved.
* M2XFP vs NVFP4 is a near-tie on perplexity here (the paper's own margin
  is 5.77 vs 5.81); on individual profiles either may win by a hair.
* BlockDialect lands closer to M2XFP than in the paper because its
  16-dialect MSE search is run with an oracle (offline) selection for
  weights, while its online activation rule is a crest-factor heuristic.
* Fig. 13 normalizes against a W8A8 MXINT8 configuration of the same
  array; the paper's normalization baseline is not stated explicitly, so
  absolute bar heights differ while ratios match.
* The third decimal of llama3-8b's perplexities moves with float
  summation order: a 2e-15 relative change in one attention output
  (BLAS vs einsum) flips a few quantizer rounding decisions, and the
  difference grows through the later layers (fig3 smx4 and tbl3
  microscopiq moved by 0.2-0.3%). A difference in that digit between
  two formats, or between two BLAS builds, is not evidence.
"""


def _server_note(path: str = "BENCH_server.json") -> str:
    """Measured load-test sentence from the committed server benchmark."""
    if not os.path.exists(path):
        return ""
    with open(path) as f:
        payload = json.load(f)
    try:
        arm = payload["arms"]["m2xfp:activation:unpacked"]
        top = arm[max(arm, key=lambda k: arm[k]["concurrency"])]
        sharded = payload["sharded"]
        return (f" `BENCH_server.json` records "
                f"{top['rps']:.0f} requests/s at concurrency "
                f"{top['concurrency']} on the m2xfp activation arm "
                f"(p50 {top['p50_ms']:.1f} ms / p99 {top['p99_ms']:.1f} ms) "
                f"and a {sharded['speedup_sharded_vs_single']:.2f}x "
                f"closed-loop speedup for "
                f"{sharded['sharded']['workers']} sharded workers over a "
                f"single-worker server "
                f"(`scripts/bench_server.py`).")
    except (KeyError, ValueError):
        return ""


def _obs_note(path: str = "BENCH_obs.json") -> str:
    """Measured telemetry-cost sentence from the committed obs benchmark."""
    if not os.path.exists(path):
        return ""
    with open(path) as f:
        payload = json.load(f)
    try:
        on = payload["registry"]["enabled"]
        off = payload["registry"]["disabled"]
        cost = payload["overhead"]
        return (f" `BENCH_obs.json` pins the cost: a gated `Counter.inc` "
                f"is {on['counter_inc']['ns_per_op']:.0f} ns enabled / "
                f"{off['counter_inc']['ns_per_op']:.0f} ns under "
                f"`REPRO_NO_METRICS=1` (a full registry snapshot "
                f"{on['snapshot']['ns_per_op'] / 1e3:.1f} µs), and "
                f"metrics cost {max(cost['overhead_frac'], 0.0):.1%} of "
                f"end-to-end `QuantService` throughput "
                f"({cost['rps_on']:.0f} vs {cost['rps_off']:.0f} rps on vs "
                f"off; the 2% ceiling is hard-gated by "
                f"`check_bench_regression.py --suite obs`, "
                f"`scripts/bench_obs.py`).")
    except (KeyError, TypeError):
        return ""


def _fused_note(codec_path: str = "BENCH_codec.json",
                kv_path: str = "BENCH_kv.json") -> str:
    """Measured fused-vs-re-derive sentence from the committed benches."""
    if not (os.path.exists(codec_path) and os.path.exists(kv_path)):
        return ""
    with open(codec_path) as f:
        codec = json.load(f)
    with open(kv_path) as f:
        kv = json.load(f)
    try:
        arm = codec["fused"]["mxfp4:activation"]
        row = kv["decode_loop"]["elem-em"]
        tax = row["verify_off_tokens_per_s"] / row["tokens_per_s"]
        return (f" `BENCH_codec.json` records a "
                f"{arm['speedup_fused_encode_only']:.1f}x mxfp4 encode "
                f"({arm['speedup_fused_pack']:.1f}x with verify) over the "
                f"re-derive path, and `BENCH_kv.json` a {tax:.2f}x KV-session "
                f"verify tax (down from ~2x) on the elem-em decode loop "
                f"(`scripts/bench_codec.py` / `scripts/bench_kv.py`).")
    except (KeyError, TypeError, ZeroDivisionError):
        return ""


def _bench_table(path: str = "BENCH_kernels.json") -> str:
    """Markdown table of the committed kernel benchmark, if present."""
    if not os.path.exists(path):
        return ("\nNo committed `BENCH_kernels.json` found; run the "
                "benchmark script to create one.\n")
    with open(path) as f:
        payload = json.load(f)
    lines = ["", "Committed `BENCH_kernels.json`:", "",
             "| kernel | reference | fast | speedup |",
             "|---|---|---|---|"]
    for name, row in sorted(payload.get("kernels", {}).items()):
        if "ref_s" in row and "fast_s" in row and "speedup" in row:
            lines.append(f"| {name} | {row['ref_s']*1e3:.1f} ms "
                         f"| {row['fast_s']*1e3:.1f} ms "
                         f"| {row['speedup']:.2f}x |")
    cache = payload.get("kernels", {}).get("qlm_weight_cache")
    if cache:
        lines.append(f"| qlm_weight_cache (2nd arm) | {cache['cold_s']*1e3:.1f} ms "
                     f"| {cache['warm_s']*1e3:.1f} ms | {cache['speedup']:.0f}x |")
    return "\n".join(lines) + "\n"


def main(fast: bool = True, jobs: int = 1) -> None:
    mode_note = " (fast mode)" if fast else " (full mode)"
    parts = [HEADER.format(mode_note=mode_note)]
    runner = ExperimentRunner(RunContext(fast=fast, jobs=jobs))
    for record in runner.run(list_experiments()):
        result = record.result
        parts.append(f"## {result.experiment_id}: {result.title}\n")
        parts.append("```\n" + result.render() + "\n```\n")
        # Cache-served records carry the original compute seconds, so a
        # warm-cache regeneration reproduces the committed runtime lines
        # instead of churning them.
        parts.append(f"_runtime: {record.seconds:.1f}s_\n")
    parts.append(PERFORMANCE.format(bench_table=_bench_table(),
                                    server_note=_server_note(),
                                    fused_note=_fused_note(),
                                    obs_note=_obs_note()))
    parts.append(RUNNER)
    parts.append(FOOTER)
    with open("EXPERIMENTS.md", "w") as f:
        f.write("\n".join(parts))
    print("wrote EXPERIMENTS.md")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--full", action="store_true",
                        help="full profile-default eval sizes")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (default 1)")
    ns = parser.parse_args()
    main(fast=not ns.full, jobs=ns.jobs)
