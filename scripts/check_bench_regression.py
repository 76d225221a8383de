"""Fail when benchmark speedups regress against the committed baselines.

Covers all six committed benchmark files — ``BENCH_kernels.json``
(kernel fast-vs-reference speedups), ``BENCH_codec.json`` (codec /
service / bitstream), ``BENCH_eval.json`` (compiled plans + eval
engine), ``BENCH_server.json`` (network server load test, sharded
vs single worker), ``BENCH_kv.json`` (streaming KV-cache decode
loop, structurally gated) and ``BENCH_obs.json`` (telemetry overhead,
hard-gated: metrics-on rps may cost at most 2% vs ``REPRO_NO_METRICS=1``)
— and exits non-zero if any recorded
*speedup* dropped by more than the threshold (default 20%). Speedups are
compared rather than raw throughput because both sides of a speedup
are measured on the same machine, making the ratio portable across
hardware — the committed baseline may come from a different box than
CI.

Run:  PYTHONPATH=src python scripts/check_bench_regression.py \
          [--suite kernels|codec|eval|server|kv|obs|all] \
          [--baseline PATH] \
          [--candidate PATH] [--threshold 0.2] [--quick]

With no ``--candidate``, a fresh benchmark run supplies the candidate
(``--quick`` shrinks it). Wired into the benchmark suite as opt-in
tests: export ``REPRO_BENCH_REGRESSION=1`` and run
``pytest benchmarks/test_kernel_throughput.py``.
"""

from __future__ import annotations

import argparse
import json
import sys

#: suite -> (baseline file, bench module with run_benchmarks(quick)).
SUITES = {
    "kernels": ("BENCH_kernels.json", "bench_kernels"),
    "codec": ("BENCH_codec.json", "bench_codec"),
    "eval": ("BENCH_eval.json", "bench_eval"),
    "server": ("BENCH_server.json", "bench_server"),
    "kv": ("BENCH_kv.json", "bench_kv"),
    "obs": ("BENCH_obs.json", "bench_obs"),
}

#: suite -> payload sections a candidate run must populate. The server
#: suite's chaos and gateway sections are validated structurally (their
#: absolute rps is machine-dependent, but a fresh run must have
#: *completed* requests — through the fault proxy for chaos, and with
#: exactly matching /metrics counters for the gateway). The kv suite's
#: decode-loop tokens/s are absolute rates, so that part of the gate is
#: purely structural — every baseline format must complete with a
#: positive rate, every append packed from plan codes, and the wire
#: replay must read back bit-exact. The codec ``fused`` section's
#: ``speedup_encode_vs_verified`` (plain / ``verify=True`` encode) is a
#: speedup like any other, gated by the threshold.
REQUIRED_SECTIONS = {
    "codec": ("arms", "fused"),
    "server": ("arms", "sharded", "chaos", "gateway"),
    "kv": ("decode_loop", "wire"),
    "obs": ("registry", "overhead"),
}


def check_sections(suite: str, candidate: dict) -> list[str]:
    """Structural validation failures for a candidate payload."""
    failures = []
    for section in REQUIRED_SECTIONS.get(suite, ()):
        if not candidate.get(section):
            failures.append(f"{suite}: candidate is missing the "
                            f"'{section}' section")
    if suite == "server" and candidate.get("chaos"):
        load = candidate["chaos"].get("load", {})
        if not load.get("requests"):
            failures.append("server: chaos section completed no requests "
                            "through the fault proxy")
    if suite == "server" and candidate.get("gateway"):
        failures += _check_gateway_section(candidate["gateway"])
    if suite == "kv":
        failures += _check_kv_sections(candidate)
    if suite == "obs":
        failures += _check_obs_section(candidate)
    return failures


#: The hard ceiling on the metrics-on throughput cost (ISSUE 10): the
#: observability contract is that leaving the registry enabled costs at
#: most this fraction of requests/s vs ``REPRO_NO_METRICS=1``.
OBS_OVERHEAD_CEILING = 0.02


def _check_obs_section(candidate: dict) -> list[str]:
    """The telemetry bench must record per-op instrument costs for both
    the enabled and the ``REPRO_NO_METRICS=1`` paths, and the measured
    end-to-end overhead fraction must sit under the 2% ceiling — a hard
    gate, no threshold grace: both sides of the ratio come from the
    same interleaved run on the same machine."""
    failures = []
    registry = candidate.get("registry", {})
    for mode in ("enabled", "disabled"):
        ops = registry.get(mode, {})
        for op in ("counter_inc", "histogram_observe", "snapshot"):
            rate = ops.get(op, {}).get("ops_per_s")
            if not (isinstance(rate, (int, float)) and rate > 0):
                failures.append(f"obs: registry[{mode}][{op}] has no "
                                f"positive 'ops_per_s'")
    overhead = candidate.get("overhead", {})
    for key in ("rps_on", "rps_off"):
        if not (isinstance(overhead.get(key), (int, float))
                and overhead[key] > 0):
            failures.append(f"obs: overhead section has no positive "
                            f"'{key}'")
    frac = overhead.get("overhead_frac")
    if not isinstance(frac, (int, float)):
        failures.append("obs: overhead section has no 'overhead_frac'")
    elif frac > OBS_OVERHEAD_CEILING:
        failures.append(
            f"obs: metrics-on overhead {frac:.2%} exceeds the "
            f"{OBS_OVERHEAD_CEILING:.0%} ceiling "
            f"({overhead.get('rps_on')} rps on vs "
            f"{overhead.get('rps_off')} rps off)")
    return failures


def _check_kv_sections(candidate: dict) -> list[str]:
    """The KV decode loop must complete every format arm at a positive
    rate with appends packed from plan codes, and the wire replay must
    have read back bit-exactly."""
    failures = []
    for fmt, row in sorted(candidate.get("decode_loop", {}).items()):
        for key in ("tokens_per_s", "appends_per_s"):
            if not (isinstance(row.get(key), (int, float))
                    and row[key] > 0):
                failures.append(f"kv: decode_loop '{fmt}' has no "
                                f"positive '{key}'")
        if row.get("verify") is not True:
            failures.append(f"kv: decode_loop '{fmt}' did not run with "
                            f"verify=True (the serving default)")
        if not (isinstance(row.get("fused_appends"), int)
                and row["fused_appends"] > 0):
            failures.append(f"kv: decode_loop '{fmt}' has no appends "
                            f"packed from plan codes ('fused_appends')")
    wire = candidate.get("wire", {})
    if wire:
        if not (isinstance(wire.get("tokens_per_s"), (int, float))
                and wire["tokens_per_s"] > 0):
            failures.append("kv: wire section has no positive "
                            "'tokens_per_s'")
        if wire.get("read_bit_exact") is not True:
            failures.append("kv: wire session READ was not bit-exact "
                            "against the local session")
    return failures


def _check_gateway_section(gateway: dict) -> list[str]:
    """The gateway scaling curve must be complete and self-consistent:
    every replica point present and loaded, every ``scaling_*`` ratio
    recorded, and the /metrics counters an *exact* match against the
    harness's own completed-request tally."""
    failures = []
    points = gateway.get("points", {})
    for key in ("r1", "r2", "r4"):
        point = points.get(key)
        if not point:
            failures.append(f"server: gateway section is missing the "
                            f"'{key}' replica point")
            continue
        if not point.get("requests"):
            failures.append(f"server: gateway point '{key}' completed "
                            f"no requests")
        cross = gateway.get("metrics_crosscheck", {}).get(key, {})
        if not cross.get("matched"):
            failures.append(
                f"server: gateway point '{key}' /metrics counters do "
                f"not match the harness tally "
                f"({cross.get('metrics_requests_total')} vs "
                f"{cross.get('harness_completed')})")
    for ratio in ("scaling_r2_vs_r1", "scaling_r4_vs_r1"):
        if not isinstance(gateway.get(ratio), (int, float)):
            failures.append(f"server: gateway section is missing the "
                            f"'{ratio}' ratio")
    return failures


def _speedups(payload, path=()) -> dict[str, float]:
    """All ``speedup*`` numbers in a payload, keyed by their JSON path.

    Pre-PR columns (``speedup_vs_pre_pr``) and the embedded ``pre_pr``
    section are skipped: they compare against a checkout a fresh run
    cannot reproduce.
    """
    out: dict[str, float] = {}
    if isinstance(payload, dict):
        if "warm_s" in payload:
            # Cache-effect rows (e.g. the QuantizedLM weight-cache entry)
            # are informational: their ratio measures a ~zero-cost hit
            # and swings by orders of magnitude between runs.
            return out
        for key, value in payload.items():
            if key == "pre_pr":
                continue
            if key.startswith("speedup") and key != "speedup_vs_pre_pr" \
                    and isinstance(value, (int, float)):
                out["/".join((*path, key))] = float(value)
            else:
                out.update(_speedups(value, (*path, str(key))))
    return out


def compare(baseline: dict, candidate: dict, threshold: float = 0.2) -> list[str]:
    """Return a list of human-readable regression messages (empty = pass)."""
    failures = []
    base = _speedups(baseline)
    cand = _speedups(candidate)
    for name in sorted(base):
        if name not in cand:
            failures.append(f"{name}: missing from candidate run")
            continue
        floor = base[name] * (1.0 - threshold)
        if cand[name] < floor:
            failures.append(
                f"{name}: speedup {cand[name]:.2f}x < {floor:.2f}x "
                f"(baseline {base[name]:.2f}x - {threshold:.0%})")
    return failures


def run_check(baseline_path: str, candidate_path: str | None,
              threshold: float, quick: bool,
              bench_module: str = "bench_kernels",
              suite: str | None = None) -> int:
    with open(baseline_path) as f:
        baseline = json.load(f)
    if candidate_path is not None:
        with open(candidate_path) as f:
            candidate = json.load(f)
    else:
        module = __import__(bench_module)
        candidate = module.run_benchmarks(quick=quick)
    failures = compare(baseline, candidate, threshold)
    if suite is not None:
        failures += check_sections(suite, candidate)
    base = _speedups(baseline)
    cand = _speedups(candidate)
    for name in sorted(base):
        if name in cand:
            print(f"  {name:>48}: baseline {base[name]:6.2f}x  "
                  f"candidate {cand[name]:6.2f}x")
    if failures:
        print("THROUGHPUT REGRESSION:")
        for msg in failures:
            print(f"  - {msg}")
        return 1
    print(f"no throughput regression vs {baseline_path}")
    return 0


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--suite", default="kernels",
                    choices=[*SUITES, "all"])
    ap.add_argument("--baseline", default=None,
                    help="override the suite's committed baseline path")
    ap.add_argument("--candidate", default=None,
                    help="pre-recorded candidate JSON; omitted = run fresh")
    ap.add_argument("--threshold", type=float, default=0.2)
    ap.add_argument("--quick", action="store_true",
                    help="fresh runs use smaller tensors")
    args = ap.parse_args()
    if args.suite == "all" and (args.baseline or args.candidate):
        ap.error("--baseline/--candidate name one file and cannot be "
                 "combined with --suite all")
    suites = list(SUITES) if args.suite == "all" else [args.suite]
    rc = 0
    for suite in suites:
        baseline, module = SUITES[suite]
        rc |= run_check(args.baseline or baseline, args.candidate,
                        args.threshold, args.quick, bench_module=module,
                        suite=suite)
    sys.exit(rc)


if __name__ == "__main__":
    main()
