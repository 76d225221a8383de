#!/usr/bin/env python3
"""Benchmark of the serving stack and the paper-reproduction path.

Run from the root of a checkout::

    python3 perfbench/run.py --workload edge_lone --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. Every run also
writes a run record (latency tails with sample counts, steal seconds,
per-process CPU, host stamp, seed, effective environment) under
``.perfbench_out/``. See ``perfbench/README.md`` for what each workload
and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time

ROOT = os.getcwd()

#: Launches per run; ``setup_s`` is their median.
N_SETUP = 3
#: Length of one load slice. Every time measured in a slice is scaled
#: by the share of the slice that was not stolen (see README.md).
SLICE_S = 0.5

#: Why each workload exists, which layers it stresses, which it
#: bypasses. Copied into every run record.
WORKLOADS = {
    "edge_lone": {
        "load": "closed loop, 1 keep-alive HTTP connection, 1 request in "
                "flight, 8 arms {m2xfp, elem-em, nvfp4, m2-nvfp4} x "
                "{unpacked, packed} on 16x256 activations, to "
                "`python -m repro gateway --replicas 2`",
        "why": "each request is alone in the system, so its latency is the "
               "sum of every layer's own time on the full path",
        "stresses": ["gateway HTTP/JSON/base64", "upstream client",
                     "server frame", "service batch window", "plan",
                     "codec"],
        "bypasses": ["batching throughput", "weight memo", "kv sessions",
                     "eval/models"],
    },
    "wire_bulk": {
        "load": "closed loop, 16 requests in flight pipelined over 2 wire "
                "connections from one asyncio thread, to `python -m repro "
                "serve`; activations of 1-64 rows x 256 on m2xfp, m2xfp "
                "packed, elem-em, mxfp4 packed, nvfp4, plus every 8th "
                "request an m2xfp weight from a pool of 8 256x256 matrices",
        "why": "the service queue never drains, so most of the work is "
               "micro-batching, stacked plan runs over varying row counts, "
               "the weight memo and the fused codec",
        "stresses": ["service queue/micro-batching", "plan-cache churn",
                     "weight memo", "fused codec", "server frame"],
        "bypasses": ["gateway", "kv sessions", "eval/models"],
    },
    "kv_decode": {
        "load": "closed loop, 1 wire connection to `python -m repro serve`, "
                "KV sessions back to back: 4 layers, d_head 64, policy "
                "m2xfp with nvfp4 on layer 1 and m2-nvfp4 on layer 3, "
                "16-token prefill then 128 decode steps of 1x64 appends per "
                "layer, max_tokens 96, sink_tokens 8, a READ every 16 steps",
        "why": "tiny appends with verify on plus reads beside the writes; "
               "the tensor-scoped layers take the non-fused verify path",
        "stresses": ["kv sessions", "codec verify", "session frames",
                     "client on the blocking path"],
        "bypasses": ["QuantService batching", "gateway", "eval/models"],
    },
    "paper_ppl": {
        "load": "in-process through repro.models/repro.eval in a worker "
                "process: calibrate llama2-7b, then W&A perplexity per "
                "format (mxfp4, nvfp4, m2xfp, m2-nvfp4, elem-em, sg-em), "
                "each pass on a fresh model and engine",
        "why": "the paper-reproduction user's path: the weight path of "
               "plan/kernels (Sg-EM search on full matrices) and the model "
               "forward",
        "stresses": ["plan/kernels weight path", "models forward",
                     "eval engine", "calibration (setup)"],
        "bypasses": ["gateway", "server", "service", "codec", "kv"],
    },
}

UNITS = {"setup_s": "s", "throughput_rps": "1/s", "tokens_per_s": "1/s",
         "latency_p50_ms": "ms", "latency_p90_ms": "ms",
         "read_p50_ms": "ms", "cpu_ms_per_req": "ms", "ok_frac": "ratio",
         "bits_per_element": "bits", "rss_mb": "MiB"}


def _make(workload: str, seed: int, spans):
    if workload == "paper_ppl":
        from paper import PaperPpl
        return PaperPpl(seed, spans)
    from serving import EdgeLone, KvDecode, WireBulk
    cls = {"edge_lone": EdgeLone, "wire_bulk": WireBulk,
           "kv_decode": KvDecode}[workload]
    return cls(seed, spans)


def _fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def measure(wl, system, seconds: float):
    """Closed-loop load in slices of ``SLICE_S``; per slice, the CPU
    seconds of every system process and of the generator, the machine's
    steal seconds, and the CPU slowness measured around it."""
    from serving import Window
    from sysproc import cpu_slowness, own_cpu_s, steal_s, unstolen_share
    w = Window()
    pids = system.pids()
    slices = []
    slow = cpu_slowness()
    measured = 0.0
    while measured < seconds or not wl.can_stop():
        marks = (len(w.latencies), w.ops, w.tokens)
        cpu0, gen0, st0 = system.cpu_s(pids), own_cpu_s(), steal_s()
        t0 = time.perf_counter()
        wl.run_slice(w, t0 + SLICE_S)
        wall = time.perf_counter() - t0
        cpu1, gen1, st1 = system.cpu_s(pids), own_cpu_s(), steal_s()
        after = cpu_slowness()    # while the system idles
        cpu = {p: cpu1[p] - cpu0.get(p, 0.0) for p in cpu1}
        slices.append({
            "wall_s": wall, "marks": marks, "ops": w.ops - marks[1],
            "tokens": w.tokens - marks[2], "steal_s": st1 - st0,
            "unstolen": unstolen_share(sum(cpu.values()) + gen1 - gen0,
                                       st1 - st0),
            "cpu_slowness": (slow + after) / 2,
            "gen_cpu_s": gen1 - gen0, "cpu_s": cpu})
        slow = after
        measured += wall
    return w, slices


def _per_slice(latencies: list, slices: list) -> list:
    """Latencies (appended slice by slice) split by slice."""
    ends = [sl["marks"][0] for sl in slices[1:]] + [len(latencies)]
    return [latencies[sl["marks"][0]:end] for sl, end in zip(slices, ends)]


def _scaled(latencies: list, slices: list, kappa: float) -> list:
    """Latencies with their slice's stolen share taken out, at nominal
    CPU speed."""
    return [v * sl["unstolen"] / kappa
            for sl, part in zip(slices, _per_slice(latencies, slices))
            for v in part]


def _summary(seconds: list, labels: list) -> dict:
    """Latency summary in ms. With labels (arms of different kinds),
    the percentiles are over the per-arm medians, so every arm weighs
    the same whatever the run length."""
    from serving import summary_ms
    if not labels:
        return summary_ms(seconds)
    by_arm: dict = {}
    for arm, v in zip(labels, seconds):
        by_arm.setdefault(arm, []).append(v)
    return {**summary_ms([statistics.median(v) for v in by_arm.values()]),
            "count": len(seconds)}


def _setup(wl, outdir: str, trace: bool):
    """Launch, warm up and check the system ``N_SETUP`` times; the last
    launch stays up. Returns it with its environment and the set-up
    times, their stolen share taken out."""
    import layers
    from sysproc import own_cpu_s, steal_s, system_env, unstolen_share
    setups = []
    for i in range(N_SETUP):
        env = system_env(ROOT, outdir,
                         layers.trace_env(outdir, i) if trace else None)
        gen0, st0 = own_cpu_s(), steal_s()
        system = wl.launch(f"system{i}", root=ROOT, outdir=outdir, env=env)
        try:
            wl.warm()
            wall = time.perf_counter() - system.t_launch
            cpu = sum(system.cpu_s().values()) + own_cpu_s() - gen0
            setups.append(wall * unstolen_share(cpu, steal_s() - st0))
        except BaseException:
            wl.disconnect()
            system.stop()
            raise
        if i < N_SETUP - 1:
            wl.disconnect()
            system.stop()
    return system, env, setups


def run(args) -> dict:
    from serving import Spans, quantile, summary_ms
    from sysproc import host_stamp, recorded_env
    import layers

    outdir = _fresh_dir(os.path.join(
        ROOT, ".perfbench_out",
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"))
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": bool(args.trace),
              "host": host_stamp(), "stripped_env": args.stripped,
              **WORKLOADS[args.workload]}
    spans = Spans() if args.trace else None
    wl = _make(args.workload, args.seed, spans)   # inputs + expectations
    try:
        system, env, setups = _setup(wl, outdir, args.trace)
        try:
            record["env"] = recorded_env(env)
            probe = layers.Probe(wl, outdir) if args.trace else None
            if probe:
                probe.before()
            w, slices = measure(wl, system, args.seconds)
            if probe:
                probe.after()
            rss = system.hwm_mb()
            kappa = statistics.median(sl["cpu_slowness"] for sl in slices)
            # CPU seconds per process and of the generator, at nominal
            # CPU speed.
            sys_cpu: dict = {}
            for sl in slices:
                for pid, c in sl["cpu_s"].items():
                    sys_cpu[pid] = sys_cpu.get(pid, 0.0) + c / kappa
            gen_cpu = sum(sl["gen_cpu_s"] for sl in slices) / kappa
            per_layer = probe.metrics(w, sys_cpu, gen_cpu) if probe else None
        finally:
            wl.disconnect()
            system.stop()
    finally:
        if hasattr(wl, "close"):
            wl.close()

    ops = max(w.ops, 1)
    wall = sum(sl["wall_s"] for sl in slices)
    scaled_wall = sum(sl["wall_s"] * sl["unstolen"] for sl in slices) / kappa
    lat = _summary(_scaled(w.latencies, slices, kappa), w.labels)
    # A read is one operation that steal hits or misses; scaling each by
    # its slice's mean unstolen share shrank the unhit majority and made
    # the p50 noisier in ten-seed trials, so reads get the CPU speed only.
    reads = _summary([v / kappa for v in w.reads], w.read_labels)
    metrics = {
        "setup_s": statistics.median(setups) / kappa,
        "throughput_rps": w.ops / scaled_wall,
        "tokens_per_s": w.tokens / scaled_wall,
        "latency_p50_ms": lat["p50"],
        "latency_p90_ms": lat["p90"],
        "read_p50_ms": reads["p50"],
        "cpu_ms_per_req": sum(sys_cpu.values()) * 1e3 / ops,
        "ok_frac": (w.attempted - w.failed) / max(w.attempted, 1),
        "bits_per_element": wl.bits_per_element,
        "rss_mb": rss,
    }
    steal = sum(sl["steal_s"] for sl in slices)
    unstolen = [sl["unstolen"] for sl in slices]
    record.update({
        "setup_s": setups,
        "window": {"wall_s": wall, "slices": len(slices), "ops": w.ops,
                   "tokens": w.tokens, "attempted": w.attempted,
                   "failed": w.failed, "failures": w.failures, **{
                       k: v for k, v in w.extra.items()
                       if not isinstance(v, list)}},
        "latency_ms": lat, "read_ms": reads,
        "unscaled": {"throughput_rps": w.ops / wall,
                     "cpu_ms_per_req": sum(sum(sl["cpu_s"].values())
                                           for sl in slices) * 1e3 / ops,
                     "latency_ms": summary_ms(w.latencies),
                     "read_ms": summary_ms(w.reads)},
        "noise": {
            "steal_s": steal,
            "unstolen_share": {"min": min(unstolen), "max": max(unstolen),
                               "median": statistics.median(unstolen)},
            "cpu_slowness": kappa,
            "system_cpu_s": {str(p): c for p, c in sys_cpu.items()},
            "generator_cpu_s": gen_cpu},
        # Per slice: wall s, unstolen share, CPU slowness, ops, steal s,
        # unscaled latency p50 and p90 ms.
        "slices": [[round(sl["wall_s"], 4), round(sl["unstolen"], 4),
                    round(sl["cpu_slowness"], 4), sl["ops"],
                    round(sl["steal_s"], 2),
                    round(quantile(lat_i, 0.5) * 1e3, 4),
                    round(quantile(lat_i, 0.9) * 1e3, 4)]
                   for sl, lat_i in zip(slices, _per_slice(w.latencies,
                                                          slices))],
        "metrics": metrics,
    })
    if per_layer is not None:
        record["per_layer"] = per_layer
        record["replay"] = probe.replay
    if spans is not None:
        with open(os.path.join(outdir, "spans.jsonl"), "w") as f:
            for line in spans.lines():
                f.write(json.dumps(line) + "\n")
    record_path = os.path.join(outdir, "record.json")
    with open(record_path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    shown = per_layer if per_layer is not None else \
        {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}
    for key, val in shown.items():
        print(f"{args.workload:10s} {key:32s} "
              f"{'n/a' if val.get('na') else format(val['value'], '.6g')}"
              f" {val['unit']}")
    print(f"steal {steal:.2f} s over the window, unstolen share "
          f"{min(unstolen):.2f}..{max(unstolen):.2f} per slice; "
          f"record: {os.path.relpath(record_path, ROOT)}")
    return {"correct": w.failed == 0 and w.attempted > 0,
            "attempted": w.attempted, "failed": w.failed,
            "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                        for k, v in shown.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("error: run from the root of a repro checkout "
              "(src/repro is missing)", file=sys.stderr)
        return 2
    from sysproc import scrub_own_env
    args.stripped = scrub_own_env()
    # A SIGTERM unwinds like Ctrl-C, so the system processes get stopped.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    result = run(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
