"""paper_ppl: W&A perplexity per format on a calibrated model profile.

The system is a worker process (this file run as a script) that drives
``repro.models`` / ``repro.eval`` in-process, the paper-reproduction
user's path. It calibrates the ``llama2-7b`` profile, runs a warm-up
pass over every format, then answers one JSON command per line on
stdin. Each pass over the formats starts from a fresh model object and
a fresh ``EvalEngine``, so every arm pays its real cost (weight
quantization, activation calibration, the forward pass) instead of
hitting the engine memo or the per-model weight cache that a repeated
in-process evaluation would hit.
"""

from __future__ import annotations

import json
import sys
import time

PROFILE = "llama2-7b"
FORMATS = ("mxfp4", "nvfp4", "m2xfp", "m2-nvfp4", "elem-em", "sg-em")

#: What the seed code produces for each format on this profile (W&A).
EXPECTED_PPL = {
    "mxfp4": 8.882507797513306,
    "nvfp4": 6.772773925274468,
    "m2xfp": 7.024687061211846,
    "m2-nvfp4": 6.5285215971835395,
    "elem-em": 6.989405509418901,
    "sg-em": 6.99472461168336,
}
PPL_RTOL = 1e-9


def ppl_ok(name: str, ppl: float) -> bool:
    want = EXPECTED_PPL[name]
    return abs(ppl - want) <= PPL_RTOL * want


# ----------------------------------------------------------------------
# Worker side (runs inside the system process)
# ----------------------------------------------------------------------
class _Worker:
    def __init__(self) -> None:
        from repro.models.profiles import load_runtime
        from repro.runner.formats import make_format
        t0 = time.perf_counter()
        self.base = load_runtime(PROFILE)
        self.calibrate_s = time.perf_counter() - t0
        self.formats = {name: make_format(name) for name in FORMATS}
        self.runtime = self.engine = None

    def fresh(self) -> None:
        """A new model object (no weight cache) and a new engine (no memo)."""
        from dataclasses import replace

        from repro.eval.engine import EvalEngine
        from repro.models.transformer import TransformerLM
        model = TransformerLM(self.base.profile.config())
        model.gain = self.base.model.gain
        self.runtime = replace(self.base, model=model)
        self.engine = EvalEngine()

    def arm(self, name: str) -> dict:
        fmt = self.formats[name]
        t0 = time.perf_counter()
        self.engine.wrapper(self.runtime, fmt)
        t1 = time.perf_counter()
        ppl = self.engine.perplexity(self.runtime, fmt)
        t2 = time.perf_counter()
        again = self.engine.perplexity(self.runtime, fmt)   # memo read
        t3 = time.perf_counter()
        return {"name": name, "ppl": ppl, "wq_s": t1 - t0, "fwd_s": t2 - t1,
                "read_s": t3 - t2, "read_same": again == ppl,
                "tokens": int(self.runtime.tokens.size)}

    @staticmethod
    def plan_cache() -> dict:
        from repro.obs import registry
        return registry().snapshot().get("plan_cache", {})

    def replay(self) -> dict:
        """Boundary replay of the plan layer on this workload's inputs:
        ``quantize_weight`` over every weight matrix, per format."""
        times, elements = [], 0
        for fmt in self.formats.values():
            for layer in self.base.model.layers:
                for key in ("wq", "wk", "wv", "wo", "w_gate", "w_up",
                            "w_down"):
                    w = layer[key]
                    t0 = time.perf_counter()
                    fmt.quantize_weight(w, axis=-1)
                    times.append(time.perf_counter() - t0)
                    elements += w.size
        return {"quantize_s": times, "elements": elements}


def worker_main() -> int:
    worker = _Worker()
    worker.fresh()
    warm = [worker.arm(name) for name in FORMATS]
    print(json.dumps({"ready": True, "calibrate_s": worker.calibrate_s,
                      "warm": warm}), flush=True)
    for line in sys.stdin:
        cmd = json.loads(line)
        if cmd["cmd"] == "arm":
            if cmd.get("fresh"):
                worker.fresh()
            out = worker.arm(cmd["name"])
        elif cmd["cmd"] == "plan_cache":
            out = worker.plan_cache()
        elif cmd["cmd"] == "replay":
            out = worker.replay()
        else:
            out = {"error": f"unknown command {cmd['cmd']!r}"}
        print(json.dumps(out), flush=True)
    return 0


# ----------------------------------------------------------------------
# Benchmark side (runs in the benchmark process)
# ----------------------------------------------------------------------
class PaperPpl:
    name = "paper_ppl"

    def __init__(self, seed: int, spans) -> None:
        import numpy as np

        from repro.codec import encode
        from repro.models.profiles import get_profile
        from repro.models.transformer import TransformerLM
        from repro.runner.formats import make_format
        self.seed = seed
        self.spans = spans
        rng = np.random.default_rng(seed)
        # Each pass visits every format once, in a seeded order.
        self.passes = [[FORMATS[j] for j in rng.permutation(len(FORMATS))]
                       for _ in range(64)]
        # Packed weight footprint over the model's weights, per format.
        model = TransformerLM(get_profile(PROFILE).config())
        payload = elements = 0
        for name in FORMATS:
            fmt = make_format(name)
            for layer in model.layers:
                for key in ("wq", "wk", "wv", "wo", "w_gate", "w_up",
                            "w_down"):
                    pt = encode(fmt, layer[key], op="weight", axis=-1)
                    payload += pt.payload_bytes
                    elements += pt.n_elements
        self.bits_per_element = payload * 8.0 / elements
        self.system = None
        self.calibrate_s: list[float] = []
        self._next = 0

    def launch(self, tag: str, *, root: str, outdir: str, env: dict):
        import subprocess

        from sysproc import System, python_argv
        self.system = System(tag, python_argv(__file__, "--worker"),
                             root=root, outdir=outdir, env=env,
                             stdin=subprocess.PIPE).start()
        return self.system

    def _call(self, cmd: dict) -> dict:
        proc = self.system.proc
        proc.stdin.write((json.dumps(cmd) + "\n").encode())
        proc.stdin.flush()
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited ({proc.poll()}); see "
                               f"{self.system.err_path}")
        return json.loads(line)

    def warm(self) -> None:
        line = self.system.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited ({self.system.proc.poll()})"
                               f"; see {self.system.err_path}")
        ready = json.loads(line)
        bad = [a["name"] for a in ready["warm"]
               if not ppl_ok(a["name"], a["ppl"])]
        if bad:
            raise RuntimeError(f"warm-up perplexity differs for {bad}")
        self.calibrate_s.append(ready["calibrate_s"])

    def connect(self) -> None:
        pass

    def disconnect(self) -> None:
        pass

    def plan_cache(self) -> dict:
        return self._call({"cmd": "plan_cache"})

    def can_stop(self) -> bool:
        """Only between passes, so every format weighs the same
        whatever the run length."""
        return self._next % len(FORMATS) == 0

    def run_slice(self, w, deadline: float) -> None:
        """One format of the current pass (an arm is the slice unit)."""
        p, j = divmod(self._next, len(FORMATS))
        name = self.passes[p % len(self.passes)][j]
        self._next += 1
        w.attempted += 1
        t0 = time.perf_counter()
        out = self._call({"cmd": "arm", "name": name, "fresh": j == 0})
        t1 = time.perf_counter()
        if self.spans is not None:
            self.spans.add("eval.arm", t0, t1, trace_id=p)
        if ppl_ok(name, out["ppl"]) and out["read_same"]:
            w.ops += 1
            w.tokens += out["tokens"]
            w.latencies.append(t1 - t0)
            w.labels.append(name)
            w.reads.append(out["read_s"])
            w.extra.setdefault("wq_s", []).append((name, out["wq_s"]))
            w.extra.setdefault("fwd_s", []).append((name, out["fwd_s"]))
        else:
            w.fail(f"{name}: perplexity {out['ppl']!r}, expected "
                   f"{EXPECTED_PPL[name]!r}")


    def replay(self) -> dict:
        return self._call({"cmd": "replay"})


if __name__ == "__main__" and sys.argv[1:] == ["--worker"]:
    sys.exit(worker_main())
