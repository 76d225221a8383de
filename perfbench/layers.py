"""Per-layer numbers for the traced run (``--trace 1``).

Three sources, all read from outside the program's own code:

* **counter deltas** from the program's exposition, read just before
  and just after the timed window: ``server_stats()`` of every server
  process, the gateway's ``/metrics``, KV session-close stats, and the
  plan-cache counters of the perplexity worker;
* **in-server stage spans** from the ``REPRO_TRACE=1`` JSONL export
  (queue, batch, quantize, pack, verify, serialize), switched on only in
  the system's environment for this run;
* **boundary replay** after the window: the benchmark times each
  layer's public function on the workload's own inputs
  (``TensorFormat.quantize_activation`` / ``quantize_weight``,
  ``codec.encode``, ``QuantService.submit().result()``,
  ``KVCacheSession.append`` / ``read``), plus paired edge-vs-direct
  round trips and timed ``server_stats()`` calls.

A metric whose layer the workload bypasses is reported as 0 and marked
``na`` in the run record and the printed table.
"""

from __future__ import annotations

import json
import os
import re
import statistics
import time

from serving import HOST, EdgeLone, KvDecode, WireBulk, quantile

#: name -> (unit, workloads it applies to)
PER_LAYER = {
    "gateway.self_ms_p50": ("ms", {"edge_lone"}),
    "gateway.cpu_ms_per_req": ("ms", {"edge_lone"}),
    "gateway.replica_share_max": ("ratio", {"edge_lone"}),
    "server.cpu_ms_per_req": ("ms", {"edge_lone", "wire_bulk", "kv_decode"}),
    "server.wire_ms_p50": ("ms", {"wire_bulk", "kv_decode"}),
    "server.busy_frac": ("ratio", {"edge_lone", "wire_bulk", "kv_decode"}),
    "client.cpu_ms_per_req": ("ms", {"edge_lone", "wire_bulk", "kv_decode"}),
    "serve.batch_ms_p50": ("ms", {"edge_lone", "wire_bulk"}),
    "serve.queue_ms_p50": ("ms", {"edge_lone", "wire_bulk", "kv_decode"}),
    "serve.batch_size_mean": ("count", {"edge_lone", "wire_bulk"}),
    "serve.weight_memo_hit_frac": ("ratio", {"wire_bulk"}),
    "plan.hit_frac": ("ratio", {"edge_lone", "wire_bulk", "kv_decode",
                                "paper_ppl"}),
    "plan.compiles": ("count", {"edge_lone", "wire_bulk", "kv_decode",
                                "paper_ppl"}),
    "plan.quantize_ms_p50": ("ms", {"edge_lone", "wire_bulk", "kv_decode",
                                    "paper_ppl"}),
    "plan.replay_melem_per_s": ("Melem/s", {"edge_lone", "wire_bulk",
                                            "kv_decode", "paper_ppl"}),
    "codec.pack_ms_p50": ("ms", {"edge_lone", "wire_bulk"}),
    "codec.verify_ms_p50": ("ms", {"kv_decode"}),
    "codec.fused_frac": ("ratio", {"edge_lone", "wire_bulk", "kv_decode"}),
    "kv.append_server_ms_p50": ("ms", {"kv_decode"}),
    "kv.verify_share": ("ratio", {"kv_decode"}),
    "kv.replay_read_ms": ("ms", {"kv_decode"}),
    "kv.evicted_tokens": ("count", {"kv_decode"}),
    "obs.health_ms_p50": ("ms", {"edge_lone", "wire_bulk", "kv_decode"}),
    "obs.trace_overhead_frac": ("ratio", {"edge_lone", "wire_bulk",
                                          "kv_decode"}),
    "models.calibrate_s": ("s", {"paper_ppl"}),
    "eval.weight_quant_s_per_arm": ("s", {"paper_ppl"}),
    "eval.forward_s_per_arm": ("s", {"paper_ppl"}),
}

HEALTH_CALLS = 32        # timed server_stats() round trips per server
EDGE_PAIRS = 64          # edge-vs-direct request pairs


def trace_env(outdir: str, launch: int) -> dict:
    """The trace knobs, set only in the traced run's system env."""
    return {"REPRO_TRACE": "1",
            "REPRO_TRACE_PATH": os.path.join(outdir, f"trace{launch}.jsonl")}


def _delta(after: dict, before: dict, *path) -> float:
    def get(d):
        for key in path:
            d = (d or {}).get(key, 0)
        return d or 0
    return get(after) - get(before)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


_PROM = re.compile(r'^repro_gateway_replica_requests_total\{replica="([^"]+)"\}'
                   r' (\d+)$', re.M)


def _replica_requests(text: str) -> dict:
    return {name: int(n) for name, n in _PROM.findall(text)}


def _timed(fn, *args, **kwargs) -> float:
    t0 = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - t0


class Probe:
    """Collects counters around the window and replays after it."""

    def __init__(self, wl, outdir: str) -> None:
        self.wl = wl
        self.outdir = outdir
        self.name = wl.name
        self.trace_path = None
        if self.name != "paper_ppl":
            self.trace_path = wl.system.env.get("REPRO_TRACE_PATH")
        self.snap: dict = {}
        self.replay: dict = {}

    # -- counters ------------------------------------------------------
    def _endpoints(self) -> list[tuple[str, int]]:
        if isinstance(self.wl, EdgeLone):
            return [(h, int(p)) for h, _, p in
                    (r.rpartition(":") for r in self.wl.replicas)]
        return [(HOST, self.wl.port)]

    def _server_stats(self) -> list[dict]:
        from repro.server import QuantClient
        out = []
        for host, port in self._endpoints():
            with QuantClient(host, port, timeout=60, retries=0) as cli:
                out.append(cli.server_stats())
        return out

    def _snapshot(self) -> dict:
        if self.name == "paper_ppl":
            return {"stats": [{"metrics": {"plan_cache":
                                           self.wl.plan_cache()}}]}
        snap = {"stats": self._server_stats()}
        if isinstance(self.wl, EdgeLone):
            snap["replicas"] = _replica_requests(self.wl.metrics_text())
        if self.trace_path:
            snap["trace_offset"] = os.path.getsize(self.trace_path) \
                if os.path.exists(self.trace_path) else 0
        return snap

    def before(self) -> None:
        self.snap["before"] = self._snapshot()

    def after(self) -> None:
        self.snap["after"] = self._snapshot()

    def _sum(self, *path) -> float:
        return sum(_delta(a, b, *path) for a, b in
                   zip(self.snap["after"]["stats"],
                       self.snap["before"]["stats"]))

    def _window_traces(self) -> list[dict]:
        if not self.trace_path:
            return []
        with open(self.trace_path, "rb") as f:
            f.seek(self.snap["before"]["trace_offset"])
            raw = f.read(self.snap["after"]["trace_offset"]
                         - self.snap["before"]["trace_offset"])
        lines = []
        for line in raw.splitlines():
            try:
                lines.append(json.loads(line))
            except ValueError:
                pass    # a line still being written at a window edge
        return lines

    # -- replay --------------------------------------------------------
    def _replay_plan(self) -> None:
        """Time the plan layer on the workload's own inputs (second pass;
        the first compiles the plans in this process)."""
        from repro.runner.formats import make_format
        if self.name == "paper_ppl":
            out = self.wl.replay()
            times, elements = out["quantize_s"], out["elements"]
        else:
            calls = []
            for fmt_name, op, x in self._inputs():
                fmt = make_format(fmt_name)
                fn = fmt.quantize_weight if op == "weight" \
                    else fmt.quantize_activation
                calls.append((fn, x))
            for fn, x in calls:
                fn(x, axis=-1)
            times = [_timed(fn, x, axis=-1) for fn, x in calls]
            elements = sum(x.size for _, x in calls)
        self.replay["plan_quantize_ms_p50"] = quantile(times, 0.5) * 1e3
        self.replay["plan_melem_per_s"] = elements / sum(times) / 1e6

    def _inputs(self):
        """(format, op, tensor) per distinct input of the workload."""
        wl = self.wl
        if isinstance(wl, EdgeLone):
            from serving import EDGE_ARMS
            return [(EDGE_ARMS[a][0], "activation", x)
                    for a, x, _, _ in wl.items]
        if isinstance(wl, WireBulk):
            return [(fmt, op, x) for fmt, op, _, x, _ in wl.items]
        from serving import KV_POLICY
        k, v, ops, _, _ = wl.sessions[0]
        out = []
        for op in ops:
            if op[0] == "append":
                _, l, a, b = op
                fmt = KV_POLICY["overrides"].get(str(l), KV_POLICY["default"])
                out += [(fmt, "weight", k[l, a:b]), (fmt, "weight", v[l, a:b])]
        return out

    def _replay_codec(self) -> None:
        from repro.codec import encode
        from repro.runner.formats import make_format
        packed = self._packed_inputs()
        if not packed:
            return
        calls = [(make_format(f), op, x, verify) for f, op, x, verify in packed]
        for fmt, op, x, verify in calls:
            encode(fmt, x, op=op, axis=-1, verify=verify)
        times = [_timed(encode, fmt, x, op=op, axis=-1, verify=verify)
                 for fmt, op, x, verify in calls]
        self.replay["codec_encode_ms_p50"] = quantile(times, 0.5) * 1e3

    def _packed_inputs(self):
        wl = self.wl
        if isinstance(wl, EdgeLone):
            from serving import EDGE_ARMS
            return [(EDGE_ARMS[a][0], "activation", x, False)
                    for a, x, _, _ in wl.items if EDGE_ARMS[a][1]]
        if isinstance(wl, WireBulk):
            return [(f, op, x, False) for f, op, p, x, _ in wl.items if p]
        return [(f, op, x, True) for f, op, x in self._inputs()]

    def _replay_service(self) -> None:
        """``QuantService.submit().result()`` on the workload's inputs,
        lone requests, with the program's tracing off and on in turn."""
        from repro import obs
        from repro.serve import QuantService
        inputs = self._inputs()
        packed = {id(x) for _, _, x, _ in self._packed_inputs()}
        services = {}
        plain, traced = [], []
        old = {k: os.environ.get(k) for k in ("REPRO_TRACE",
                                              "REPRO_TRACE_PATH")}
        os.environ["REPRO_TRACE_PATH"] = os.path.join(self.outdir,
                                                      "replay_trace.jsonl")
        try:
            for rep in range(2):
                for i, (fmt, op, x) in enumerate(inputs):
                    key = (fmt, id(x) in packed)
                    if key not in services:
                        services[key] = QuantService(fmt, packed=key[1])
                    svc = services[key]
                    os.environ["REPRO_TRACE"] = "0"
                    t_plain = _timed(lambda: svc.submit(x, op).result())
                    os.environ["REPRO_TRACE"] = "1"
                    t0 = time.perf_counter()
                    tr = obs.start_trace(i, "quantize", svc.arm)
                    svc.submit(x, op, trace=tr).result()
                    obs.export(tr)
                    t_traced = time.perf_counter() - t0
                    if rep:
                        plain.append(t_plain)
                        traced.append(t_traced)
        finally:
            for svc in services.values():
                svc.close()
            for k, v in old.items():
                if v is None:
                    os.environ.pop(k, None)
                else:
                    os.environ[k] = v
        p50 = quantile(plain, 0.5)
        self.replay["serve_submit_ms_p50"] = p50 * 1e3
        self.replay["trace_overhead_frac"] = \
            (quantile(traced, 0.5) - p50) / p50

    def _replay_kv(self) -> None:
        from repro.kv import KVCacheSession, KVPolicy
        from serving import KV_LAYERS, KV_MAX_TOKENS, KV_POLICY, KV_SINK
        k, v, ops, _, _ = self.wl.sessions[0]
        appends, reads = [], []
        for _ in range(2):
            sess = KVCacheSession(KV_LAYERS, KVPolicy.from_spec(KV_POLICY),
                                  max_tokens=KV_MAX_TOKENS,
                                  sink_tokens=KV_SINK)
            appends = [_timed(sess.append, l, k[l, a:b], v[l, a:b])
                       for _, l, a, b in (o for o in ops
                                          if o[0] == "append")]
            reads = [_timed(sess.read, l) for l in range(KV_LAYERS)]
            sess.close()
        self.replay["kv_append_ms_p50"] = quantile(appends, 0.5) * 1e3
        self.replay["kv_read_ms_p50"] = quantile(reads, 0.5) * 1e3

    def _replay_health(self) -> None:
        from repro.server import QuantClient
        times = []
        for host, port in self._endpoints():
            with QuantClient(host, port, timeout=60, retries=0) as cli:
                times += [_timed(cli.server_stats)
                          for _ in range(HEALTH_CALLS)]
        self.replay["health_ms_p50"] = quantile(times, 0.5) * 1e3

    def _replay_edge_pairs(self) -> None:
        """Edge round trip minus the direct-wire round trip of the same
        request to the replica the gateway routes it to."""
        from repro.server import QuantClient
        from serving import EDGE_ARMS, EDGE_POOL
        wl = self.wl
        owner = {}
        for a in range(len(EDGE_ARMS)):
            before = _replica_requests(wl.metrics_text())
            wl.post(wl.items[a * EDGE_POOL][2])
            after = _replica_requests(wl.metrics_text())
            owner[a] = max(after, key=lambda r: after[r] - before.get(r, 0))
        clients = {}
        try:
            for rep in set(owner.values()):
                host, _, port = rep.rpartition(":")
                clients[rep] = QuantClient(host, int(port), timeout=60,
                                           retries=0).connect()
            diffs = []
            for i in range(EDGE_PAIRS):
                a, x, body, _ = wl.items[wl.order[i]]
                fmt, packed = EDGE_ARMS[a]
                t_edge = _timed(wl.post, body)
                t_wire = _timed(clients[owner[a]].quantize, x, fmt=fmt,
                                packed=packed)
                diffs.append(t_edge - t_wire)
        finally:
            for cli in clients.values():
                cli.close()
        self.replay["edge_minus_wire_ms_p50"] = quantile(diffs, 0.5) * 1e3

    # -- assembly ------------------------------------------------------
    def metrics(self, w, sys_cpu: dict, gen_cpu_s: float) -> dict:
        wl, name = self.wl, self.name
        ops = max(w.ops, 1)
        m: dict[str, float] = {}
        self._replay_plan()
        m["plan.quantize_ms_p50"] = self.replay["plan_quantize_ms_p50"]
        m["plan.replay_melem_per_s"] = self.replay["plan_melem_per_s"]
        hits = self._sum("metrics", "plan_cache", "hits")
        misses = self._sum("metrics", "plan_cache", "misses")
        m["plan.hit_frac"] = _ratio(hits, hits + misses)
        m["plan.compiles"] = self._sum("metrics", "plan_cache", "compiles")
        if name == "paper_ppl":
            m["models.calibrate_s"] = statistics.median(wl.calibrate_s)
            for key, metric in (("wq_s", "eval.weight_quant_s_per_arm"),
                                ("fwd_s", "eval.forward_s_per_arm")):
                per_format: dict = {}
                for fmt, s in w.extra[key]:
                    per_format.setdefault(fmt, []).append(s)
                m[metric] = statistics.mean(
                    statistics.median(v) for v in per_format.values())
            return self._finish(m)

        self._replay_codec()
        self._replay_service()
        self._replay_health()
        pids = wl.system.pids()
        server_pids = wl.server_pids()
        m["server.cpu_ms_per_req"] = sum(
            sys_cpu.get(p, 0.0) for p in server_pids) * 1e3 / ops
        m["client.cpu_ms_per_req"] = gen_cpu_s * 1e3 / ops
        m["server.busy_frac"] = _ratio(self._sum("stats", "busy_rejections"),
                                       self._sum("stats", "requests"))
        m["codec.fused_frac"] = _ratio(
            self._sum("metrics", "codec", "fused_encodes"),
            self._sum("metrics", "codec", "encodes"))
        m["obs.health_ms_p50"] = self.replay["health_ms_p50"]
        m["obs.trace_overhead_frac"] = self.replay["trace_overhead_frac"]

        lines = self._window_traces()
        spans, batch_by_arm, totals = {}, {}, []
        for line in lines:
            for s in line["spans"]:
                spans.setdefault((line["kind"], s["name"]), []).append(
                    s["dur_s"])
                if s["name"] == "batch":
                    batch_by_arm.setdefault(line["arm"], []).append(
                        s["dur_s"])
            totals.append((line["kind"],
                           sum(s["dur_s"] for s in line["spans"])))
        m["serve.queue_ms_p50"] = quantile(
            spans.get(("quantize", "queue"), [])
            + spans.get(("kv_append", "queue"), []), 0.5) * 1e3
        # The collection window only delays the arms that batch: report
        # the p50 of the arm that waits longest.
        m["serve.batch_ms_p50"] = max(
            (quantile(v, 0.5) for v in batch_by_arm.values()),
            default=0.0) * 1e3
        m["codec.pack_ms_p50"] = quantile(
            spans.get(("quantize", "pack"), []), 0.5) * 1e3
        kind = "kv_append" if name == "kv_decode" else "quantize"
        server_total = quantile([t for k, t in totals if k == kind], 0.5)
        m["server.wire_ms_p50"] = \
            (quantile(w.latencies, 0.5) - server_total) * 1e3

        requests = batches = 0
        for a, b in zip(self.snap["after"]["stats"],
                        self.snap["before"]["stats"]):
            for key, svc in a["metrics"].items():
                if key.startswith("serve.") and not key.endswith(".latency"):
                    prev = b["metrics"].get(key, {})
                    requests += (svc["requests"] - svc["weight_cache_hits"]
                                 - prev.get("requests", 0)
                                 + prev.get("weight_cache_hits", 0))
                    batches += svc["batches"] - prev.get("batches", 0)
        m["serve.batch_size_mean"] = _ratio(requests, batches)

        if isinstance(wl, EdgeLone):
            self._replay_edge_pairs()
            m["gateway.self_ms_p50"] = self.replay["edge_minus_wire_ms_p50"]
            m["gateway.cpu_ms_per_req"] = sys_cpu.get(pids[0], 0.0) * 1e3 / ops
            before = self.snap["before"]["replicas"]
            after = self.snap["after"]["replicas"]
            counts = [after[r] - before.get(r, 0) for r in after]
            m["gateway.replica_share_max"] = _ratio(max(counts), sum(counts))
        if isinstance(wl, WireBulk):
            m["serve.weight_memo_hit_frac"] = _ratio(
                self._sum("services", "weight_cache_hits"),
                wl.weight_requests)
        if isinstance(wl, KvDecode):
            self._replay_kv()
            verify = spans.get(("kv_append", "verify"), [])
            encode = sum(sum(spans.get(("kv_append", s), []))
                         for s in ("quantize", "pack", "verify"))
            m["codec.verify_ms_p50"] = quantile(verify, 0.5) * 1e3
            m["kv.verify_share"] = _ratio(sum(verify), encode)
            m["kv.append_server_ms_p50"] = server_total * 1e3
            m["kv.replay_read_ms"] = self.replay["kv_read_ms_p50"]
            m["kv.evicted_tokens"] = wl.close_stats[0]["evicted_tokens"] \
                if wl.close_stats else wl.evicted_per_session
        return self._finish(m)

    def _finish(self, m: dict) -> dict:
        out = {}
        for key, (unit, applies) in PER_LAYER.items():
            if self.name in applies:
                out[key] = {"value": float(m[key]), "unit": unit}
            else:
                out[key] = {"value": 0.0, "unit": unit, "na": True}
        return out
