"""Batched quantization service over the kernel-dispatched formats.

``QuantService`` is the deployment-shaped entry point the ROADMAP's
"serves heavy traffic" goal asks for: callers ``submit()`` tensors and
get futures back, a collector thread micro-batches compatible requests
(same operand path, same reduction width) into one kernel-dispatched
quantization pass, and an optional thread pool overlaps independent
batches (NumPy releases the GIL inside the hot loops). ``run_inline()``
quantizes one tensor on the caller's own thread through the same
per-group code, for callers to whom the thread hop costs more than the
batching saves (the server's small requests). Batching is
work-conserving (iteration-level scheduling, as in Orca): a batch is
whatever queued while the previous batch ran, and nothing waits on a
timer, so a lone request costs its compute and no more. Group-wise
formats quantize each group independently, so stacking requests row-wise
is *bit-identical* to quantizing them one by one — the batching is a
pure throughput move, asserted in ``tests/test_serve.py``. Tensor-scoped
formats (NVFP4 / M2-NVFP4, whose tensor-level scale depends on the whole
input) are detected and never cross-batched.

Weight-path requests are memoized per (format fingerprint, kernel
dispatch mode, tensor digest) — the service-side analogue of the
``QuantizedLM`` weight cache — so re-submitting the same weights costs a
hash.

With ``packed=True`` results are :class:`~repro.codec.PackedTensor`
containers instead of dequantized arrays, and :meth:`QuantService.stats`
reports the measured bytes-per-element against the format's nominal EBW
— the number the paper's storage claims are about.

Example::

    from repro.serve import QuantService

    with QuantService("m2xfp", max_batch=32) as svc:
        futs = [svc.submit(x, op="activation") for x in activations]
        outs = [f.result() for f in futs]          # == per-tensor quantize
    svc.stats()["batches"]                          # « len(activations)
"""

from __future__ import annotations

import hashlib
import os
import queue
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import nullcontext

import numpy as np

from ..core.m2xfp import M2NVFP4
from ..errors import ConfigError
from ..mx.base import TensorFormat
from ..mx.max_preserve import MaxPreserving
from ..mx.nvfp import NVFP4
from ..obs import current_trace, measured_bits_per_element, \
    metrics_enabled, use_trace
from ..obs import registry as obs_registry

__all__ = ["QuantService", "DISPATCH_MODES"]

_OPS = ("weight", "activation")

#: Kernel dispatch modes a service can pin (``"inherit"`` = the environment).
DISPATCH_MODES = ("inherit", "fast", "reference")


def _dispatch_scope(mode: str):
    """Execute a batch under the service's pinned kernel dispatch mode.

    The pin is thread-scoped (see :mod:`repro.kernels.dispatch`): it
    never changes what a concurrent batch or caller sees.
    """
    from ..kernels.dispatch import fast_kernels, reference_kernels
    if mode == "fast":
        return fast_kernels()
    if mode == "reference":
        return reference_kernels()
    return nullcontext()


def _tensor_scoped(fmt) -> bool:
    """True when quantization depends on whole-tensor state (no batching)."""
    if isinstance(fmt, (NVFP4, M2NVFP4)):
        return True
    if isinstance(fmt, MaxPreserving):
        return _tensor_scoped(fmt.inner)
    return False


def _digest(x: np.ndarray) -> str:
    h = hashlib.sha256()
    h.update(str(x.shape).encode())
    h.update(x.tobytes())
    return h.hexdigest()[:24]


class _Request:
    __slots__ = ("x", "op", "future", "trace", "t_enqueue", "t_dequeue")

    def __init__(self, x: np.ndarray, op: str, future: Future) -> None:
        self.x = x
        self.op = op
        self.future = future
        self.trace = None       # TraceContext riding with the request
        self.t_enqueue = None   # perf_counter stamps; None when both
        self.t_dequeue = None   # metrics and tracing are off


class QuantService:
    """Micro-batching quantize/dequantize (or pack) service for one format.

    Parameters
    ----------
    fmt:
        A :class:`TensorFormat` or a catalog name (``"m2xfp"``).
    packed:
        Return :class:`~repro.codec.PackedTensor` containers instead of
        dequantized arrays, and track measured vs nominal footprint.
    max_batch:
        Micro-batch size limit. The collector blocks for one request,
        then adds only what is already queued, up to ``max_batch``
        requests; it never waits for companions.
    workers:
        ``> 0`` processes batches on a thread pool of that size;
        ``0`` (default) processes them on the collector thread. The
        collector hands batches to the pool without blocking, so a
        pool batch holds only what queued during the hand-off.
    dispatch:
        ``"inherit"`` (default) uses whatever kernel dispatch the
        environment selects at batch time; ``"fast"`` / ``"reference"``
        pin the mode for every batch this service runs (both are
        bit-identical — the pin is a debugging / serving-contract tool,
        not a semantic switch).
    """

    def __init__(self, fmt: TensorFormat | str, *, packed: bool = False,
                 max_batch: int = 64, workers: int = 0,
                 dispatch: str = "inherit") -> None:
        fmt_name = fmt if isinstance(fmt, str) else type(fmt).__name__.lower()
        if isinstance(fmt, str):
            from ..runner.formats import make_format
            fmt = make_format(fmt)
        if max_batch < 1:
            raise ConfigError("max_batch must be >= 1")
        if dispatch not in DISPATCH_MODES:
            raise ConfigError(f"dispatch must be one of {DISPATCH_MODES}, "
                              f"got {dispatch!r}")
        self.dispatch = dispatch
        self.fmt = fmt
        #: ``repr(fmt)``, the configuration fingerprint wire requests pin.
        self.fingerprint = repr(fmt)
        self.packed = bool(packed)
        self.max_batch = int(max_batch)
        self._batchable = not (_tensor_scoped(fmt) or self.packed)
        self._queue: queue.Queue[_Request | None] = queue.Queue()
        self._pool = ThreadPoolExecutor(max_workers=workers) if workers else None
        self._lock = threading.Lock()
        self._stats = {"requests": 0, "batches": 0, "batched_requests": 0,
                       "elements": 0, "weight_cache_hits": 0,
                       "payload_bytes": 0, "header_bytes": 0,
                       "packed_elements": 0, "fused_encodes": 0,
                       "quantize_s": 0.0, "pack_s": 0.0}
        self._weight_cache: dict = {}
        self._closed = False
        # Telemetry: the service registers a zero-overhead collector view
        # of its counters under ``serve.<arm>`` and owns one gated
        # latency histogram (submit -> finish, seconds). Naming scheme
        # per DESIGN.md §12.
        self.arm = (f"{fmt_name}:{dispatch}:"
                    f"{'packed' if self.packed else 'unpacked'}")
        self._registry = obs_registry()
        self._registry.register_collector(f"serve.{self.arm}", self.stats)
        self._latency = self._registry.histogram(f"serve.{self.arm}.latency")
        self._collector = threading.Thread(target=self._collect_loop,
                                           name="quant-service", daemon=True)
        self._collector.start()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def submit(self, x: np.ndarray, op: str = "activation", *,
               trace=None) -> Future:
        """Enqueue one tensor; the future resolves to the quantized result
        (a dequantized array, or a ``PackedTensor`` when ``packed=True``).

        ``trace`` attaches a :class:`~repro.obs.TraceContext` so the
        collector can attribute queue/batch/quantize spans to the
        request; when omitted, the calling thread's current trace (if
        any) is picked up. An explicit kwarg exists because servers
        submit via ``asyncio.to_thread``, which hops threads and loses
        the thread-local.
        """
        return self._accept(x, op, trace, inline=False)

    def run_inline(self, x: np.ndarray, op: str = "activation", *,
                   trace=None):
        """Quantize one tensor on the calling thread and return the result.

        The request skips the queue, so it never batches, but otherwise
        takes the collector's own path: the closed check, the stats, the
        weight memo, the dispatch pin, the latency histogram and the
        spans. A traced request's ``queue`` span runs from the trace's
        start (for the server, frame receipt) to execution start.
        """
        return self._accept(x, op, trace, inline=True).result()

    def _accept(self, x, op: str, trace, *, inline: bool) -> Future:
        if op not in _OPS:
            raise ConfigError(f"op must be one of {_OPS}, got {op!r}")
        fut: Future = Future()
        req = _Request(np.asarray(x, dtype=np.float64), op, fut)
        req.trace = trace if trace is not None else current_trace()
        if req.trace is not None:
            req.t_enqueue = req.trace.t0 if inline else time.perf_counter()
        elif metrics_enabled():
            req.t_enqueue = time.perf_counter()
        cached = self._weight_lookup(req)
        # The closed-check and the enqueue are atomic against close(), so
        # a request either lands ahead of the shutdown sentinel (and is
        # processed) or raises — a future can never be left unresolved.
        with self._lock:
            if self._closed:
                raise ConfigError(
                    "QuantService is closed; submit() is no longer accepted")
            if cached is None and not inline \
                    and not self._collector.is_alive():
                raise ConfigError(
                    "QuantService collector thread has died; the service "
                    "cannot process new requests — create a fresh one")
            self._stats["requests"] += 1
            if cached is not None:
                self._stats["weight_cache_hits"] += 1
            elif not inline:
                self._queue.put(req)
        if cached is not None:
            fut.set_result(cached)
        elif inline:
            self._process_group(("solo", id(req)), [req])
        return fut

    def quantize(self, x: np.ndarray, op: str = "activation"):
        """Synchronous single-tensor path (submit + wait on one future).

        The request runs as soon as the collector is free: it batches
        only with requests already queued, and never waits for more.
        """
        return self.submit(x, op).result()

    def quantize_batch(self, tensors, op: str = "activation") -> list:
        """Submit many tensors at once and wait for all results."""
        futures = [self.submit(x, op) for x in tensors]
        return [f.result() for f in futures]

    def stats(self) -> dict:
        """Counters, plus measured-vs-nominal footprint when packing."""
        with self._lock:
            out = dict(self._stats)
        mbpe = measured_bits_per_element(out["payload_bytes"],
                                         out["packed_elements"])
        if mbpe is not None:
            out["measured_bits_per_element"] = mbpe
        out["nominal_bits_per_element"] = {
            "weight": self.fmt.weight_ebw,
            "activation": self.fmt.activation_ebw,
        }
        return out

    def close(self) -> None:
        """Drain the queue, stop the collector, release the pool.

        Every accepted future is resolved before this returns: normally
        with its result (the collector processes everything ahead of the
        shutdown sentinel), or — if the collector died — with a
        :class:`ConfigError`. ``close()`` never hangs and never strands
        a waiter.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            # Enqueued under the same lock as submit(): every accepted
            # request sits ahead of this sentinel.
            self._queue.put(None)
        self._collector.join()
        if self._pool is not None:
            self._pool.shutdown(wait=True)
        # A dead collector leaves its queue (and sentinel) behind; error
        # the stranded futures instead of letting callers wait forever.
        self._drain_queue()
        self._registry.unregister_collector(f"serve.{self.arm}")
        self._registry.unregister_metric(f"serve.{self.arm}.latency")

    def __enter__(self) -> "QuantService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Weight memoization
    # ------------------------------------------------------------------
    def _weight_key(self, req: _Request):
        if req.op != "weight":
            return None
        fmt_key = self.fmt.weight_cache_key
        if fmt_key is None:
            return None
        return (fmt_key, self._uses_reference(), self.packed, _digest(req.x))

    def _uses_reference(self) -> bool:
        """True when this service's batches run the reference kernels.

        Batches run on service threads, outside any caller's dispatch
        scope, so ``"inherit"`` follows the environment alone. An inline
        request inside a caller's scope may compute in the other mode;
        the two are bit-identical, so the memo holds the same bytes.
        """
        if self.dispatch == "inherit":
            from ..kernels.dispatch import REFERENCE_ENV
            return os.environ.get(REFERENCE_ENV, "0") == "1"
        return self.dispatch == "reference"

    def _weight_lookup(self, req: _Request):
        """Cached result for a weight request (stats counted by submit)."""
        key = self._weight_key(req)
        if key is None:
            return None
        with self._lock:
            return self._weight_cache.get(key)

    def _weight_store(self, req: _Request, result) -> None:
        key = self._weight_key(req)
        if key is not None:
            with self._lock:
                self._weight_cache[key] = result

    # ------------------------------------------------------------------
    # Collector / execution
    # ------------------------------------------------------------------
    def _collect_loop(self) -> None:
        batch: list[_Request] = []
        try:
            while True:
                req = self._queue.get()
                if req is None:
                    return
                batch = [req]
                # Work-conserving: the batch is whatever queued while the
                # previous one ran. Nothing waits for companions, so a
                # lone request runs as soon as it is dequeued.
                stopping = False
                while len(batch) < self.max_batch:
                    try:
                        nxt = self._queue.get_nowait()
                    except queue.Empty:
                        break
                    if nxt is None:
                        stopping = True
                        break
                    batch.append(nxt)
                t_dequeue = time.perf_counter()
                for r in batch:
                    if r.t_enqueue is not None:
                        r.t_dequeue = t_dequeue
                self._run_batch(batch)
                batch = []
                if stopping:
                    return
        finally:
            # On any exit — clean shutdown or a crash in batch dispatch —
            # no accepted future may be left pending: error whatever this
            # thread was holding plus everything still queued.
            self._drain_requests(batch)
            self._drain_queue()

    def _drain_requests(self, reqs: list[_Request]) -> None:
        """Resolve still-pending futures with a shutdown error."""
        for req in reqs:
            if not req.future.done():
                req.future.set_exception(ConfigError(
                    "QuantService shut down before this request was "
                    "processed"))

    def _drain_queue(self) -> None:
        """Error every request still sitting in the intake queue."""
        leftovers: list[_Request] = []
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is not None:
                leftovers.append(item)
        self._drain_requests(leftovers)

    def _run_batch(self, batch: list[_Request]) -> None:
        groups: dict = {}
        for req in batch:
            key = (req.op, req.x.shape[-1] if req.x.ndim else 0) \
                if self._batchable and req.x.ndim >= 1 else ("solo", id(req))
            groups.setdefault(key, []).append(req)
        for key, reqs in groups.items():
            if self._pool is not None:
                self._pool.submit(self._process_group, key, reqs)
            else:
                self._process_group(key, reqs)

    def _process_group(self, key, reqs: list[_Request]) -> None:
        try:
            if any(r.trace is not None for r in reqs):
                t_exec = time.perf_counter()
                for req in reqs:
                    if req.trace is None:
                        continue
                    # Queue wait (enqueue -> dequeue) and batch formation
                    # (dequeue -> execution start), per the span schema.
                    t_deq = req.t_dequeue or t_exec
                    req.trace.add_span("queue", req.t_enqueue, t_deq)
                    req.trace.add_span("batch", t_deq, t_exec)
            with _dispatch_scope(self.dispatch):
                if key[0] in _OPS and len(reqs) > 1:
                    self._process_stacked(reqs, op=key[0])
                else:
                    for req in reqs:
                        self._finish(req, self._quantize_one(req))
            with self._lock:
                self._stats["batches"] += 1
                self._stats["elements"] += sum(r.x.size for r in reqs)
        except BaseException as exc:  # surface on every waiting future
            for req in reqs:
                if not req.future.done():
                    req.future.set_exception(exc)

    def _process_stacked(self, reqs: list[_Request], op: str) -> None:
        """One kernel pass over row-stacked requests (bit-exact split)."""
        width = reqs[0].x.shape[-1]
        mats = [r.x.reshape(-1, width) for r in reqs]
        rows = np.cumsum([m.shape[0] for m in mats])[:-1]
        stacked = np.concatenate(mats, axis=0)
        fn = (self.fmt.quantize_weight if op == "weight"
              else self.fmt.quantize_activation)
        traced = [r for r in reqs if r.trace is not None]
        t0 = time.perf_counter() if traced else 0.0
        out = fn(stacked, axis=-1)
        if traced:
            t1 = time.perf_counter()
            for req in traced:  # one kernel pass covers the whole stack
                req.trace.add_span("quantize", t0, t1)
        with self._lock:
            self._stats["batched_requests"] += len(reqs)
        for req, part in zip(reqs, np.split(out, rows, axis=0)):
            self._finish(req, part.reshape(req.x.shape))

    def _quantize_one(self, req: _Request):
        if self.packed:
            from ..codec import collect_encode_stats, encode
            # use_trace rebinds the request's context on this (collector
            # or pool) thread so the codec's stage timers can attach
            # quantize/pack/verify spans to the right request.
            with use_trace(req.trace), collect_encode_stats() as es:
                pt = encode(self.fmt, req.x, op=req.op, axis=-1)
            with self._lock:
                self._stats["payload_bytes"] += pt.payload_bytes
                self._stats["header_bytes"] += pt.header_bytes
                self._stats["packed_elements"] += pt.n_elements
                self._stats["fused_encodes"] += es["fused_encodes"]
                self._stats["quantize_s"] += es["quantize_s"]
                self._stats["pack_s"] += es["pack_s"]
            return pt
        fn = (self.fmt.quantize_weight if req.op == "weight"
              else self.fmt.quantize_activation)
        if req.trace is not None:
            with req.trace.span("quantize"):
                return fn(req.x, axis=-1)
        return fn(req.x, axis=-1)

    def _finish(self, req: _Request, result) -> None:
        self._weight_store(req, result)
        req.future.set_result(result)
        if req.t_enqueue is not None:
            self._latency.observe(time.perf_counter() - req.t_enqueue)
