"""Quantization service over the kernel-dispatched formats.

``QuantService`` is the deployment-shaped entry point for one format.
A request is one tensor, and it runs on the calling thread through one
execution path: the closed check, the stats, the weight memo, the
dispatch pin, the latency histogram and the spans. The paper's
group-wise formats quantize each group on its own, so a request is a
complete unit of work; nothing is gained by holding it for companions.
A caller that must keep its own thread free (the server's event loop)
moves a large request to a worker thread itself, in one hop.

Weight-path requests are memoized per (format fingerprint, kernel
dispatch mode, packed, tensor digest) — the service-side analogue of the
``QuantizedLM`` weight cache — so re-submitting the same weights costs a
hash. :meth:`QuantService.admit` does that lookup apart from the
quantization, so a caller can answer a hit without leaving its thread.

With ``packed=True`` results are :class:`~repro.codec.PackedTensor`
containers instead of dequantized arrays, and :meth:`QuantService.stats`
reports the measured bytes-per-element against the format's nominal EBW
— the number the paper's storage claims are about.

Example::

    from repro.serve import QuantService

    with QuantService("m2xfp") as svc:
        outs = [svc.quantize(x, op="activation") for x in activations]
    # each out == fmt.quantize_activation(x, axis=-1), byte for byte
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from concurrent.futures import Future
from contextlib import nullcontext

import numpy as np

from ..errors import ConfigError
from ..kernels.dispatch import fast_kernels, reference_kernels
from ..mx.base import TensorFormat
from ..obs import current_trace, measured_bits_per_element, \
    metrics_enabled, use_trace
from ..obs import registry as obs_registry

__all__ = ["QuantService", "DISPATCH_MODES"]

_OPS = ("weight", "activation")

#: Kernel dispatch modes a service can pin (``"inherit"`` = the environment).
DISPATCH_MODES = ("inherit", "fast", "reference")


#: The ``inherit`` scope: it pins nothing, so one instance serves all.
_INHERIT = nullcontext()


def _dispatch_scope(mode: str):
    """Execute a request under the service's pinned kernel dispatch mode.

    The pin is thread-scoped (see :mod:`repro.kernels.dispatch`): it
    never changes what a concurrent request or caller sees.
    """
    if mode == "fast":
        return fast_kernels()
    if mode == "reference":
        return reference_kernels()
    return _INHERIT


def _digest(x: np.ndarray) -> str:
    h = hashlib.sha256()
    h.update(str(x.shape).encode())
    h.update(x.tobytes())
    return h.hexdigest()[:24]


class _Request:
    """One admitted request; ``result`` is set on a memo hit or once run."""

    __slots__ = ("x", "op", "trace", "t_start", "key", "result")

    def __init__(self, x: np.ndarray, op: str, trace) -> None:
        self.x = x
        self.op = op
        self.trace = trace      # TraceContext riding with the request
        self.t_start = None     # perf_counter stamp; None when both
                                # metrics and tracing are off
        self.key = None         # weight-memo key (weight requests only)
        self.result = None


class QuantService:
    """Quantize/dequantize (or pack) service for one format.

    Parameters
    ----------
    fmt:
        A :class:`TensorFormat` or a catalog name (``"m2xfp"``).
    packed:
        Return :class:`~repro.codec.PackedTensor` containers instead of
        dequantized arrays, and track measured vs nominal footprint.
    dispatch:
        ``"inherit"`` (default) uses whatever kernel dispatch the
        environment selects at request time; ``"fast"`` / ``"reference"``
        pin the mode for every request this service runs (both are
        bit-identical — the pin is a debugging / serving-contract tool,
        not a semantic switch).
    """

    def __init__(self, fmt: TensorFormat | str, *, packed: bool = False,
                 dispatch: str = "inherit") -> None:
        fmt_name = fmt if isinstance(fmt, str) else type(fmt).__name__.lower()
        if isinstance(fmt, str):
            from ..runner.formats import make_format
            fmt = make_format(fmt)
        if dispatch not in DISPATCH_MODES:
            raise ConfigError(f"dispatch must be one of {DISPATCH_MODES}, "
                              f"got {dispatch!r}")
        self.dispatch = dispatch
        self.fmt = fmt
        #: ``repr(fmt)``, the configuration fingerprint wire requests pin.
        self.fingerprint = repr(fmt)
        self.packed = bool(packed)
        self._lock = threading.Lock()
        # ``batches`` counts executed requests (one request is one
        # batch); memo hits count as requests but execute nothing.
        self._stats = {"requests": 0, "batches": 0, "elements": 0,
                       "weight_cache_hits": 0,
                       "payload_bytes": 0, "header_bytes": 0,
                       "packed_elements": 0, "fused_encodes": 0,
                       "quantize_s": 0.0, "pack_s": 0.0}
        self._weight_cache: dict = {}
        self._closed = False
        # Telemetry: the service registers a zero-overhead collector view
        # of its counters under ``serve.<arm>`` and owns one gated
        # latency histogram (admit -> finish, seconds). Naming scheme
        # per DESIGN.md §12.
        self.arm = (f"{fmt_name}:{dispatch}:"
                    f"{'packed' if self.packed else 'unpacked'}")
        self._registry = obs_registry()
        self._registry.register_collector(f"serve.{self.arm}", self.stats)
        self._latency = self._registry.histogram(f"serve.{self.arm}.latency")

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def quantize(self, x: np.ndarray, op: str = "activation", *,
                 trace=None):
        """Quantize one tensor on the calling thread and return the result
        (a dequantized array, or a ``PackedTensor`` when ``packed=True``).

        ``trace`` attaches a :class:`~repro.obs.TraceContext` for the
        ``queue`` / ``batch`` / ``quantize`` (/ ``pack``) spans; when
        omitted, the calling thread's current trace (if any) is used.
        """
        return self.execute(self.admit(x, op, trace=trace))

    def submit(self, x: np.ndarray, op: str = "activation", *,
               trace=None) -> Future:
        """:meth:`quantize`, returning an already-resolved future that
        holds the result or the quantizer's error. Validation and a
        closed service still raise here."""
        req = self.admit(x, op, trace=trace)
        fut: Future = Future()
        try:
            fut.set_result(self.execute(req))
        except Exception as exc:
            fut.set_exception(exc)
        return fut

    def admit(self, x: np.ndarray, op: str = "activation", *,
              trace=None) -> _Request:
        """Accept one request: validate and count it, and look a weight
        request up in the memo (its ``result`` is set on a hit).
        :meth:`execute` then runs it, on this thread or another."""
        if op not in _OPS:
            raise ConfigError(f"op must be one of {_OPS}, got {op!r}")
        req = _Request(np.asarray(x, dtype=np.float64), op,
                       trace if trace is not None else current_trace())
        if req.trace is not None:
            # The queue span runs from the trace's start (for the server,
            # frame receipt) to execution start.
            req.t_start = req.trace.t0
        elif metrics_enabled():
            req.t_start = time.perf_counter()
        req.key = self._weight_key(req)
        with self._lock:
            if self._closed:
                raise ConfigError(
                    "QuantService is closed; requests are no longer "
                    "accepted")
            self._stats["requests"] += 1
            if req.key is not None:
                req.result = self._weight_cache.get(req.key)
                if req.result is not None:
                    self._stats["weight_cache_hits"] += 1
        return req

    def execute(self, req: _Request):
        """Run an admitted request and return its result (a memo hit
        returns at once)."""
        if req.result is not None:
            return req.result
        if req.trace is not None:
            # One request is one batch, so batch formation takes no time.
            t_exec = time.perf_counter()
            req.trace.add_span("queue", req.t_start, t_exec)
            req.trace.add_span("batch", t_exec, t_exec)
        with _dispatch_scope(self.dispatch):
            result = self._quantize(req)
        with self._lock:
            if req.key is not None:
                self._weight_cache[req.key] = result
            self._stats["batches"] += 1
            self._stats["elements"] += req.x.size
        if req.t_start is not None:
            self._latency.observe(time.perf_counter() - req.t_start)
        req.result = result
        return result

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
        """Refuse further requests and drop the registry views
        (idempotent). A request admitted before still runs."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
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
        """True when this service's requests run the reference kernels.

        ``"inherit"`` follows the environment alone. A request run inside
        a caller's own dispatch scope may compute in the other mode; the
        two are bit-identical, so the memo holds the same bytes.
        """
        if self.dispatch == "inherit":
            from ..kernels.dispatch import REFERENCE_ENV
            return os.environ.get(REFERENCE_ENV, "0") == "1"
        return self.dispatch == "reference"

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _quantize(self, req: _Request):
        if self.packed:
            from ..codec import collect_encode_stats, encode
            # use_trace binds the request's context on the executing
            # thread so the codec's stage timers can attach
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
