"""Batched quantization service: batching is invisible, caching is real.

The contract under test: whatever mix of ``submit`` calls arrives, every
future resolves to *exactly* the tensor the format's own quantizer would
produce for that request alone — micro-batching, the thread pool and the
weight memo are pure throughput moves. Plus the ``REPRO_PACKED_WEIGHTS``
storage mode of ``QuantizedLM``: packed weights decode bit-exactly, so
NLL/perplexity are unchanged while the resident footprint shrinks by the
format's EBW ratio.
"""

from __future__ import annotations

import os
import queue
import threading
import types

import numpy as np
import pytest

from repro.algos import MXOliVe
from repro.codec import PackedTensor
from repro.errors import ConfigError, FormatError
from repro.kernels.dispatch import (fast_kernels, reference_kernels,
                                    use_reference)
from repro.models.quantized import QuantizedLM
from repro.runner.formats import make_format
from repro.serve import QuantService
from repro.serve.service import _dispatch_scope, _tensor_scoped


@pytest.fixture()
def tensors(rng):
    return [rng.standard_normal((3 + i % 4, 64)) * (1 + i) for i in range(12)]


def _hold_first_batch(svc, monkeypatch):
    """Gate ``svc``'s first batch: returns (entered, release) events.

    The collector sits inside its first ``_run_batch`` until ``release``
    is set, so whatever is submitted meanwhile queues up and forms the
    next batch: coalescing by construction, not by scheduling luck.
    """
    entered, release = threading.Event(), threading.Event()
    run_batch = svc._run_batch

    def gated(batch):
        if not entered.is_set():
            entered.set()
            assert release.wait(timeout=30)
        run_batch(batch)

    monkeypatch.setattr(svc, "_run_batch", gated)
    return entered, release


def test_batched_results_equal_per_tensor_quantize(tensors, monkeypatch):
    fmt = make_format("m2xfp")
    with QuantService(fmt, max_batch=32) as svc:
        entered, release = _hold_first_batch(svc, monkeypatch)
        futs = [svc.submit(tensors[0], op="activation")]
        assert entered.wait(timeout=30)
        futs += [svc.submit(x, op="activation") for x in tensors[1:]]
        release.set()
        outs = [f.result(timeout=30) for f in futs]
        stats = svc.stats()
    for x, out in zip(tensors, outs):
        assert out.tobytes() == fmt.quantize_activation(x, axis=-1).tobytes()
    # The requests really were coalesced, not processed one by one.
    assert stats["batched_requests"] >= 2
    assert stats["batches"] < stats["requests"]


def test_weight_path_batched_and_exact(tensors):
    fmt = make_format("sg-em")
    with QuantService(fmt, max_batch=32) as svc:
        outs = svc.quantize_batch(tensors, op="weight")
    for x, out in zip(tensors, outs):
        assert out.tobytes() == fmt.quantize_weight(x, axis=-1).tobytes()


def test_tensor_scoped_formats_never_cross_batch(rng):
    # NVFP4's tensor-level scale depends on the whole input: stacking two
    # tensors would change both results. The service must keep them apart.
    assert _tensor_scoped(make_format("nvfp4"))
    assert _tensor_scoped(make_format("m2-nvfp4"))
    assert not _tensor_scoped(make_format("m2xfp"))
    fmt = make_format("nvfp4")
    xs = [rng.standard_normal((4, 64)), rng.standard_normal((4, 64)) * 1000]
    with QuantService(fmt, max_batch=8) as svc:
        outs = svc.quantize_batch(xs, op="activation")
        stats = svc.stats()
    for x, out in zip(xs, outs):
        assert out.tobytes() == fmt.quantize_activation(x, axis=-1).tobytes()
    assert stats["batched_requests"] == 0


def test_thread_pool_path(tensors):
    fmt = make_format("mxfp4")
    with QuantService(fmt, max_batch=4, workers=2) as svc:
        outs = svc.quantize_batch(tensors, op="activation")
    for x, out in zip(tensors, outs):
        assert out.tobytes() == fmt.quantize(x, axis=-1).tobytes()


class _RecordingQueue(queue.Queue):
    """An intake queue that logs every ``get`` as (block, timeout)."""

    def __init__(self) -> None:
        super().__init__()
        self.calls: list[tuple] = []

    def get(self, block=True, timeout=None):
        self.calls.append((block, timeout))
        return super().get(block, timeout)


def test_lone_request_is_not_held(rng, monkeypatch):
    # Work-conserving collection: the collector blocks (untimed) only
    # for the first request of a batch, then takes what is already
    # queued without blocking. A timed wait for companions would show
    # up here as a blocking get with a timeout.
    from repro.serve import service as service_mod
    monkeypatch.setattr(service_mod, "queue", types.SimpleNamespace(
        Queue=_RecordingQueue, Empty=queue.Empty))
    fmt = make_format("m2xfp")
    with QuantService(fmt, max_batch=32) as svc:
        assert svc._batchable
        entered, release = _hold_first_batch(svc, monkeypatch)
        first = svc.submit(rng.standard_normal((2, 64)))
        assert entered.wait(timeout=30)
        queued = [svc.submit(rng.standard_normal((2, 64)))
                  for _ in range(3)]
        release.set()
        for fut in [first, *queued]:
            fut.result(timeout=30)
        for _ in range(3):  # lone requests, one at a time
            svc.quantize(rng.standard_normal((2, 64)))
        calls = list(svc._queue.calls)
        stats = svc.stats()
    assert all(timeout is None for _, timeout in calls), calls
    # A batch is one blocking get plus non-blocking drains; a lone
    # request's batch ends at the first empty drain.
    assert calls.count((True, None)) >= 5
    assert (False, None) in calls
    assert stats["batches"] == 5  # first, the three queued, three lone
    assert stats["batched_requests"] == 3


def test_weight_cache_hits(rng):
    w = rng.standard_normal((16, 64))
    with QuantService("sg-em") as svc:
        a = svc.quantize(w, op="weight")
        b = svc.quantize(w, op="weight")
        c = svc.run_inline(w, op="weight")   # one memo for both paths
        assert a.tobytes() == b.tobytes() == c.tobytes()
        assert svc.stats()["weight_cache_hits"] == 2


def test_packed_mode_returns_containers_with_footprint(rng):
    with QuantService("m2xfp", packed=True) as svc:
        pt = svc.quantize(rng.standard_normal((8, 96)), op="weight")
        stats = svc.stats()
    assert isinstance(pt, PackedTensor)
    assert stats["measured_bits_per_element"] == pytest.approx(4.5, abs=0.2)
    assert stats["nominal_bits_per_element"]["weight"] == pytest.approx(4.5)


def test_errors_propagate_through_futures():
    with QuantService("mxfp4") as svc:
        fut = svc.submit(np.array([[np.nan] * 32]))
        with pytest.raises(FormatError):
            fut.result(timeout=10)
        with pytest.raises(FormatError):
            svc.run_inline(np.array([[np.nan] * 32]))


def test_submit_validation(rng):
    svc = QuantService("mxfp4")
    for call in (svc.submit, svc.run_inline):
        with pytest.raises(ConfigError):
            call(rng.standard_normal(8), op="nope")
    svc.close()
    for call in (svc.submit, svc.run_inline):
        with pytest.raises(ConfigError, match="closed"):
            call(rng.standard_normal(8))
    svc.close()  # idempotent


# ----------------------------------------------------------------------
# Lifecycle hardening: close() drains, dead collectors never hang callers
# ----------------------------------------------------------------------
def test_close_resolves_every_accepted_future(rng):
    # A burst of submissions followed by an immediate close: every future
    # must resolve with its real result (close drains, never drops).
    fmt = make_format("mxfp4")
    svc = QuantService(fmt, max_batch=4)
    xs = [rng.standard_normal((2, 64)) for _ in range(16)]
    futs = [svc.submit(x) for x in xs]
    svc.close()
    for x, fut in zip(xs, futs):
        assert fut.done(), "close() returned with a future still pending"
        assert fut.result(timeout=0).tobytes() == \
            fmt.quantize(x, axis=-1).tobytes()


@pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnhandledThreadExceptionWarning")
def test_collector_crash_errors_futures_and_close_never_hangs(rng,
                                                              monkeypatch):
    svc = QuantService("mxfp4")
    monkeypatch.setattr(svc, "_run_batch",
                        lambda batch: (_ for _ in ()).throw(
                            RuntimeError("collector crash")))
    fut = svc.submit(rng.standard_normal((2, 32)))
    svc._collector.join(timeout=30)
    assert not svc._collector.is_alive()
    # The crashed collector drained its batch on the way out...
    with pytest.raises(ConfigError, match="shut down"):
        fut.result(timeout=30)
    # ...submit() into the dead collector refuses instead of enqueueing
    # into a queue nothing reads...
    with pytest.raises(ConfigError, match="died"):
        svc.submit(rng.standard_normal((2, 32)))
    # ...and close() returns promptly instead of waiting forever.
    svc.close()


@pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnhandledThreadExceptionWarning")
def test_close_drains_queue_left_by_dead_collector(rng, monkeypatch):
    # A request that reaches the queue after the collector died (the
    # submit/death race) must be errored by close(), not stranded.
    svc = QuantService("mxfp4")
    monkeypatch.setattr(svc, "_run_batch",
                        lambda batch: (_ for _ in ()).throw(
                            RuntimeError("collector crash")))
    svc.submit(rng.standard_normal((2, 32)))  # kills the collector
    svc._collector.join(timeout=30)
    from repro.serve.service import _Request
    from concurrent.futures import Future as _F
    stranded = _F()
    svc._queue.put(_Request(rng.standard_normal((2, 32)), "activation",
                            stranded))
    svc.close()
    assert stranded.done()
    with pytest.raises(ConfigError, match="shut down"):
        stranded.result(timeout=0)
    assert svc._queue.empty()  # fully drained, sentinel included


def test_pinned_dispatch_modes_are_bit_identical_and_namespaced(rng):
    # A service pinned to any dispatch mode returns the same bits (the
    # kernel parity contract) while keying its weight memo on the mode.
    w = rng.standard_normal((8, 64))
    outs = {}
    for mode in ("inherit", "fast", "reference"):
        with QuantService("sg-em", dispatch=mode) as svc:
            outs[mode] = svc.quantize(w, op="weight").tobytes()
            key = svc._weight_key(
                __import__("repro.serve.service", fromlist=["_Request"])
                ._Request(w, "weight", None))
            assert len(key) == 4
            if mode != "inherit":
                assert key[1] == (mode == "reference")
    assert len(set(outs.values())) == 1
    for bad in ("warp-speed", "bittwiddle"):
        with pytest.raises(ConfigError, match="dispatch"):
            QuantService("mxfp4", dispatch=bad)


@pytest.mark.parametrize("mode", ["reference", "fast"])
def test_dispatch_pins_are_thread_scoped(mode, monkeypatch):
    # A pin on one thread (a reference arm, a KV session) must never be
    # observed by a concurrent unpinned thread, and no scope may touch
    # the process environment. The environment is set to the opposite
    # mode so a leaked pin is visible either way.
    pinned_ref = mode == "reference"
    monkeypatch.setenv("REPRO_REFERENCE_KERNELS", "0" if pinned_ref else "1")
    env_before = {k: v for k, v in os.environ.items()
                  if k.startswith("REPRO_")}
    kernels = reference_kernels if pinned_ref else fast_kernels
    for scope in (kernels, lambda: _dispatch_scope(mode)):
        entered, release = threading.Event(), threading.Event()
        seen = []

        def pinned():
            with scope():
                seen.append(use_reference())
                entered.set()
                release.wait(timeout=10)
                seen.append(use_reference())

        t = threading.Thread(target=pinned)
        t.start()
        try:
            assert entered.wait(timeout=10)
            assert use_reference() is not pinned_ref, \
                "a pin leaked across threads"
            assert {k: v for k, v in os.environ.items()
                    if k.startswith("REPRO_")} == env_before
        finally:
            release.set()
            t.join(timeout=10)
        assert not t.is_alive()
        assert seen == [pinned_ref, pinned_ref]
    assert use_reference() is not pinned_ref


# ----------------------------------------------------------------------
# QuantizedLM packed-weight storage (REPRO_PACKED_WEIGHTS=1)
# ----------------------------------------------------------------------
def test_quantized_lm_packed_weights_bit_exact(rt_small, monkeypatch):
    fmt = make_format("m2xfp")
    tokens = rt_small.tokens[:2, :24]
    monkeypatch.delenv("REPRO_PACKED_WEIGHTS", raising=False)
    dense = QuantizedLM(rt_small.model, fmt)
    assert not dense.packed_weights
    nll_dense = dense.nll(tokens)
    monkeypatch.setenv("REPRO_PACKED_WEIGHTS", "1")
    packed = QuantizedLM(rt_small.model, fmt)
    assert packed.packed_weights
    nll_packed = packed.nll(tokens)
    assert nll_packed == nll_dense
    fp = packed.weight_footprint()
    # ~4.5-bit containers vs 64-bit float storage, headers included.
    assert fp["bits_per_element"] < 8.0
    assert fp["total_bytes"] * 10 < fp["dense_float64_bytes"]
    assert dense.weight_footprint()["bits_per_element"] == 64.0


def test_quantized_lm_packed_keeps_subclass_formats_dense(rt_small,
                                                         monkeypatch):
    # MX-OliVe subclasses BlockFormat but quantizes differently; the
    # block codec's streams cannot hold its output, so the knob must
    # leave its weights dense rather than pack the wrong values.
    fmt = MXOliVe()
    tokens = rt_small.tokens[:2, :24]
    monkeypatch.delenv("REPRO_PACKED_WEIGHTS", raising=False)
    nll_dense = QuantizedLM(rt_small.model, fmt).nll(tokens)
    monkeypatch.setenv("REPRO_PACKED_WEIGHTS", "1")
    packed = QuantizedLM(rt_small.model, fmt)
    assert not packed.packed_weights
    assert packed.nll(tokens) == nll_dense


def test_quantized_lm_packed_cache_namespaced(rt_small, monkeypatch):
    # Dense and packed arms share the model-level cache dict but must not
    # serve each other's entries.
    fmt = make_format("mxfp4")
    monkeypatch.setenv("REPRO_PACKED_WEIGHTS", "1")
    packed = QuantizedLM(rt_small.model, fmt)
    monkeypatch.delenv("REPRO_PACKED_WEIGHTS")
    dense = QuantizedLM(rt_small.model, fmt)
    w_packed = packed._weights["l0.wq"]
    w_dense = dense._weights["l0.wq"]
    assert isinstance(w_packed, PackedTensor)
    assert isinstance(w_dense, np.ndarray)
    assert packed._weight("l0.wq").tobytes() == w_dense.tobytes()
