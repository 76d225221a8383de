"""Quantization service: every request is exact, caching is real.

The contract under test: whatever mix of ``submit`` / ``quantize`` calls
arrives, every result is *exactly* the tensor the format's own quantizer
would produce for that request alone — the weight memo is a pure
throughput move. Plus the ``REPRO_PACKED_WEIGHTS`` storage mode of
``QuantizedLM``: packed weights decode bit-exactly, so NLL/perplexity
are unchanged while the resident footprint shrinks by the format's EBW
ratio.
"""

from __future__ import annotations

import os
import threading

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
from repro.plan import tensor_scoped
from repro.serve.service import _dispatch_scope


@pytest.fixture()
def tensors(rng):
    return [rng.standard_normal((3 + i % 4, 64)) * (1 + i) for i in range(12)]


def test_batched_results_equal_per_tensor_quantize(tensors):
    fmt = make_format("m2xfp")
    with QuantService(fmt) as svc:
        futs = [svc.submit(x, op="activation") for x in tensors]
        outs = [f.result(timeout=30) for f in futs]
        stats = svc.stats()
    for x, out in zip(tensors, outs):
        assert out.tobytes() == fmt.quantize_activation(x, axis=-1).tobytes()
    # One request is one batch.
    assert stats["requests"] == stats["batches"] == len(tensors)


def test_weight_path_batched_and_exact(tensors):
    fmt = make_format("sg-em")
    with QuantService(fmt) as svc:
        outs = [svc.quantize(x, op="weight") for x in tensors]
    for x, out in zip(tensors, outs):
        assert out.tobytes() == fmt.quantize_weight(x, axis=-1).tobytes()


def test_tensor_scoped_formats_never_cross_batch(rng):
    # NVFP4's tensor-level scale depends on the whole input: stacking two
    # tensors would change both results, so each request keeps its own.
    assert tensor_scoped(make_format("nvfp4"))
    assert tensor_scoped(make_format("m2-nvfp4"))
    assert not tensor_scoped(make_format("m2xfp"))
    fmt = make_format("nvfp4")
    xs = [rng.standard_normal((4, 64)), rng.standard_normal((4, 64)) * 1000]
    with QuantService(fmt) as svc:
        outs = [svc.quantize(x, op="activation") for x in xs]
    for x, out in zip(xs, outs):
        assert out.tobytes() == fmt.quantize_activation(x, axis=-1).tobytes()


def test_weight_cache_hits(rng):
    w = rng.standard_normal((16, 64))
    with QuantService("sg-em") as svc:
        a = svc.quantize(w, op="weight")
        b = svc.submit(w, op="weight").result(timeout=0)
        hit = svc.admit(w, op="weight")      # the lookup alone answers
        assert hit.result is not None
        c = svc.execute(hit)
        assert a.tobytes() == b.tobytes() == c.tobytes()
        stats = svc.stats()
    assert stats["weight_cache_hits"] == 2
    assert stats["requests"] == 3 and stats["batches"] == 1


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
            svc.quantize(np.array([[np.nan] * 32]))


def test_submit_validation(rng):
    svc = QuantService("mxfp4")
    for call in (svc.submit, svc.quantize, svc.admit):
        with pytest.raises(ConfigError):
            call(rng.standard_normal(8), op="nope")
    svc.close()
    for call in (svc.submit, svc.quantize, svc.admit):
        with pytest.raises(ConfigError, match="closed"):
            call(rng.standard_normal(8))
    svc.close()  # idempotent


def test_close_resolves_every_accepted_future(rng):
    # A burst of submissions followed by an immediate close: every future
    # holds its real result (a request runs before submit returns).
    fmt = make_format("mxfp4")
    svc = QuantService(fmt)
    xs = [rng.standard_normal((2, 64)) for _ in range(16)]
    futs = [svc.submit(x) for x in xs]
    svc.close()
    for x, fut in zip(xs, futs):
        assert fut.done(), "close() returned with a future still pending"
        assert fut.result(timeout=0).tobytes() == \
            fmt.quantize(x, axis=-1).tobytes()


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
