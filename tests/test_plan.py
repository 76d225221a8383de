"""Compiled quantization plans: parity, cache semantics, env hygiene.

The plan layer's whole contract is "bit-identical, just faster":

* every catalog format's plan-routed ``quantize_weight`` /
  ``quantize_activation`` must equal the reference kernels bit for bit
  over adversarial tensors (denormals, huge/mixed magnitudes, padding,
  odd axes);
* the bisected decision thresholds must reproduce the reference grid
  search on *non-dyadic* grids (where the midpoint-boundary cache
  provably cannot);
* the plan cache must key on configuration fingerprint, operand path,
  shape and axis, stay out of reference dispatch, stay bounded, and
  survive concurrent use;
* a warmed ``QuantizedLM`` forward pass must read ``os.environ``
  exactly zero times, and a served request or KV append a pinned
  number of times.
"""

from __future__ import annotations

import os
import threading

import numpy as np
import pytest

from repro.algos.mant import MANT_TYPES
from repro.core import ElemEM, SgEM
from repro.core.m2xfp import M2XFP
from repro.errors import FormatError
from repro.formats.floatspec import quantize_to_grid_reference
from repro.kernels.dispatch import reference_kernels
from repro.kernels.lut import compiled_thresholds, threshold_codes
from repro.kernels.search import _CHUNK_ELEMS
from repro.kv import KVCacheSession, KVPolicy
from repro.models.profiles import load_runtime
from repro.models.quantized import QuantizedLM
from repro.plan import (MAX_PLANS, QuantPlan, clear_plan_cache, get_plan,
                        lookup_plan, plan_cache_stats)
from repro.runner.formats import FORMAT_REGISTRY, make_format
from repro.serve import QuantService

_RNG = np.random.default_rng(7)

#: 32-element groups per row chunk of the Sg search engine on its
#: 12-candidate (3 biases x 4 inner) grids.
_SG_CHUNK_GROUPS = _CHUNK_ELEMS // (12 * 32)


def _adversarial_tensors() -> dict[str, np.ndarray]:
    r = np.random.default_rng(11)
    return {
        "normal": r.standard_normal((23, 96)),
        "outliers": r.standard_normal((8, 64)) * np.exp(4 * r.standard_normal((8, 64))),
        "denormal": r.standard_normal((4, 64)) * 5e-310,
        "mixed": np.where(r.random((6, 64)) < 0.5,
                          r.standard_normal((6, 64)) * 1e6,
                          r.standard_normal((6, 64)) * 1e-150),
        "huge": r.standard_normal((4, 64)) * 1e300,
        "zeros": np.zeros((3, 64)),
        "padded": r.standard_normal((5, 50)),
        "three_d": r.standard_normal((3, 7, 64)),
        # 2.5 Sg chunks: two full, a partial last one.
        "multi_chunk": r.standard_normal((5 * _SG_CHUNK_GROUPS // 2, 32)),
        # A subnormal row and an E8M0-edge row in later chunks: either
        # sends the whole multi-chunk call to the exact fallback.
        "multi_chunk_fallback": np.vstack([
            r.standard_normal((_SG_CHUNK_GROUPS, 32)),
            r.standard_normal((1, 32)) * 1e-310,
            r.standard_normal((_SG_CHUNK_GROUPS, 32)),
            r.standard_normal((1, 32)) * 1e40,
            r.standard_normal((_SG_CHUNK_GROUPS // 2, 32))]),
    }


class TestPlanParity:
    # Squared errors of the +-1e300 groups overflow to inf on purpose
    # (``hierarchical_select`` handles it); no path may warn about it.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name", sorted(FORMAT_REGISTRY))
    def test_catalog_plan_matches_reference(self, name):
        fmt = make_format(name)
        for tensor in _adversarial_tensors().values():
            for op in ("weight", "activation"):
                fn = fmt.quantize_weight if op == "weight" \
                    else fmt.quantize_activation
                fast = fn(tensor, axis=-1)
                with reference_kernels():
                    ref = fn(tensor, axis=-1)
                assert fast.tobytes() == ref.tobytes(), (name, op)
                # Every catalog format compiles a plan; its run is the
                # reference output even where the entry point does not
                # route through it (the max-preserving wrapper's
                # overrides).
                plan = get_plan(fmt, op, tensor.shape, -1)
                assert plan.run(tensor).tobytes() == ref.tobytes(), \
                    (name, op)

    def test_axis_zero_parity(self):
        x = _RNG.standard_normal((64, 9))
        for name in ("mxfp4", "elem-em", "sg-em", "m2xfp"):
            fmt = make_format(name)
            fast = fmt.quantize_weight(x, axis=0)
            with reference_kernels():
                ref = fmt.quantize_weight(x, axis=0)
            assert fast.tobytes() == ref.tobytes(), name

    def test_non_finite_raises_same_error(self):
        x = _RNG.standard_normal((4, 64))
        x[2, 10] = np.nan
        fmt = make_format("elem-em")
        with pytest.raises(FormatError, match="non-finite"):
            fmt.quantize_activation(x, axis=-1)
        y = _RNG.standard_normal((4, 64))
        y[0, 0] = -np.inf
        with pytest.raises(FormatError, match="non-finite"):
            make_format("sg-em").quantize_activation(y, axis=-1)


class TestCompiledThresholds:
    @pytest.mark.parametrize("typ", [t for t in MANT_TYPES if hasattr(t, "grid")])
    def test_thresholds_match_reference_search(self, typ):
        grid = typ.grid
        t = compiled_thresholds(grid)
        probes = np.concatenate([
            np.random.default_rng(3).uniform(0, float(grid[-1]) * 1.5, 4000),
            t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf),
            grid, np.array([0.0, 5e-324, 1e-300, float(grid[-1]) * 10]),
        ])
        ref = quantize_to_grid_reference(probes, grid)
        got = np.asarray(threshold_codes(t, probes), dtype=np.int64)
        assert np.array_equal(ref, got), typ.name


class TestPlanCache:
    def setup_method(self):
        clear_plan_cache()

    def test_modes_never_share_plans(self):
        fmt = make_format("elem-em")
        shape = (8, 64)
        x = np.zeros(shape)
        fast = lookup_plan(fmt, "activation", x, -1)
        assert isinstance(fast, QuantPlan)
        # Reference dispatch never plans and never touches the cache.
        before = plan_cache_stats()
        with reference_kernels():
            assert lookup_plan(fmt, "activation", x, -1) is None
        assert plan_cache_stats() == before
        assert get_plan(fmt, "activation", shape, -1) is fast

    def test_fingerprint_keying(self):
        shape = (8, 64)
        floor = get_plan(SgEM(scale_rule="floor"), "weight", shape, -1)
        ceil = get_plan(SgEM(scale_rule="ceil"), "weight", shape, -1)
        assert floor is not ceil
        # Same configuration from a fresh instance shares the entry.
        assert get_plan(SgEM(scale_rule="floor"), "weight", shape, -1) is floor

    def test_fingerprint_walked_once_per_instance(self, monkeypatch):
        """``weight_cache_key`` (a recursive attribute walk) runs on an
        instance's first ``get_plan`` only; a fresh instance walks again,
        and an unfingerprintable format stays unplannable."""
        from repro.mx.base import TensorFormat
        walks = []
        real = TensorFormat.weight_cache_key

        def counted(self):
            walks.append(type(self).__name__)
            return real.fget(self)

        monkeypatch.setattr(TensorFormat, "weight_cache_key",
                            property(counted))
        fmt = make_format("mxfp4")
        plan = get_plan(fmt, "activation", (2, 32), -1)
        assert walks == ["BlockFormat"]
        assert get_plan(fmt, "activation", (2, 32), -1) is plan
        assert get_plan(fmt, "weight", (4, 64), -1) is not None
        assert walks == ["BlockFormat"]
        assert get_plan(make_format("mxfp4"), "activation", (2, 32),
                        -1) is plan
        assert walks == ["BlockFormat"] * 2
        odd = make_format("mxfp4")
        odd.tag = object()              # not fingerprintable
        assert get_plan(odd, "activation", (2, 32), -1) is None
        assert get_plan(odd, "activation", (2, 32), -1) is None
        assert walks == ["BlockFormat"] * 3

    def test_ops_get_distinct_plans(self):
        fmt = M2XFP()
        w = get_plan(fmt, "weight", (8, 64), -1)
        a = get_plan(fmt, "activation", (8, 64), -1)
        assert w is not a  # Sg-EM weights vs Elem-EM activations

    def test_bounded_eviction(self):
        fmt = make_format("mxfp4")
        for i in range(MAX_PLANS + 40):
            get_plan(fmt, "activation", (2, 32 + i), -1)
        stats = plan_cache_stats()
        assert stats["entries"] <= MAX_PLANS
        assert stats["evictions"] >= 40

    def test_thread_safety_under_concurrent_submits(self):
        from repro.serve import QuantService

        clear_plan_cache()
        rng = np.random.default_rng(5)
        tensors = [rng.standard_normal((4 + (i % 7), 64)) for i in range(48)]
        results: list = [None] * len(tensors)
        with QuantService("m2xfp") as svc:
            # 4 caller threads share one service and the plan cache.
            def caller(first: int) -> None:
                for i in range(first, len(tensors), 4):
                    results[i] = svc.quantize(tensors[i], op="activation")

            callers = [threading.Thread(target=caller, args=(t,))
                       for t in range(4)]
            for t in callers:
                t.start()
            for t in callers:
                t.join()
        with reference_kernels():
            fmt = make_format("m2xfp")
            expected = [fmt.quantize_activation(x, axis=-1) for x in tensors]
        for got, want in zip(results, expected):
            assert got.tobytes() == want.tobytes()
        errors: list[Exception] = []

        def hammer(seed: int) -> None:
            try:
                r = np.random.default_rng(seed)
                fmt = make_format("elem-em")
                for i in range(30):
                    shape = (2 + (seed + i) % 5, 64)
                    x = r.standard_normal(shape)
                    plan = get_plan(fmt, "activation", x.shape, -1)
                    out = plan.run(x)
                    assert out.shape == x.shape
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(s,)) for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert plan_cache_stats()["entries"] <= MAX_PLANS


class _EnvSpy(dict):
    """An ``os.environ`` stand-in that counts every read."""

    def __init__(self, real):
        super().__init__(real)
        self.reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.reads += 1
        return super().get(key, default)

    def __contains__(self, key):
        self.reads += 1
        return super().__contains__(key)


class TestEnvHygiene:
    def test_forward_performs_zero_environ_reads(self, monkeypatch):
        """The QuantizedLM projection path resolves all flags at init."""
        runtime = load_runtime("llama2-7b", n_seq=2, seq_len=24)
        qlm = QuantizedLM(runtime.model, M2XFP(),
                          calibration_tokens=runtime.calib_tokens)
        tokens = runtime.tokens[:, :16]
        qlm.forward(tokens)  # warm the per-shape plan cache
        spy = _EnvSpy(os.environ)
        monkeypatch.setattr(os, "environ", spy)
        qlm.forward(tokens)
        assert spy.reads == 0

    def test_forward_zero_reads_covers_elem_and_block_formats(self, monkeypatch):
        runtime = load_runtime("llama2-7b", n_seq=2, seq_len=24)
        tokens = runtime.tokens[:, :16]
        for fmt in (ElemEM(), make_format("mxfp4")):
            qlm = QuantizedLM(runtime.model, fmt,
                              calibration_tokens=runtime.calib_tokens)
            qlm.forward(tokens)
            spy = _EnvSpy(os.environ)
            monkeypatch.setattr(os, "environ", spy)
            qlm.forward(tokens)
            monkeypatch.undo()
            assert spy.reads == 0, type(fmt).__name__

    # Per request: the metrics gate is read once per process, so a
    # dense request reads only the dispatch mode at plan lookup, and a
    # packed one nothing (encode looks its plan up under either mode);
    # weights add the memo key's dispatch mode (one key serves lookup
    # and store).
    @pytest.mark.parametrize("packed, op, reads", [
        (False, "activation", 1), (True, "activation", 0),
        (False, "weight", 2), (True, "weight", 1)])
    def test_service_request_environ_reads(self, monkeypatch, packed, op,
                                           reads):
        rng = np.random.default_rng(3)
        svc = QuantService("m2xfp", packed=packed)
        svc.quantize(rng.standard_normal((4, 64)), op=op)
        x = rng.standard_normal((4, 64))
        spy = _EnvSpy(os.environ)
        monkeypatch.setattr(os, "environ", spy)
        try:
            svc.quantize(x, op=op)
        finally:
            monkeypatch.undo()
            svc.close()
        assert spy.reads == reads

    # Per append: none. The codec's metrics gate is read once per
    # process, and encode reads no dispatch mode (it packs from plan
    # codes under either mode); m2xfp and the tensor-scoped nvfp4 alike
    # encode K and V as one stacked block.
    @pytest.mark.parametrize("name, reads", [("m2xfp", 0), ("nvfp4", 0)])
    def test_kv_append_environ_reads(self, monkeypatch, name, reads):
        rng = np.random.default_rng(4)
        sess = KVCacheSession(2, KVPolicy(name), max_tokens=64,
                              sink_tokens=2, verify=True)
        sess.append(0, rng.standard_normal((1, 32)),
                    rng.standard_normal((1, 32)))
        k, v = rng.standard_normal((2, 1, 32))
        spy = _EnvSpy(os.environ)
        monkeypatch.setattr(os, "environ", spy)
        try:
            sess.append(0, k, v)
        finally:
            monkeypatch.undo()
            sess.close()
        assert spy.reads == reads
