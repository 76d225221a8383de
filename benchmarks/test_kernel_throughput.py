"""Kernel throughput micro-benchmarks (elements/sec per format).

Small, fast-running pytest-benchmark cases so every suite run leaves a
throughput trace per format, plus an opt-in regression gate
(``REPRO_BENCH_REGRESSION=1``, listed in the README's environment-knob
table) that re-runs the full kernel benchmark and compares speedups
against the committed ``BENCH_kernels.json``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import ElemEM, M2NVFP4, SgEE, SgEM
from repro.formats.registry import FP4_E2M1
from repro.kernels import fast_kernels, reference_kernels
from repro.mx import MXFP4, NVFP4

_RNG = np.random.default_rng(42)
_ACT = _RNG.standard_normal((128, 2048))
_WEIGHT = _RNG.standard_normal((512, 512))


def _throughput(benchmark, fn, elements: int) -> None:
    benchmark.pedantic(fn, rounds=3, iterations=1)
    benchmark.extra_info["elements_per_sec"] = elements / benchmark.stats["min"]


def test_fp4_encode_throughput(benchmark):
    x = _ACT.ravel()
    _throughput(benchmark, lambda: FP4_E2M1.encode(x), x.size)


def test_mxfp4_throughput(benchmark):
    _throughput(benchmark, lambda: MXFP4().quantize(_ACT, axis=-1), _ACT.size)


def test_nvfp4_throughput(benchmark):
    _throughput(benchmark, lambda: NVFP4().quantize(_ACT, axis=-1), _ACT.size)


def test_elem_em_throughput(benchmark):
    _throughput(benchmark,
                lambda: ElemEM().quantize_activation(_ACT, axis=-1),
                _ACT.size)


def test_sg_em_adaptive_throughput(benchmark):
    _throughput(benchmark,
                lambda: SgEM(adaptive=True).quantize_weight(_WEIGHT, axis=-1),
                _WEIGHT.size)


def test_sg_ee_adaptive_throughput(benchmark):
    _throughput(benchmark,
                lambda: SgEE(adaptive=True).quantize_weight(_WEIGHT, axis=-1),
                _WEIGHT.size)


def test_m2nvfp4_weight_throughput(benchmark):
    _throughput(benchmark,
                lambda: M2NVFP4().quantize_weight(_WEIGHT, axis=-1),
                _WEIGHT.size)


def test_sg_em_fast_beats_reference():
    """Cheap inline sanity check that the weight plan actually engages."""
    import time

    def _timed(fn):
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0

    def best_of(fn, reps=3):
        fn()  # warm caches
        return min(_timed(fn) for _ in range(reps))

    w = _RNG.standard_normal((1024, 32))
    fmt = SgEM(adaptive=True)
    with reference_kernels():
        ref = fmt.quantize_weight(w, axis=-1)
        t_ref = best_of(lambda: fmt.quantize_weight(w, axis=-1))
    with fast_kernels():
        fast = fmt.quantize_weight(w, axis=-1)
        t_fast = best_of(lambda: fmt.quantize_weight(w, axis=-1))
    assert fast.tobytes() == ref.tobytes()
    # Conservative bound: the recorded speedup is ~5-9x; anything under
    # 1.5x on warmed best-of-3 timings means the plan silently stopped
    # dispatching.
    assert t_fast < t_ref / 1.5


@pytest.mark.skipif(os.environ.get("REPRO_BENCH_REGRESSION", "0") != "1",
                    reason="opt-in: export REPRO_BENCH_REGRESSION=1")
def test_no_kernel_throughput_regression():
    """Full fresh benchmark vs the committed BENCH_kernels.json."""
    root = Path(__file__).resolve().parent.parent
    baseline = root / "BENCH_kernels.json"
    assert baseline.exists(), "no committed BENCH_kernels.json baseline"
    sys.path.insert(0, str(root / "scripts"))
    try:
        from check_bench_regression import run_check
        assert run_check(str(baseline), None, threshold=0.2, quick=False) == 0
    finally:
        sys.path.pop(0)


@pytest.mark.skipif(os.environ.get("REPRO_BENCH_REGRESSION", "0") != "1",
                    reason="opt-in: export REPRO_BENCH_REGRESSION=1")
@pytest.mark.parametrize("suite,baseline_name,module", [
    ("codec", "BENCH_codec.json", "bench_codec"),
    ("eval", "BENCH_eval.json", "bench_eval"),
    ("server", "BENCH_server.json", "bench_server"),
    ("kv", "BENCH_kv.json", "bench_kv"),
])
def test_no_bench_suite_regression(suite, baseline_name, module):
    """Quick fresh codec/eval/server/kv benchmarks vs committed baselines.

    Quick mode shrinks tensors and profiles, so the loosened threshold
    below absorbs the extra noise while still catching a silently
    disabled fast path (those regressions are 2-10x, not 40%).
    """
    root = Path(__file__).resolve().parent.parent
    baseline = root / baseline_name
    assert baseline.exists(), f"no committed {baseline_name} baseline"
    sys.path.insert(0, str(root / "scripts"))
    try:
        from check_bench_regression import run_check
        assert run_check(str(baseline), None, threshold=0.4, quick=True,
                         bench_module=module, suite=suite) == 0
    finally:
        sys.path.pop(0)
