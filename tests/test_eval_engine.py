"""The single-pass eval engine must be pure amortization.

Engine-vs-per-cell equality (bitwise, via ``repr`` of the float cells,
against a cell-by-cell evaluation built here), sharing behaviour
(wrappers and perplexities reused across grids), and the bounded
runtime LRU.
"""

from __future__ import annotations

from repro.core.m2xfp import M2XFP
from repro.eval.engine import EvalEngine, default_engine, reset_default_engine
from repro.eval.harness import accuracy_table
from repro.eval.perplexity import perplexity_table, quantized_perplexity
from repro.eval.tasks import (ZERO_SHOT_TASKS, TaskSpec, build_task_items,
                              evaluate_format_on_task)
from repro.models import profiles
from repro.models.profiles import RUNTIME_CACHE_SIZE, load_runtime
from repro.models.quantized import QuantizedLM
from repro.mx import MXFP4

_PROFILE = "llama2-7b"
_SMALL = dict(n_seq=2, seq_len=24)


def _formats():
    return {"mxfp4": MXFP4(), "m2xfp": M2XFP()}


def _per_cell_perplexity(formats):
    """The perplexity grid cell by cell: a fresh wrapper per cell."""
    runtime = load_runtime(_PROFILE, **_SMALL)
    grid = {"fp16": {_PROFILE: runtime.fp16_ppl}}
    for name, fmt in formats.items():
        qlm = QuantizedLM(runtime.model, fmt,
                          calibration_tokens=runtime.calib_tokens)
        grid[name] = {_PROFILE: qlm.perplexity(runtime.tokens)}
    return grid


def _per_cell_accuracy(tasks, targets, formats):
    """The accuracy grid cell by cell: fresh items and wrapper per cell."""
    runtime = load_runtime(_PROFILE, **_SMALL)
    grid = {"fp16": {}, **{name: {} for name in formats}}
    for task_name, spec in tasks.items():
        items = build_task_items(runtime, spec)
        target = targets[task_name]
        grid["fp16"][task_name] = evaluate_format_on_task(runtime, items,
                                                          None, target)
        for name, fmt in formats.items():
            grid[name][task_name] = evaluate_format_on_task(runtime, items,
                                                            fmt, target)
    return grid


class TestEngineEquality:
    def test_perplexity_table_matches_per_cell(self):
        reset_default_engine()
        engine_grid = perplexity_table([_PROFILE], _formats(), **_SMALL)
        assert repr(engine_grid) == repr(_per_cell_perplexity(_formats()))

    def test_accuracy_table_matches_per_cell(self):
        reset_default_engine()
        tasks = {"arc-e": ZERO_SHOT_TASKS["arc-e"],
                 "piqa": ZERO_SHOT_TASKS["piqa"]}
        targets = {"arc-e": 74.58, "piqa": 79.11}
        engine_grid = accuracy_table(_PROFILE, tasks, targets, _formats(),
                                     **_SMALL)
        per_cell = _per_cell_accuracy(tasks, targets, _formats())
        assert repr(engine_grid) == repr(per_cell)

    def test_quantized_perplexity_routes_through_engine(self):
        reset_default_engine()
        runtime = load_runtime(_PROFILE, **_SMALL)
        first = quantized_perplexity(runtime, M2XFP())
        before = default_engine().stats()
        second = quantized_perplexity(runtime, M2XFP())
        after = default_engine().stats()
        assert second == first
        assert after["ppl_hits"] == before["ppl_hits"] + 1


class TestEngineSharing:
    def test_wrapper_shared_across_grids(self):
        engine = EvalEngine()
        runtime = load_runtime(_PROFILE, **_SMALL)
        w1 = engine.wrapper(runtime, M2XFP())
        w2 = engine.wrapper(runtime, M2XFP())
        assert w1 is w2
        stats = engine.stats()
        assert stats["wrapper_builds"] == 1 and stats["wrapper_hits"] == 1

    def test_task_items_built_once(self):
        engine = EvalEngine()
        runtime = load_runtime(_PROFILE, **_SMALL)
        spec = TaskSpec("tiny", n_choices=2, n_items=4, context_len=6,
                        cont_len=3, seed=9)
        i1 = engine.task_items(runtime, spec)
        i2 = engine.task_items(runtime, spec)
        assert i1 is i2
        assert engine.stats()["items_builds"] == 1

    def test_different_rules_are_distinct_arms(self):
        engine = EvalEngine()
        runtime = load_runtime(_PROFILE, **_SMALL)
        a = engine.perplexity(runtime, M2XFP(scale_rule="floor"))
        b = engine.perplexity(runtime, M2XFP(scale_rule="ceil"))
        assert a != b
        assert engine.stats()["ppl_evals"] == 2

    def test_fp16_row_is_free(self):
        from repro.models.quantized import Fp16Format

        engine = EvalEngine()
        runtime = load_runtime(_PROFILE, **_SMALL)
        assert engine.perplexity(runtime, Fp16Format()) == runtime.fp16_ppl
        assert engine.stats()["ppl_evals"] == 0


class TestRuntimeLRU:
    def test_cache_is_bounded(self):
        load_runtime(_PROFILE, **_SMALL)
        sentinel = profiles._RUNTIME_CACHE[(_PROFILE, 2, 24)]
        snapshot = dict(profiles._RUNTIME_CACHE)
        try:
            for i in range(RUNTIME_CACHE_SIZE + 3):
                profiles._RUNTIME_CACHE[("fake", i, i)] = sentinel
                if len(profiles._RUNTIME_CACHE) > RUNTIME_CACHE_SIZE:
                    profiles._RUNTIME_CACHE.popitem(last=False)
            load_runtime(_PROFILE, **_SMALL)
            assert len(profiles._RUNTIME_CACHE) <= RUNTIME_CACHE_SIZE + 1
        finally:
            # Restore (not clear): other tests rely on the identity of
            # runtimes their session fixtures already loaded.
            profiles.clear_runtime_cache()
            profiles._RUNTIME_CACHE.update(snapshot)

    def test_repeated_load_is_cached(self):
        r1 = load_runtime(_PROFILE, **_SMALL)
        r2 = load_runtime(_PROFILE, **_SMALL)
        assert r1 is r2
