"""Single-pass multi-format evaluation engine (the Tbl. 2/3/4/6/8 path).

The paper's headline tables are grids of many formats x profiles x
tasks. Evaluated cell by cell, every perplexity rebuilds a
``QuantizedLM`` wrapper (with its calibration forward), every accuracy
cell rebuilds task items, and nothing is shared between experiments
evaluating the same (profile, format) pair. The engine makes the whole
grid single-pass, and it is the only evaluation path:

* **runtimes** load once through the bounded keyed LRU over
  :func:`repro.models.profiles.load_runtime` (calibration is seconds
  per profile — by far the dominant fixed cost);
* **wrappers** (``QuantizedLM``) are cached per (profile corpus,
  format fingerprint, dispatch mode, storage mode) and shared across
  perplexity and every task of every experiment in the process —
  offline weight quantization and activation calibration happen once
  per arm;
* **task items** (contexts, choices, teacher scores — the fp16
  reference pass) are built once per (profile corpus, task spec) and
  shared across all format arms; gold labels are derived once per task
  and reused, exactly as the per-call reseeded RNG would;
* **perplexities** are memoized per arm, so ``tbl8``'s floor-rule
  cells reuse ``tbl3``'s measurements in the same session;
* every sequence batch goes through the transformer in one
  ``(n_seq, seq_len)`` forward (``score_items`` stacks all items of a
  task; the perplexity corpus is a single batch by construction).

Everything the engine returns is **bit-identical** to a per-cell
evaluation: wrappers, items and gold labels are deterministic functions
of the runtime and format, so sharing them is pure amortization.
``tests/test_eval_engine.py`` asserts equality against a per-cell
evaluation built in the test (``QuantizedLM(...).perplexity`` and
:func:`repro.eval.tasks.evaluate_format_on_task`).

Example::

    from repro.eval.engine import default_engine

    eng = default_engine()
    grid = eng.perplexity_grid(["llama2-7b"], {"m2xfp": M2XFP()})
    eng.stats()["wrapper_hits"]
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict

import numpy as np

from ..models.profiles import ProfileRuntime, load_runtime
from ..models.quantized import PACKED_WEIGHTS_ENV, Fp16Format, QuantizedLM
from ..mx.base import TensorFormat
from .tasks import TaskItems, TaskSpec, accuracy, build_task_items, gold_labels, score_items

__all__ = ["EvalEngine", "default_engine", "reset_default_engine"]


class EvalEngine:
    """Shared-state evaluator for multi-format grids.

    All caches are bounded LRUs guarded by one lock; entries key on the
    runtime identity (profile key, corpus shape, and the runtime object
    itself, pinned by the entry) plus — for format-dependent state —
    the format's configuration fingerprint and the kernel
    dispatch/storage mode, the same discipline as the ``QuantizedLM``
    weight cache.
    """

    def __init__(self, max_wrappers: int = 32, max_memo: int = 2048,
                 max_task_items: int = 128) -> None:
        self.max_wrappers = int(max_wrappers)
        self.max_memo = int(max_memo)
        self.max_task_items = int(max_task_items)
        self._wrappers: OrderedDict = OrderedDict()
        self._ppl: OrderedDict = OrderedDict()
        self._items: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self._stats = {"runtime_requests": 0, "runtime_loads": 0,
                       "wrapper_builds": 0,
                       "wrapper_hits": 0, "ppl_evals": 0, "ppl_hits": 0,
                       "items_builds": 0, "items_hits": 0}
        # Last engine constructed wins the registry slot — in practice
        # that is the process-wide default_engine().
        from ..obs import registry as obs_registry
        obs_registry().register_collector("eval.engine", self.stats)

    # ------------------------------------------------------------------
    # Cache plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _corpus_key(runtime: ProfileRuntime) -> tuple:
        # The runtime's id() is part of the key, and every cache entry
        # holds a reference to its runtime (see _lru_put), so the id
        # cannot be recycled while the entry lives. This makes a
        # hand-built or modified ProfileRuntime with the same profile
        # and corpus shape a *different* arm, never a silent cache hit.
        return (runtime.profile.key, runtime.tokens.shape, id(runtime))

    @staticmethod
    def _mode_key() -> tuple:
        from ..kernels.dispatch import use_reference
        return (use_reference(),
                os.environ.get(PACKED_WEIGHTS_ENV, "0") == "1")

    def _arm_key(self, runtime: ProfileRuntime, fmt: TensorFormat):
        fingerprint = fmt.weight_cache_key
        if fingerprint is None:
            return None
        return (self._corpus_key(runtime), fingerprint, self._mode_key())

    def _lru_get(self, cache: OrderedDict, key, hit_stat: str):
        with self._lock:
            if key in cache:
                cache.move_to_end(key)
                self._stats[hit_stat] += 1
                return cache[key][0]
        return None

    def _lru_put(self, cache: OrderedDict, key, value, runtime,
                 limit: int) -> None:
        # The runtime rides along so the id() in the key stays pinned.
        with self._lock:
            cache[key] = (value, runtime)
            cache.move_to_end(key)
            if len(cache) > limit:
                cache.popitem(last=False)

    # ------------------------------------------------------------------
    # Shared building blocks
    # ------------------------------------------------------------------
    def runtime(self, profile_key: str, n_seq: int | None = None,
                seq_len: int | None = None) -> ProfileRuntime:
        """A calibrated runtime via the bounded ``load_runtime`` LRU.

        ``runtime_loads`` counts actual calibrations (LRU misses), not
        calls — the number that demonstrates the amortization.
        """
        from ..models import profiles as _profiles
        from ..models.profiles import get_profile
        profile = get_profile(profile_key)
        cache_key = (profile_key, n_seq or profile.n_eval_seq,
                     seq_len or profile.seq_len)
        miss = cache_key not in _profiles._RUNTIME_CACHE
        with self._lock:
            self._stats["runtime_requests"] += 1
            if miss:
                self._stats["runtime_loads"] += 1
        return load_runtime(profile_key, n_seq=n_seq, seq_len=seq_len)

    def wrapper(self, runtime: ProfileRuntime, fmt: TensorFormat) -> QuantizedLM:
        """The (cached) ``QuantizedLM`` arm for ``(runtime, fmt)``."""
        key = self._arm_key(runtime, fmt)
        if key is not None:
            hit = self._lru_get(self._wrappers, key, "wrapper_hits")
            if hit is not None:
                return hit
        qlm = QuantizedLM(runtime.model, fmt,
                          calibration_tokens=runtime.calib_tokens)
        with self._lock:
            self._stats["wrapper_builds"] += 1
        if key is not None:
            self._lru_put(self._wrappers, key, qlm, runtime,
                          self.max_wrappers)
        return qlm

    def task_items(self, runtime: ProfileRuntime, spec: TaskSpec) -> TaskItems:
        """Task items (incl. the fp16 teacher pass), built once per corpus."""
        key = (self._corpus_key(runtime), spec)
        hit = self._lru_get(self._items, key, "items_hits")
        if hit is not None:
            return hit
        items = build_task_items(runtime, spec)
        with self._lock:
            self._stats["items_builds"] += 1
        self._lru_put(self._items, key, items, runtime, self.max_task_items)
        return items

    # ------------------------------------------------------------------
    # Perplexity (Tbl. 3 / 6 / 8)
    # ------------------------------------------------------------------
    def perplexity(self, runtime: ProfileRuntime, fmt: TensorFormat) -> float:
        """Memoized quantized perplexity of one (profile, format) arm."""
        if isinstance(fmt, Fp16Format):
            return runtime.fp16_ppl
        key = self._arm_key(runtime, fmt)
        if key is not None:
            hit = self._lru_get(self._ppl, key, "ppl_hits")
            if hit is not None:
                return hit
        ppl = self.wrapper(runtime, fmt).perplexity(runtime.tokens)
        with self._lock:
            self._stats["ppl_evals"] += 1
        if key is not None:
            self._lru_put(self._ppl, key, ppl, runtime, self.max_memo)
        return ppl

    def perplexity_grid(self, profile_keys: list[str],
                        formats: dict[str, TensorFormat],
                        n_seq: int | None = None,
                        seq_len: int | None = None
                        ) -> dict[str, dict[str, float]]:
        """The ``perplexity_table`` grid, single-pass per profile."""
        table: dict[str, dict[str, float]] = {"fp16": {}}
        for name in formats:
            table[name] = {}
        for key in profile_keys:
            runtime = self.runtime(key, n_seq=n_seq, seq_len=seq_len)
            table["fp16"][key] = runtime.fp16_ppl
            for name, fmt in formats.items():
                table[name][key] = self.perplexity(runtime, fmt)
        return table

    # ------------------------------------------------------------------
    # Task accuracy (Tbl. 2 / 4)
    # ------------------------------------------------------------------
    def accuracy_grid(self, profile_key: str, tasks: dict[str, TaskSpec],
                      fp16_targets: dict[str, float],
                      formats: dict[str, TensorFormat],
                      n_seq: int | None = None,
                      seq_len: int | None = None
                      ) -> dict[str, dict[str, float]]:
        """The ``accuracy_table`` grid with all shared state hoisted.

        Gold labels are derived once per task from the same freshly
        reseeded RNG ``evaluate_format_on_task`` uses per cell, and each
        format's wrapper scores every task — construction and calibration run
        once per format instead of once per (task, format) cell.
        """
        runtime = self.runtime(profile_key, n_seq=n_seq, seq_len=seq_len)
        table: dict[str, dict[str, float]] = {"fp16": {}}
        for name in formats:
            table[name] = {}
        for task_name, spec in tasks.items():
            items = self.task_items(runtime, spec)
            target = fp16_targets[task_name] / 100.0
            rng = np.random.default_rng(spec.seed * 31337
                                        + runtime.profile.seed)
            gold = gold_labels(items, target, rng)
            table["fp16"][task_name] = accuracy(items.teacher_scores, gold)
            for name, fmt in formats.items():
                qlm = self.wrapper(runtime, fmt)
                scores = score_items(qlm.forward, items.contexts, items.choices)
                table[name][task_name] = accuracy(scores, gold)
        return table

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Counters plus current cache occupancy."""
        with self._lock:
            return {**self._stats, "wrappers": len(self._wrappers),
                    "ppl_entries": len(self._ppl),
                    "task_item_entries": len(self._items)}

    def clear(self) -> None:
        """Drop all cached wrappers, memos and task items."""
        with self._lock:
            self._wrappers.clear()
            self._ppl.clear()
            self._items.clear()


_default: EvalEngine | None = None
_default_lock = threading.Lock()


def default_engine() -> EvalEngine:
    """The process-wide engine instance (created on first use)."""
    global _default
    with _default_lock:
        if _default is None:
            _default = EvalEngine()
        return _default


def reset_default_engine() -> None:
    """Drop the process-wide engine (used by tests)."""
    global _default
    with _default_lock:
        _default = None
