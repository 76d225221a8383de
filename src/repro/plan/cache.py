"""Bounded, thread-safe cache of compiled quantization plans.

Plans are keyed by the full identity of the computation they compile:
the format's configuration fingerprint (``weight_cache_key`` — class
name plus every scalar attribute, recursing into nested formats), the
operand path, and the exact (shape, axis) signature. A plan's output is
bit-identical under either kernel dispatch mode, so one cache serves
both callers:

* the format entry points (``quantize_weight`` / ``quantize_activation``)
  go through :func:`lookup_plan`, which returns None under reference
  dispatch, so the oracle there stays the format's own ``quantize``;
* :func:`repro.codec.encode` calls :func:`get_plan` under either mode:
  a plan's ``encode`` entry, over its ``run_codes``, is the codec's
  only encoder (a KV session holds the entries it uses).

The cache is a lock-protected LRU bounded at :data:`MAX_PLANS`
entries; negative lookups are cached too, so unplannable formats cost
one dict probe per call, not a compile attempt.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .executors import compile_executor
from .geometry import GroupGeometry

__all__ = ["QuantPlan", "MAX_PLANS", "get_plan", "lookup_plan",
           "clear_plan_cache", "plan_cache_stats"]

#: Maximum number of cached (plan or no-plan) entries.
MAX_PLANS = 512

_OPS = ("weight", "activation")


@dataclass
class QuantPlan:
    """A compiled, reusable quantization program for one call signature.

    ``run_codes`` is the fused quantize→pack sibling: the same search
    returning a :class:`~repro.plan.codespace.CodeSpaceResult` instead
    of a dequantized tensor. It is None only for the families without a
    codec stream layout (``MXAnt`` / ``MXMAnt``), which the codec
    refuses. ``encode`` is the plan's one encode entry,
    ``encode(x, verify=False, blocks=1, split=False)``:
    the finished (and with ``verify``, checked) container for ``x``
    (see :class:`repro.codec.Encoder`). It is bound at compile, with
    everything it derives from the signature, and is None where
    ``run_codes`` is or no codec decodes the format.
    """

    key: tuple
    run: Callable[[np.ndarray], np.ndarray]
    geometry: GroupGeometry = field(repr=False, default=None)
    run_codes: Callable | None = field(repr=False, default=None)
    encode: Callable | None = field(repr=False, default=None)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.run(x)


_lock = threading.Lock()
_cache: "OrderedDict[tuple, QuantPlan | None]" = OrderedDict()
_stats = {"hits": 0, "misses": 0, "compiles": 0, "evictions": 0}


def _group_size(fmt) -> int:
    """The grouping a plan compiles for: the format's group size, its
    activation format's (M2XFP), or 1 for an element-wise format."""
    size = getattr(fmt, "group_size", None)
    if size is None:
        inner = getattr(fmt, "activation_format", None)
        size = getattr(inner, "group_size", 1)
    return size


#: ``fmt.weight_cache_key`` per format instance. The key walks the
#: format's attributes recursively, and a format is not reconfigured
#: after construction, so the walk runs once per instance.
_fingerprints: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _fingerprint(fmt):
    """``fmt.weight_cache_key``, computed on the instance's first call
    (None, for a format it cannot fingerprint, is remembered too)."""
    try:
        return _fingerprints[fmt]
    except KeyError:
        key = _fingerprints[fmt] = fmt.weight_cache_key
        return key


def get_plan(fmt, op: str, shape: tuple, axis: int) -> QuantPlan | None:
    """The cached fast-path plan for ``(fmt, op, shape, axis)``, or None.

    The fingerprint comes from ``fmt.weight_cache_key``, once per format
    instance; formats it cannot fingerprint are never planned.
    """
    if op not in _OPS:
        raise ValueError(f"op must be one of {_OPS}, got {op!r}")
    fingerprint = _fingerprint(fmt)
    if fingerprint is None or not shape:
        return None
    key = (fingerprint, op, tuple(shape), axis)
    with _lock:
        if key in _cache:
            _cache.move_to_end(key)
            _stats["hits"] += 1
            return _cache[key]
        _stats["misses"] += 1
        plan = None
        if shape[axis % len(shape)] is not None:
            geom = GroupGeometry(shape, axis, _group_size(fmt))
            run, run_codes = compile_executor(fmt, op, geom)
            if run is not None:
                # The codec packs plans, so it loads after this module.
                from ..codec.codecs import bind_encoder
                plan = QuantPlan(key=key, run=run, geometry=geom,
                                 run_codes=run_codes,
                                 encode=bind_encoder(fmt, op, geom,
                                                     run_codes))
                _stats["compiles"] += 1
        _cache[key] = plan
        if len(_cache) > MAX_PLANS:
            _cache.popitem(last=False)
            _stats["evictions"] += 1
        return plan


def lookup_plan(fmt, op: str, x, axis: int) -> QuantPlan | None:
    """Entry-point helper: resolve dispatch state, then :func:`get_plan`."""
    from ..kernels.dispatch import use_reference
    if use_reference():
        return None
    shape = np.shape(x)
    if not shape:
        return None
    return get_plan(fmt, op, shape, axis)


def clear_plan_cache() -> None:
    """Drop every cached plan (used by tests)."""
    with _lock:
        _cache.clear()


def plan_cache_stats() -> dict:
    """Counters plus the current entry count."""
    with _lock:
        return {**_stats, "entries": len(_cache)}


# The cache is module-global, so its registry entry is too: one
# ``plan_cache`` collector per process, registered at import time.
from ..obs import registry as _obs_registry  # noqa: E402

_obs_registry().register_collector("plan_cache", plan_cache_stats)
