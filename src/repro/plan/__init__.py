"""Compiled quantization plans.

A :class:`QuantPlan` is a reusable program compiled once per
``(format fingerprint, op, shape signature, axis)`` that
holds everything a quantize call otherwise re-derives per invocation:
group/pad reshape geometry, boundary and bisected-threshold arrays,
candidate scale grids for the adaptive searches, and resolved
dispatch/env state — the hot path performs no ``os.environ`` reads and
no lazy imports. Plans are bit-identical to each format's own
``quantize`` by construction and by test (``tests/test_plan.py``, the
golden vectors, and the kernel parity matrix).

Entry points: ``TensorFormat.quantize_weight`` /
``quantize_activation`` consult :func:`lookup_plan` transparently, so
`QuantizedLM`, `QuantService` and the evaluation engine all ride the
cache; reference dispatch (``REPRO_REFERENCE_KERNELS=1`` or
``reference_kernels()``) takes those entry points off it, back to the
reference oracle. Each plan also holds its encode entry
(``plan.encode``, bound at compile): the finished, optionally verified
container for its signature, packed from ``run_codes`` under either
dispatch mode. :func:`repro.codec.encode` is a thin call into it, and a
KV session binds the entries it uses.

Example::

    from repro.plan import get_plan
    from repro.core import ElemEM

    fmt = ElemEM()
    plan = get_plan(fmt, "activation", x.shape, axis=-1)
    for step in range(1000):          # amortized: no per-call re-derivation
        out = plan.run(x)
    assert (out == fmt.quantize_activation(x, axis=-1)).all()
"""

from .cache import (MAX_PLANS, QuantPlan, clear_plan_cache, get_plan,
                    lookup_plan, plan_cache_stats)
from .codespace import CodeSpaceResult, CodeStream
from .executors import tensor_scoped
from .geometry import GroupGeometry

__all__ = ["QuantPlan", "GroupGeometry", "CodeSpaceResult", "CodeStream",
           "MAX_PLANS", "get_plan", "lookup_plan", "clear_plan_cache",
           "plan_cache_stats", "tensor_scoped"]
