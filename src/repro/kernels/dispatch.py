"""Fast/reference dispatch for the whole quantization library.

Every format exists in exactly two implementations:

* the **reference** oracle — the plain formulation in
  :mod:`repro.formats`, :mod:`repro.mx` and :mod:`repro.core`, kept as
  the semantic ground truth;
* the **fast** path — the format's compiled code-space plan
  (:mod:`repro.plan`), reached through ``quantize_weight`` /
  ``quantize_activation``, plus the boundary-cache grid search of
  :mod:`repro.kernels.lut` for scalar encodes.

The two are bit-identical on every input (``tests/test_kernel_parity.py``
and ``tests/test_plan.py`` sweep every registered format over
adversarial tensors); the fast path is the default. Export
``REPRO_REFERENCE_KERNELS=1`` to select the reference process-wide (no
plans, the core oracle): the escape hatch for ruling the fast path out
while debugging, listed in the README's environment-knob table. The
:func:`reference_kernels` / :func:`fast_kernels` context managers give
scoped control. A scope overrides the environment for the
calling thread (strictly, the current :mod:`contextvars` context) only:
a thread or asyncio task that did not enter it keeps its own dispatch,
so pinning a mode on one request never leaks into another.

Example::

    from repro.kernels import reference_kernels, use_reference
    from repro.formats.registry import FP4_E2M1

    fast_codes = FP4_E2M1.encode(x)          # default: fast kernels
    with reference_kernels():                # scoped, env-independent
        assert use_reference()
        ref_codes = FP4_E2M1.encode(x)       # bit-identical, slower
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar

__all__ = ["REFERENCE_ENV", "use_reference", "reference_kernels",
           "fast_kernels"]

#: Environment variable selecting the reference (slow) kernel paths.
REFERENCE_ENV = "REPRO_REFERENCE_KERNELS"

#: Scoped override (None = follow the environment). New threads start
#: with an empty context, so they never see another thread's scope.
_override: ContextVar[bool | None] = ContextVar("repro_dispatch_override",
                                                default=None)


def use_reference() -> bool:
    """True when the reference kernel paths are selected."""
    override = _override.get()
    if override is not None:
        return override
    return os.environ.get(REFERENCE_ENV, "0") == "1"


@contextmanager
def _pinned(reference: bool):
    prev = _override.get()
    _override.set(reference)
    try:
        yield
    finally:
        _override.set(prev)


def reference_kernels():
    """Force the reference path within the block, ignoring the environment."""
    return _pinned(True)


def fast_kernels():
    """Force the fast path within the block, ignoring the environment."""
    return _pinned(False)
