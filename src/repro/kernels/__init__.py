"""Shared quantization kernels and the fast/reference dispatch switch.

The fast path of every catalog format is its compiled plan
(:mod:`repro.plan`), reached through ``quantize_weight`` /
``quantize_activation`` and :func:`repro.codec.encode`; the plan
executors build on the kernels here. The reference path is the plain
formulation in :mod:`repro.formats`, :mod:`repro.mx` and
:mod:`repro.core` — the oracle every plan must match bit for bit.
``REPRO_REFERENCE_KERNELS=1`` (or :func:`reference_kernels`) selects
it: no plans, the core oracle and the reference grid search. The parity
sweeps in ``tests/test_kernel_parity.py`` and ``tests/test_plan.py``
enforce the bit-identity, so the switch is purely a performance (and
debugging) choice.

Modules (all pure NumPy, importable without the rest of the library):

* :mod:`~repro.kernels.dispatch` — the fast/reference switch
  (environment default, thread-scoped context overrides);
* :mod:`~repro.kernels.lut` — per-grid decision-boundary caches turning
  RTNE grid quantization into one ``searchsorted``;
* :mod:`~repro.kernels.search` — the batched code-space candidate
  search the M2-NVFP4 weight plan runs on, and the Sg-EM / Sg-EE plans'
  exact fallback.

Example::

    from repro.kernels import reference_kernels

    fast = fmt.quantize_weight(w)            # default: the compiled plan
    with reference_kernels():
        slow = fmt.quantize_weight(w)        # the core oracle
    assert fast.tobytes() == slow.tobytes()  # the parity contract
"""

from .dispatch import (REFERENCE_ENV, fast_kernels, reference_kernels,
                       use_reference)
from .lut import (boundaries_are_exact, cached_boundaries, cached_thresholds,
                  compiled_thresholds, exact_boundaries, rtne_boundaries,
                  threshold_codes)
from .search import candidate_search, gather_candidate_codes, hierarchical_select

__all__ = [
    "REFERENCE_ENV", "use_reference", "reference_kernels", "fast_kernels",
    "rtne_boundaries", "boundaries_are_exact", "exact_boundaries",
    "cached_boundaries", "compiled_thresholds", "cached_thresholds",
    "threshold_codes",
    "candidate_search", "hierarchical_select", "gather_candidate_codes",
]
