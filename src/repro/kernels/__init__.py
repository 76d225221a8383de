"""Fast quantization kernels and the fast/reference dispatch layer.

This package is the library's performance backbone: every format in
:mod:`repro.formats`, :mod:`repro.mx` and :mod:`repro.core` routes its
hot path through these kernels by default, while the original reference
implementations stay available behind ``REPRO_REFERENCE_KERNELS=1``.
Fast and reference paths are bit-identical — enforced by the parity
matrix in ``tests/test_kernel_parity.py`` — so the switch is purely a
performance (and debugging) choice.

Modules (all pure NumPy, importable without the rest of the library):

* :mod:`~repro.kernels.dispatch` — the fast/reference switch
  (environment default, thread-scoped context overrides);
* :mod:`~repro.kernels.lut` — per-grid decision-boundary caches turning
  RTNE grid quantization into one ``searchsorted``;
* :mod:`~repro.kernels.search` — the batched code-space candidate
  search behind Sg-EM, adaptive Sg-EE and M2-NVFP4 weights;
* :mod:`~repro.kernels.elem` — fused Elem-EM top-k / Elem-EE offset
  refinement.

Example::

    from repro.kernels import reference_kernels

    fast = fmt.quantize_weight(w)            # default fast path
    with reference_kernels():
        slow = fmt.quantize_weight(w)        # ground truth
    assert fast.tobytes() == slow.tobytes()  # the parity contract
"""

from .dispatch import (REFERENCE_ENV, fast_kernels, reference_kernels,
                       use_reference)
from .elem import (elem_ee_offsets, elem_ee_select, fp6_topk_refine,
                   top_indices)
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
    "top_indices", "fp6_topk_refine", "elem_ee_select", "elem_ee_offsets",
]
