"""Batched code-space candidate search for the adaptive metadata formats.

The reference Sg-EM / Sg-EE / M2-NVFP4 searches quantize every subgroup
once per (bias, multiplier) candidate inside nested Python loops — 12
full quantization passes, each dragging ~20 temporaries through memory.
Here the whole candidate grid is quantized in one batched pass over a
(chunked) ``(n_groups, n_sub, n_candidates, sub_size)`` tensor:

* magnitude codes come from a single ``searchsorted`` against the
  element's cached decision boundaries (:mod:`repro.kernels.lut`);
* the squared error accumulates in absolute-value space — the signed
  residual is the exact negation of the absolute one (the element and
  its quantization always share a sign and the scale is positive), so
  the squares are bit-identical to the reference's;
* the hierarchical (outer bias, inner multiplier) argmin reproduces the
  reference's first-strict-improvement tie-breaking: ``np.argmin``
  returns the first minimum, which is exactly what a ``<``-guarded
  update loop keeps.

Error sums are reduced along a contiguous trailing axis of the same
length as the reference's, so NumPy's pairwise summation visits the
addends in the identical order — a requirement for the argmin decisions
(and therefore the emitted codes) to match the reference bit for bit.

Example (the Sg-EM shape: 3 biases x 4 multipliers per subgroup)::

    cand = (scales_per_bias[:, :, None] * MULTIPLIERS).reshape(n, -1)
    codes, err = candidate_search(subs, cand, fp4.grid, fp4.boundaries)
    outer, inner, _ = hierarchical_select(err, n_outer=3, n_inner=4)
    mag = gather_candidate_codes(codes, outer, inner, n_inner=4)
"""

from __future__ import annotations

import numpy as np

__all__ = ["candidate_search", "hierarchical_select", "gather_candidate_codes"]

#: Per-chunk scratch size (float64 elements); small enough that the whole
#: divide / compare / error chain stays resident in cache.
_CHUNK_ELEMS = 100_000


def candidate_search(subs: np.ndarray, cand_scales: np.ndarray,
                     grid: np.ndarray, boundaries: np.ndarray,
                     chunk_elems: int = _CHUNK_ELEMS
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Quantize every subgroup against every candidate scale at once.

    ``subs`` is ``(n, n_sub, sub_size)`` finite float64 data;
    ``cand_scales`` is ``(n, n_cand)`` positive scales (already including
    any bias and fractional multiplier). Returns ``(codes, err)`` where
    ``codes`` is ``(n, n_sub, n_cand, sub_size)`` magnitude codes and
    ``err`` is the ``(n, n_sub, n_cand)`` per-subgroup squared
    reconstruction error, both bit-identical to quantizing each candidate
    separately with the reference path.

    For the small grids this search targets, codes come from one
    comparison against each decision boundary accumulated into an int8
    counter — substantially cheaper than a per-element binary search.
    (NaN inputs would land on code 0 rather than the reference's
    saturation code; every caller quantizes finite data.)
    """
    n, n_sub, sub = subs.shape
    n_cand = cand_scales.shape[1]
    if boundaries.shape[0] > np.iinfo(np.int8).max:
        raise ValueError("candidate_search expects a small element grid")
    codes = np.empty((n, n_sub, n_cand, sub), dtype=np.int8)
    err = np.empty((n, n_sub, n_cand), dtype=np.float64)
    rows = max(1, min(n, chunk_elems // max(1, n_sub * n_cand * sub)) or 1)
    # One scratch set reused across chunks: the search is memory-bound,
    # and every fresh temporary the old expression chain allocated (abs,
    # divide, one bool per boundary, the grid gather, the error sum) is
    # a cache-cold write the ``out=`` forms below avoid.
    ax_buf = np.empty((rows, n_sub, 1, sub))
    scaled_buf = np.empty((rows, n_sub, n_cand, sub))
    cmp_buf = np.empty((rows, n_sub, n_cand, sub), dtype=bool)
    q_buf = np.empty((rows, n_sub, n_cand, sub))
    for lo in range(0, n, rows):
        hi = min(n, lo + rows)
        r = hi - lo
        ax = ax_buf[:r]
        np.abs(subs[lo:hi, :, None, :], out=ax)
        s = cand_scales[lo:hi][:, None, :, None]
        scaled = scaled_buf[:r]
        np.divide(ax, s, out=scaled)
        # searchsorted(boundaries, x, "left") == count of boundaries < x;
        # each compare lands in the bool scratch and accumulates through
        # its (free) int8 reinterpretation, exactly like the old
        # bool-into-int8 ``+=``.
        c = codes[lo:hi]
        cb = cmp_buf[:r]
        np.greater(scaled, boundaries[0], out=cb)
        c[...] = cb.view(np.int8)
        for b in boundaries[1:]:
            np.greater(scaled, b, out=cb)
            c += cb.view(np.int8)
        # |q|*s - |v| is the exact negation of q*s - v wherever v < 0, so
        # squaring gives the reference residuals bit for bit.
        q = q_buf[:r]
        np.take(grid, c, out=q)
        q *= s
        q -= ax
        # Residuals of huge groups may square to inf on purpose:
        # hierarchical_select handles all-inf candidates.
        with np.errstate(over="ignore"):
            q *= q
            q.sum(axis=3, out=err[lo:hi])
    return codes, err


def hierarchical_select(err: np.ndarray, n_outer: int, n_inner: int,
                        fallback_outer: int = 0
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reference-equivalent (outer, inner) selection from candidate errors.

    ``err`` is ``(n, n_sub, n_outer * n_inner)`` with candidates ordered
    outer-major (the reference's loop nesting: bias outside, multiplier
    or decrement inside). Per outer candidate the best inner candidate is
    chosen per subgroup; the outer candidate with the lowest summed group
    error wins. Returns ``(outer, inner, invalid)`` — ``(n,)`` outer
    indices, the ``(n, n_sub)`` inner indices under the winning outer,
    and the ``(n,)`` mask of groups whose best error was not finite.

    The ``invalid`` groups reproduce the reference's strict-``<`` update
    semantics: when every candidate's error overflows to ``inf``, the
    reference never takes an update and stays on its initial state. Such
    groups are forced to ``(fallback_outer, inner 0)`` — the reference's
    initial scale choice — and flagged so callers that initialize to a
    different state (M2-NVFP4's zero output) can apply their own default.
    """
    n, n_sub = err.shape[:2]
    e = err.reshape(n, n_sub, n_outer, n_inner)
    inner = np.argmin(e, axis=3)
    inner_err = e.min(axis=3)
    # Sum over subgroups with n_sub as the contiguous trailing axis so the
    # pairwise reduction order matches the reference's (n, n_sub) sum.
    group_err = np.ascontiguousarray(np.moveaxis(inner_err, 1, 2)).sum(axis=2)
    outer = np.argmin(group_err, axis=1)
    invalid = ~np.isfinite(group_err[np.arange(n), outer])
    if invalid.any():
        outer = np.where(invalid, fallback_outer, outer)
    best_inner = inner[np.arange(n), :, outer]
    if invalid.any():
        best_inner[invalid] = 0
    return outer, best_inner, invalid


def gather_candidate_codes(codes: np.ndarray, outer: np.ndarray,
                           inner: np.ndarray, n_inner: int) -> np.ndarray:
    """Magnitude codes of the winning candidate per subgroup.

    Gathers from the ``(n, n_sub, n_cand, sub_size)`` tensor produced by
    :func:`candidate_search`, replacing the reference's final re-encode
    (which would recompute exactly these codes).
    """
    n, n_sub, n_cand, sub = codes.shape
    cand_idx = (outer[:, None] * n_inner + inner).ravel()
    flat = codes.reshape(n * n_sub, n_cand, sub)
    picked = flat[np.arange(n * n_sub), cand_idx]
    return picked.reshape(n, n_sub, sub).astype(np.int64)
