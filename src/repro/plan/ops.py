"""Fused primitives shared by the compiled plan executors.

Everything here is bit-exact by construction against the corresponding
reference formulation (the argument is given per function); the plan
parity tests in ``tests/test_plan.py`` re-assert each equivalence over
adversarial tensors rather than trusting the proofs.

Two library-wide facts carry most of the speed:

* dividing by a power of two equals multiplying by its (exactly
  representable) reciprocal, bit for bit, for every float64 input —
  both are single correctly-rounded operations on the same real value.
  Shared MX scales are powers of two, so every ``groups / scale`` on a
  hot path becomes one multiply;
* FP4's eight-entry grid makes both the encode (seven vectorized
  compares accumulated into an int8 counter, replacing a per-element
  binary search) and the decode (three int8 arithmetic ops instead of a
  gather) cheap enough that the grid search stops dominating.
"""

from __future__ import annotations

import numpy as np

from ..errors import FormatError
from ..formats.registry import FP4_E2M1, FP6_E2M3

__all__ = ["tree_amax", "validate_amax", "cmp_accumulate", "fp4_codes",
           "fp4_half_ints",
           "fp4_half_values", "small_grid_encoder", "subgroup_top1",
           "fp6_window_codes", "fp6_window_refine", "elem_ee_select"]

#: The boundary array of the standard FP4 E2M1 grid (seven entries).
_FP4_BOUNDS = FP4_E2M1.boundaries

#: FP6 E2M3 boundaries with a -inf sentinel in front, so the Elem-EM
#: clamp window can be gathered at ``lo - 1`` without branching.
_FP6_BOUNDS_PAD = np.concatenate(([-np.inf], FP6_E2M3.boundaries))


def tree_amax(a: np.ndarray) -> np.ndarray:
    """Rowwise max of a 2-D array by pairwise folding.

    Equals ``a.max(axis=1)`` bit for bit — ``max`` is exact and
    commutative, and ``np.maximum`` propagates NaN exactly like the
    reduction — but runs as a handful of full-width vector ops instead
    of one short reduction per row. The overlapping split handles odd
    widths (duplicated elements cannot change a max).
    """
    w = a.shape[1]
    if w == 0:
        return np.full(a.shape[0], -np.inf)
    while w > 1:
        h = (w + 1) // 2
        a = np.maximum(a[:, :h], a[:, w - h:w])
        w = h
    return a[:, 0]


def validate_amax(amax: np.ndarray) -> None:
    """The ``to_groups`` finiteness contract, checked on group maxima.

    ``amax`` must be per-group maxima of absolute values: any NaN or
    ±Inf element forces its group's maximum to NaN/Inf, so this check
    accepts and rejects exactly the tensors ``to_groups`` does — at
    ``1/group_size`` the cost. The error matches to the message so
    callers cannot tell the paths apart.
    """
    if not np.isfinite(amax).all():
        raise FormatError("non-finite values (nan/inf) cannot be "
                          "group-quantized")


def cmp_accumulate(ax: np.ndarray, cutoffs: np.ndarray,
                   inclusive: bool) -> np.ndarray:
    """Count cutoffs below ``ax`` into an int8 code array.

    One vectorized compare per cutoff, accumulated in int8 — the shared
    implementation behind every small-grid encode in the plan layer.
    ``inclusive=False`` counts ``cutoff < ax`` (RTNE boundary semantics,
    equal to ``searchsorted(..., side="left")``); ``inclusive=True``
    counts ``cutoff <= ax`` (bisected-threshold semantics, equal to
    ``side="right")``.
    """
    op = np.greater_equal if inclusive else np.greater
    c = op(ax, cutoffs[0]).view(np.int8).copy()
    for cut in cutoffs[1:]:
        c += op(ax, cut).view(np.int8)
    return c


def fp4_codes(ax: np.ndarray) -> np.ndarray:
    """FP4 magnitude codes of non-negative ``ax``, as int8.

    Seven ``>`` passes accumulated into an int8 counter compute the
    same count-of-boundaries-below as the boundary ``searchsorted``
    (``side="left"``), several times faster on the small grid.
    """
    return cmp_accumulate(ax, _FP4_BOUNDS, inclusive=False)


def fp4_half_ints(codes: np.ndarray) -> np.ndarray:
    """``2 * FP4_grid[codes]`` as int8, without a gather.

    The doubled FP4 grid is the integer sequence
    ``[0, 1, 2, 3, 4, 6, 8, 12]``, which is ``c + relu(c - 4) +
    2 * relu(c - 6)`` — three int8 ops. Callers fold the ``/2`` into
    the scale (``value * s`` becomes ``half_value * (s / 2)``, the same
    single rounding since ``s / 2`` is exact for every
    power-of-two-times-small-mantissa scale).
    """
    t = np.maximum(codes, 4)
    t -= 4
    v2 = codes + t
    t = np.maximum(codes, 6)
    t -= 6
    t += t
    v2 += t
    return v2


def fp4_half_values(codes: np.ndarray) -> np.ndarray:
    """:func:`fp4_half_ints` converted to float64."""
    return fp4_half_ints(codes).astype(np.float64)


def small_grid_encoder(grid: np.ndarray):
    """Compile a compare-accumulate encoder for an arbitrary small grid.

    Returns ``encode(ax) -> int8 codes`` matching the fast
    ``quantize_to_grid`` dispatch for non-negative magnitudes: exact
    RTNE boundaries with strict ``>`` when the grid qualifies, bisected
    decision thresholds with ``>=`` otherwise (see
    :mod:`repro.kernels.lut`). Both count the same reference codes.
    """
    from ..kernels.lut import cached_boundaries, cached_thresholds

    bounds = cached_boundaries(grid)
    if bounds is not None:
        return lambda ax: cmp_accumulate(ax, bounds, inclusive=False)
    thresholds = cached_thresholds(grid)
    return lambda ax: cmp_accumulate(ax, thresholds, inclusive=True)


def subgroup_top1(codes_sub: np.ndarray) -> np.ndarray:
    """First-max index per subgroup of int8 codes, via a composite key.

    ``codes_sub`` is ``(n, n_sub, S)`` with codes in ``[0, 7]``. Packing
    ``(code << bits) | (S' - 1 - position)`` into one integer makes a
    plain elementwise max reproduce ``np.argmax``'s first-maximum tie
    rule: equal codes are ordered by descending position complement,
    i.e. ascending position. A handful of folds replaces the short-axis
    ``argmax`` reduction.
    """
    n, n_sub, s = codes_sub.shape
    bits = max(1, (s - 1).bit_length())
    span = 1 << bits
    dtype = np.int8 if (8 << bits) <= 127 else np.int16
    pos = np.arange(s, dtype=dtype)
    key = np.left_shift(codes_sub.astype(dtype, copy=False), bits)
    key += (span - 1) - pos
    w = s
    while w > 1:
        h = (w + 1) // 2
        key = np.maximum(key[..., :h], key[..., w - h:w])
        w = h
    best = key[..., 0]
    return ((span - 1) - (best & (span - 1))).astype(np.int64)


def fp6_window_codes(top_abs: np.ndarray,
                     top_codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Elem-EM's FP6 bias-clamp refinement, reduced to a 3-wide window.

    Implements ``clip(clip(fp6_code + 1, lo, lo + 3) - 1, 0, 63)`` for
    ``lo = fp4_code << 2`` without the full FP6 grid search: the clamp
    makes only the three FP6 boundaries at ``lo - 1 .. lo + 1`` matter,
    so the refined code is ``lo - 1 +`` the count of those boundaries
    below the value (a ``-inf`` sentinel covers ``lo = 0``). That count
    is also exactly the 2-bit wire metadata the codec derives as
    ``clip(fp6_code + 1, lo, lo + 3) - lo``: both equal the number of
    the window's boundaries the value exceeds (for ``lo = 0`` the
    sentinel contributes the same fixed 1 the clamp floor does).

    Returns ``(meta, refined2)``: the metadata counts in ``[0, 3]`` and
    the doubled refined magnitudes (exact — the FP6 grid is dyadic), to
    be scaled by ``s / 2`` like :func:`fp4_half_values` output.
    """
    lo = top_codes << 2
    meta = (top_abs > _FP6_BOUNDS_PAD[lo]).view(np.int8).astype(np.int64)
    meta += (top_abs > _FP6_BOUNDS_PAD[lo + 1]).view(np.int8)
    meta += (top_abs > _FP6_BOUNDS_PAD[lo + 2]).view(np.int8)
    return meta, FP6_E2M3.grid[lo + (meta - 1)] * 2.0


def fp6_window_refine(top_abs: np.ndarray, top_codes: np.ndarray) -> np.ndarray:
    """The doubled refined magnitudes of :func:`fp6_window_codes` alone."""
    return fp6_window_codes(top_abs, top_codes)[1]


def elem_ee_select(top_val: np.ndarray, o_max: int
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Elem-EE offset search, exposed at the code level.

    Evaluates ``quantize(v / 2**o) * 2**o`` on the FP4 grid for every
    offset in one shot and returns ``(codes, cand, pick)``: the
    per-offset magnitude codes, the signed candidate values, and the
    chosen offset index per element. ``argmin`` keeps the first minimum,
    matching the reference's ``<``-guarded ascending-offset loop
    (:func:`repro.core.elem_ee.elem_ee_quantize_groups`). The plan's
    value path takes ``cand`` at ``pick``; its code path stores ``pick``
    and the picked code, so both share this one search.
    """
    offs = np.exp2(np.arange(o_max + 1, dtype=np.float64))
    scaled = np.abs(top_val)[..., None] / offs
    codes = np.searchsorted(_FP4_BOUNDS, scaled, side="left")
    cand = FP4_E2M1.grid[codes] * offs
    cand = np.where(np.signbit(top_val)[..., None], -cand, cand)
    err = np.abs(cand - top_val[..., None])
    pick = np.argmin(err, axis=-1)
    return codes, cand, pick
