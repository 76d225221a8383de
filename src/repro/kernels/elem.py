"""Fused element-metadata kernels (Elem-EM top-k and Elem-EE offsets).

The reference Elem-EM transfer function is ``decode(encode(x))``: the
encoder finds the per-subgroup top elements, re-quantizes them to FP6
and emits 2-bit metadata; the decoder then *re-identifies* the same top
elements from the FP4 codes (as the hardware decode unit must) and
re-applies the refinement. Simulating both halves repeats the top-k
search, the gathers and the clamp arithmetic. Since the decoder provably
reconstructs the encoder's selection (same codes, same stable tie
order), the round trip collapses into one fused pass with bit-identical
output. It serves ``ElemEM``'s kernel-dispatched path; the compiled
plans run their own code-space form of the top-1 case
(:func:`repro.plan.ops.fp6_window_codes`).

Example (one fused Elem-EM transfer over already-scaled groups)::

    from repro.kernels.elem import fp6_topk_refine
    from repro.formats.registry import FP4_E2M1, FP6_E2M3

    dq = fp6_topk_refine(scaled, sub_size=8, top_k=1,
                         fp4=FP4_E2M1, fp6=FP6_E2M3)
    # dq == elem_em_decode(elem_em_encode(...)) bit for bit
"""

from __future__ import annotations

import numpy as np

__all__ = ["top_indices", "fp6_topk_refine", "elem_ee_select",
           "elem_ee_offsets"]


def top_indices(mag_sub: np.ndarray, top_k: int) -> np.ndarray:
    """Indices of the ``top_k`` largest codes per subgroup, ties to the
    lowest index — ``argmax`` for the dominant top-1 case, a stable
    descending argsort otherwise (both give the reference order)."""
    if top_k == 1:
        return np.argmax(mag_sub, axis=2)[:, :, None]
    return np.argsort(-mag_sub, axis=2, kind="stable")[:, :, :top_k]


def fp6_topk_refine(scaled: np.ndarray, sub_size: int, top_k: int,
                    fp4, fp6, meta_bits: int = 2) -> np.ndarray:
    """Fused Elem-EM encode+decode in already-scaled space.

    Quantizes ``(n, k)`` data to FP4, re-quantizes each subgroup's top-k
    elements (by FP4 code) to FP6, clamps the FP6 code into the 2-bit
    window above the FP4 code (the Algorithm-1 bias-clamp trick), and
    substitutes the refined values — one pass, equal bit for bit to
    ``elem_em_decode(elem_em_encode(...))`` on the same input.
    """
    n, k = scaled.shape
    n_sub = k // sub_size
    sign = np.signbit(scaled)
    ax = np.abs(scaled)
    mag = np.searchsorted(fp4.boundaries, ax, side="left")
    vals = fp4.grid[mag]
    dq = np.where(sign, -vals, vals)

    mag_sub = mag.reshape(n, n_sub, sub_size)
    top_idx = top_indices(mag_sub, top_k)
    top_abs = np.take_along_axis(ax.reshape(n, n_sub, sub_size), top_idx, axis=2)
    fp6_codes = np.searchsorted(fp6.boundaries, top_abs, side="left")

    fp4_top = np.take_along_axis(mag_sub, top_idx, axis=2)
    lo = fp4_top << meta_bits
    # encode: meta = clamp(fp6 + 1, lo, lo + 3) - lo; decode: (lo | meta) - 1.
    # lo has zero low bits, so the OR re-assembles the clamped code exactly.
    decoded = np.clip(np.clip(fp6_codes + 1, lo, lo + (1 << meta_bits) - 1) - 1,
                      0, fp6.code_count - 1)
    refined = fp6.grid[decoded]

    top_sign = np.take_along_axis(sign.reshape(n, n_sub, sub_size), top_idx, axis=2)
    out = dq.reshape(n, n_sub, sub_size)
    np.put_along_axis(out, top_idx, np.where(top_sign, -refined, refined), axis=2)
    return out.reshape(n, k)


def elem_ee_select(top_val: np.ndarray, o_max: int, fp4
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Elem-EE offset search, exposed at the code level.

    Evaluates ``quantize(v / 2**o) * 2**o`` for every offset in one shot
    and returns ``(codes, cand, pick)``: the per-offset magnitude codes,
    the signed candidate values, and the chosen offset index per element
    (``argmin`` keeps the first minimum, matching the reference's
    ``<``-guarded ascending-offset loop). The packed-tensor codec stores
    ``pick`` and the picked code, so it shares this exact search rather
    than re-deriving it.
    """
    offs = np.exp2(np.arange(o_max + 1, dtype=np.float64))
    scaled = np.abs(top_val)[..., None] / offs
    codes = np.searchsorted(fp4.boundaries, scaled, side="left")
    cand = fp4.grid[codes] * offs
    cand = np.where(np.signbit(top_val)[..., None], -cand, cand)
    err = np.abs(cand - top_val[..., None])
    pick = np.argmin(err, axis=-1)
    return codes, cand, pick


def elem_ee_offsets(top_val: np.ndarray, o_max: int, fp4) -> np.ndarray:
    """Best exponent-increment refinement of the top elements, batched."""
    _, cand, pick = elem_ee_select(top_val, o_max, fp4)
    return np.take_along_axis(cand, pick[..., None], axis=-1)[..., 0]
