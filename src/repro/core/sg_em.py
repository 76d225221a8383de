"""Sg-EM: subgroup-level extra-mantissa scale refinement (Sec. 4.4.2).

The offline weight quantization of M2XFP. Each subgroup carries a 2-bit
code ``c`` selecting a fractional scale multiplier {1.0, 1.25, 1.5, 1.75}
over the group's E8M0 shared scale. With the adaptive shared scale enabled,
a group-level exponent bias ``b in {-1, 0, +1}`` is co-optimized (Eq. 4)
via hierarchical MSE minimization: the best ``c`` is found per subgroup for
each candidate ``b``, then the ``b`` with the lowest total group error wins.
The bias needs no storage — it is absorbed into the stored E8M0 scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ShapeError
from ..formats.e8m0 import E8M0_BITS, clamp_exponent
from ..formats.grouping import from_groups, to_groups
from ..formats.registry import FP4_E2M1
from ..kernels.dispatch import use_reference
from ..kernels.search import (candidate_search, gather_candidate_codes,
                              hierarchical_select)
from ..mx.base import TensorFormat
from ..mx.scale_rules import shared_scale_exponent

__all__ = ["SgEMEncoding", "SG_EM_MULTIPLIERS", "sg_em_encode", "sg_em_decode",
           "sg_em_quantize_groups", "SgEM"]

#: Fractional scale multipliers selected by the 2-bit subgroup code.
SG_EM_MULTIPLIERS = (1.0, 1.25, 1.5, 1.75)

#: Group-level exponent bias candidates under the adaptive shared scale.
ADAPTIVE_BIASES = (-1, 0, 1)


@dataclass
class SgEMEncoding:
    """Bit-level result of Sg-EM quantization over ``(n_groups, k)`` data."""

    sign_codes: np.ndarray        # (n, k)
    mag_codes: np.ndarray         # (n, k) 3-bit FP4 magnitude codes
    scale_exponents: np.ndarray   # (n,) stored exponents (bias already folded in)
    sg_codes: np.ndarray          # (n, n_sub) 2-bit multiplier codes
    sub_size: int

    @property
    def group_size(self) -> int:
        """Elements per group."""
        return int(self.mag_codes.shape[1])

    @property
    def n_subgroups(self) -> int:
        """Subgroups per group."""
        return self.group_size // self.sub_size

    @property
    def meta_bits_per_group(self) -> int:
        """2 bits per subgroup."""
        return 2 * self.n_subgroups


def _subgroup_scales(exps: np.ndarray, sg_codes: np.ndarray) -> np.ndarray:
    """Effective per-subgroup scales ``2^E * (1 + c/4)``."""
    mult = 1.0 + sg_codes.astype(np.float64) / 4.0
    return np.exp2(exps.astype(np.float64))[:, None] * mult


def sg_em_encode(groups: np.ndarray, sub_size: int = 8, adaptive: bool = True,
                 scale_rule: str = "floor") -> SgEMEncoding:
    """Quantize ``(n_groups, k)`` weights with Sg-EM refinement.

    ``adaptive=False`` restricts the search to the fixed shared scale
    (bias 0), which is the "fixed shared scale" mode of Figs. 6-7.

    The default implementation runs the whole (bias x multiplier)
    candidate grid through one batched code-space pass
    (:mod:`repro.kernels.search`); ``REPRO_REFERENCE_KERNELS=1`` selects
    the original nested-loop search. Both emit identical encodings.
    """
    groups = np.asarray(groups, dtype=np.float64)
    if groups.ndim != 2:
        raise ShapeError("sg_em_encode expects a (n_groups, k) matrix")
    n, k = groups.shape
    if k % sub_size != 0:
        raise ShapeError(f"group size {k} not divisible by subgroup size {sub_size}")
    n_sub = k // sub_size
    subs = groups.reshape(n, n_sub, sub_size)

    amax = np.max(np.abs(groups), axis=1)
    base_e = shared_scale_exponent(amax, FP4_E2M1, scale_rule)
    biases = ADAPTIVE_BIASES if adaptive else (0,)

    if not use_reference():
        exps_all = clamp_exponent(base_e[:, None] + np.asarray(biases))
        scales_all = np.exp2(exps_all.astype(np.float64))
        mult = np.asarray(SG_EM_MULTIPLIERS)
        cand = (scales_all[:, :, None] * mult).reshape(n, -1)
        codes, err = candidate_search(subs, cand, FP4_E2M1.grid, FP4_E2M1.boundaries)
        # Groups whose errors all overflow keep the unbiased scale, like
        # the reference's never-taken strict-< update.
        outer, inner, _ = hierarchical_select(err, len(biases), len(mult),
                                              fallback_outer=biases.index(0))
        mag = gather_candidate_codes(codes, outer, inner, len(mult))
        sign = np.signbit(subs).astype(np.int64)
        return SgEMEncoding(sign_codes=sign.reshape(n, k),
                            mag_codes=mag.reshape(n, k),
                            scale_exponents=exps_all[np.arange(n), outer],
                            sg_codes=inner, sub_size=sub_size)

    best_err = np.full(n, np.inf)
    best_codes = np.zeros((n, n_sub), dtype=np.int64)
    best_e = base_e.copy()
    for bias in biases:
        exps = clamp_exponent(base_e + bias)
        scale = np.exp2(exps.astype(np.float64))
        sub_err = np.full((n, n_sub), np.inf)
        sub_code = np.zeros((n, n_sub), dtype=np.int64)
        for code, mult in enumerate(SG_EM_MULTIPLIERS):
            s = scale[:, None, None] * mult
            q = FP4_E2M1.quantize(subs / s)
            with np.errstate(over="ignore"):  # inf error: never taken
                err = np.sum((q * s - subs) ** 2, axis=2)
            better = err < sub_err
            sub_err = np.where(better, err, sub_err)
            sub_code = np.where(better, code, sub_code)
        group_err = np.sum(sub_err, axis=1)
        improved = group_err < best_err
        best_err = np.where(improved, group_err, best_err)
        best_codes = np.where(improved[:, None], sub_code, best_codes)
        best_e = np.where(improved, exps, best_e)

    scales = _subgroup_scales(best_e, best_codes)
    q = FP4_E2M1.encode((subs / scales[:, :, None]).reshape(n, k))
    return SgEMEncoding(sign_codes=q[0], mag_codes=q[1], scale_exponents=best_e,
                        sg_codes=best_codes, sub_size=sub_size)


def sg_em_decode(enc: SgEMEncoding) -> np.ndarray:
    """Dequantize an :class:`SgEMEncoding` back to a float matrix."""
    n, k = enc.mag_codes.shape
    values = FP4_E2M1.decode(enc.sign_codes, enc.mag_codes)
    scales = _subgroup_scales(enc.scale_exponents, enc.sg_codes)
    subs = values.reshape(n, enc.n_subgroups, enc.sub_size) * scales[:, :, None]
    return subs.reshape(n, k)


def sg_em_quantize_groups(groups: np.ndarray, sub_size: int = 8,
                          adaptive: bool = True, scale_rule: str = "floor") -> np.ndarray:
    """Encode + decode in one step (the fake-quant transfer function)."""
    return sg_em_decode(sg_em_encode(groups, sub_size, adaptive, scale_rule))


class SgEM(TensorFormat):
    """Sg-EM as a standalone tensor format (weights side of M2XFP)."""

    def __init__(self, group_size: int = 32, sub_size: int = 8,
                 adaptive: bool = True, scale_rule: str = "floor") -> None:
        if group_size % sub_size != 0:
            raise ShapeError("group size must be a multiple of the subgroup size")
        self.group_size = int(group_size)
        self.sub_size = int(sub_size)
        self.adaptive = bool(adaptive)
        self.scale_rule = scale_rule
        mode = "adaptive" if adaptive else "fixed"
        self.name = f"sg-em-{mode}-g{group_size}s{sub_size}"

    @property
    def meta_bits_per_group(self) -> int:
        """2 bits per subgroup."""
        return 2 * (self.group_size // self.sub_size)

    @property
    def ebw(self) -> float:
        return (FP4_E2M1.total_bits
                + (self.meta_bits_per_group + E8M0_BITS) / self.group_size)

    def quantize(self, x: np.ndarray, axis: int = -1) -> np.ndarray:
        groups, view = to_groups(x, self.group_size, axis=axis)
        dq = sg_em_quantize_groups(groups, self.sub_size, self.adaptive, self.scale_rule)
        return from_groups(dq, view)
