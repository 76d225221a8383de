"""Sg-EE: subgroup-level extra-exponent metadata (the SMX-like strategy).

Each subgroup carries 1-2 bits selecting a local exponent *decrement*
``d`` so its elements quantize against ``2^(E - d)`` — expanding effective
dynamic range downward for small subgroups. Under the fixed shared scale
the decrement is chosen directly from the subgroup maximum (largest ``d``
that does not clip); the adaptive mode searches ``d`` and the group bias
``b`` by MSE, mirroring the Sg-EM search.

The paper's DSE (Figs. 6-7) shows this strategy cannot fix the dominant
block-maximum error — it is implemented to reproduce exactly that result.
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
from .sg_em import ADAPTIVE_BIASES

__all__ = ["SgEEEncoding", "sg_ee_encode", "sg_ee_decode",
           "sg_ee_quantize_groups", "SgEE"]


@dataclass
class SgEEEncoding:
    """Bit-level result of Sg-EE quantization."""

    sign_codes: np.ndarray
    mag_codes: np.ndarray
    scale_exponents: np.ndarray
    sg_decrements: np.ndarray     # (n, n_sub) exponent decrements
    sub_size: int
    meta_bits: int

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
        """``meta_bits`` per subgroup."""
        return self.meta_bits * self.n_subgroups


def _fixed_decrements(subs: np.ndarray, scale: np.ndarray, d_max: int) -> np.ndarray:
    """Largest non-clipping decrement per subgroup under a fixed scale.

    All-zero subgroups take the maximum decrement (their elements encode
    to zero regardless, and the deepest local range is the natural limit
    of "does not clip").
    """
    sub_max = np.max(np.abs(subs), axis=2)
    head = np.full(sub_max.shape, float(d_max))
    nonzero = sub_max > 0
    limit = np.broadcast_to(FP4_E2M1.max_value * scale[:, None], sub_max.shape)
    head[nonzero] = np.floor(np.log2(limit[nonzero] / sub_max[nonzero]))
    return np.clip(head, 0, d_max).astype(np.int64)


def sg_ee_encode(groups: np.ndarray, sub_size: int = 8, meta_bits: int = 2,
                 adaptive: bool = False, scale_rule: str = "floor") -> SgEEEncoding:
    """Quantize ``(n_groups, k)`` data with per-subgroup exponent decrements."""
    groups = np.asarray(groups, dtype=np.float64)
    if groups.ndim != 2:
        raise ShapeError("sg_ee_encode expects a (n_groups, k) matrix")
    n, k = groups.shape
    if k % sub_size != 0:
        raise ShapeError(f"group size {k} not divisible by subgroup size {sub_size}")
    if meta_bits < 1:
        raise ShapeError("meta_bits must be >= 1")
    n_sub = k // sub_size
    subs = groups.reshape(n, n_sub, sub_size)
    d_max = (1 << meta_bits) - 1

    amax = np.max(np.abs(groups), axis=1)
    base_e = shared_scale_exponent(amax, FP4_E2M1, scale_rule)

    if not adaptive:
        exps = base_e
        scale = np.exp2(exps.astype(np.float64))
        decs = _fixed_decrements(subs, scale, d_max)
    elif not use_reference():
        # Batched code-space search over the full (bias x decrement) grid,
        # replacing 12 sequential quantization passes with one kernel call.
        exps_all = clamp_exponent(base_e[:, None] + np.asarray(ADAPTIVE_BIASES))
        scales_all = np.exp2(exps_all.astype(np.float64))
        divs = np.asarray([1 << d for d in range(d_max + 1)], dtype=np.float64)
        cand = (scales_all[:, :, None] / divs).reshape(n, -1)
        codes, err = candidate_search(subs, cand, FP4_E2M1.grid, FP4_E2M1.boundaries)
        outer, decs, _ = hierarchical_select(
            err, len(ADAPTIVE_BIASES), d_max + 1,
            fallback_outer=ADAPTIVE_BIASES.index(0))
        mag = gather_candidate_codes(codes, outer, decs, d_max + 1)
        sign = np.signbit(subs).astype(np.int64)
        return SgEEEncoding(sign_codes=sign.reshape(n, k),
                            mag_codes=mag.reshape(n, k),
                            scale_exponents=exps_all[np.arange(n), outer],
                            sg_decrements=decs, sub_size=sub_size,
                            meta_bits=meta_bits)
    else:
        best_err = np.full(n, np.inf)
        decs = np.zeros((n, n_sub), dtype=np.int64)
        exps = base_e.copy()
        for bias in ADAPTIVE_BIASES:
            cand_e = clamp_exponent(base_e + bias)
            scale = np.exp2(cand_e.astype(np.float64))
            sub_err = np.full((n, n_sub), np.inf)
            sub_dec = np.zeros((n, n_sub), dtype=np.int64)
            for d in range(d_max + 1):
                s = scale[:, None, None] / (1 << d)
                q = FP4_E2M1.quantize(subs / s)
                with np.errstate(over="ignore"):  # inf error: never taken
                    err = np.sum((q * s - subs) ** 2, axis=2)
                better = err < sub_err
                sub_err = np.where(better, err, sub_err)
                sub_dec = np.where(better, d, sub_dec)
            group_err = np.sum(sub_err, axis=1)
            improved = group_err < best_err
            best_err = np.where(improved, group_err, best_err)
            decs = np.where(improved[:, None], sub_dec, decs)
            exps = np.where(improved, cand_e, exps)
        scale = np.exp2(exps.astype(np.float64))

    local = scale[:, None] / np.exp2(decs.astype(np.float64))
    sign, mag = FP4_E2M1.encode((subs / local[:, :, None]).reshape(n, k))
    return SgEEEncoding(sign_codes=sign, mag_codes=mag, scale_exponents=exps,
                        sg_decrements=decs, sub_size=sub_size, meta_bits=meta_bits)


def sg_ee_decode(enc: SgEEEncoding) -> np.ndarray:
    """Dequantize an :class:`SgEEEncoding` back to a float matrix."""
    n, k = enc.mag_codes.shape
    values = FP4_E2M1.decode(enc.sign_codes, enc.mag_codes)
    scale = np.exp2(enc.scale_exponents.astype(np.float64))
    local = scale[:, None] / np.exp2(enc.sg_decrements.astype(np.float64))
    subs = values.reshape(n, enc.n_subgroups, enc.sub_size) * local[:, :, None]
    return subs.reshape(n, k)


def sg_ee_quantize_groups(groups: np.ndarray, sub_size: int = 8, meta_bits: int = 2,
                          adaptive: bool = False, scale_rule: str = "floor") -> np.ndarray:
    """Encode + decode in one step."""
    return sg_ee_decode(sg_ee_encode(groups, sub_size, meta_bits, adaptive, scale_rule))


class SgEE(TensorFormat):
    """Sg-EE as a standalone tensor format (DSE comparison arm)."""

    def __init__(self, group_size: int = 32, sub_size: int = 8, meta_bits: int = 2,
                 adaptive: bool = False, scale_rule: str = "floor") -> None:
        if group_size % sub_size != 0:
            raise ShapeError("group size must be a multiple of the subgroup size")
        self.group_size = int(group_size)
        self.sub_size = int(sub_size)
        self.meta_bits = int(meta_bits)
        self.adaptive = bool(adaptive)
        self.scale_rule = scale_rule
        mode = "adaptive" if adaptive else "fixed"
        self.name = f"sg-ee-{meta_bits}b-{mode}-g{group_size}s{sub_size}"

    @property
    def meta_bits_per_group(self) -> int:
        """``meta_bits`` per subgroup."""
        return self.meta_bits * (self.group_size // self.sub_size)

    @property
    def ebw(self) -> float:
        return (FP4_E2M1.total_bits
                + (self.meta_bits_per_group + E8M0_BITS) / self.group_size)

    def quantize(self, x: np.ndarray, axis: int = -1) -> np.ndarray:
        groups, view = to_groups(x, self.group_size, axis=axis)
        dq = sg_ee_quantize_groups(groups, self.sub_size, self.meta_bits,
                                   self.adaptive, self.scale_rule)
        return from_groups(dq, view)
