"""Elem-EM: element-level extra-mantissa metadata (Algorithm 1, Sec. 4.4.1).

The online activation quantization of M2XFP. Per group of ``k`` elements:

1. compute the E8M0 shared scale from the block maximum (OCP floor rule);
2. quantize every element to FP4 (E2M1);
3. per subgroup, identify the top-1 element *in the FP4 domain* (so the
   decoder can re-identify it), breaking ties by lowest index;
4. re-quantize that element's original value to FP6 (E2M3) under the same
   shared scale;
5. encode the FP6 value as 2 bits of metadata relative to the FP4 code via
   the +1-bias / clamp trick: ``meta = clamp(fp6_code + 1, fp4_code00,
   fp4_code11) & 0b11``. Decoding appends the metadata to the FP4 code and
   subtracts 1, recovering one of the FP6 values {-1, 0, +1, +2} steps from
   the FP4 point — the bias range the paper selects for alignment.

Everything operates on integer code arrays so the hardware decode unit can
be tested for bit-exact equivalence against this reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ShapeError
from ..formats.e8m0 import E8M0_BITS
from ..formats.floatspec import quantize_to_grid
from ..formats.grouping import from_groups, to_groups
from ..formats.registry import FP4_E2M1, FP6_E2M3
from ..mx.base import TensorFormat
from ..mx.scale_rules import shared_scale_exponent

__all__ = ["ElemEMEncoding", "elem_em_encode", "elem_em_decode",
           "elem_em_quantize_groups", "ElemEM", "META_BITS_PER_VALUE"]

META_BITS_PER_VALUE = 2


@dataclass
class ElemEMEncoding:
    """Bit-level result of Algorithm 1 over a ``(n_groups, k)`` matrix."""

    sign_codes: np.ndarray        # (n, k) 0/1 sign bits
    mag_codes: np.ndarray         # (n, k) 3-bit FP4 magnitude codes
    scale_exponents: np.ndarray   # (n,) shared-scale exponents (E8M0 range)
    metadata: np.ndarray          # (n, n_sub, top_k) 2-bit codes
    sub_size: int
    top_k: int

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
        """Metadata storage cost per group in bits."""
        return META_BITS_PER_VALUE * self.top_k * self.n_subgroups


def _top_indices(mag_sub: np.ndarray, top_k: int) -> np.ndarray:
    """Indices of the ``top_k`` largest FP4 magnitudes per subgroup.

    Ties resolve to the lowest index (Steps 3-4 of Algorithm 1): a stable
    descending sort on the integer codes gives exactly that order, and
    for the top-1 case ``argmax`` returns the same first maximum without
    the sort.
    """
    if top_k == 1:
        return np.argmax(mag_sub, axis=2)[:, :, None]
    return np.argsort(-mag_sub, axis=2, kind="stable")[:, :, :top_k]


def elem_em_encode(groups: np.ndarray, sub_size: int = 8, top_k: int = 1,
                   scale_rule: str = "floor") -> ElemEMEncoding:
    """Run Algorithm 1 over a ``(n_groups, k)`` matrix of FP16/FP32 data."""
    groups = np.asarray(groups, dtype=np.float64)
    if groups.ndim != 2:
        raise ShapeError("elem_em_encode expects a (n_groups, k) matrix")
    n, k = groups.shape
    if k % sub_size != 0:
        raise ShapeError(f"group size {k} not divisible by "
                         f"subgroup size {sub_size}")
    if not 1 <= top_k <= sub_size:
        raise ShapeError(f"top_k must be in [1, sub_size], got {top_k}")

    # Step 1: E8M0 shared scale from the block maximum.
    amax = np.max(np.abs(groups), axis=1)
    exps = shared_scale_exponent(amax, FP4_E2M1, scale_rule)
    scales = np.exp2(exps.astype(np.float64))

    # Step 2: baseline FP4 quantization under the shared scale.
    scaled = groups / scales[:, None]
    sign, mag = FP4_E2M1.encode(scaled)

    # Steps 3-4: top-k per subgroup in the FP4 code domain.
    n_sub = k // sub_size
    mag_sub = mag.reshape(n, n_sub, sub_size)
    top_idx = _top_indices(mag_sub, top_k)

    # Step 5: re-quantize the original values of the selected elements to FP6.
    scaled_sub = np.abs(scaled).reshape(n, n_sub, sub_size)
    top_scaled = np.take_along_axis(scaled_sub, top_idx, axis=2)
    fp6_codes = quantize_to_grid(top_scaled, FP6_E2M3.grid)

    # Steps 6-7: +1 bias, clamp to the FP4 code's 2-bit extension window.
    fp4_top = np.take_along_axis(mag_sub, top_idx, axis=2)
    lo = fp4_top << META_BITS_PER_VALUE
    encoded = fp6_codes + 1
    clamped = np.clip(encoded, lo, lo + 3)
    metadata = (clamped - lo).astype(np.int64)

    return ElemEMEncoding(sign_codes=sign, mag_codes=mag, scale_exponents=exps,
                          metadata=metadata, sub_size=sub_size, top_k=top_k)


def elem_em_decode(enc: ElemEMEncoding) -> np.ndarray:
    """Dequantize an :class:`ElemEMEncoding` back to a float matrix.

    The decoder re-identifies the top-k elements from the FP4 codes alone
    (as the hardware decode unit must) and applies the FP6 refinement.
    """
    n, k = enc.mag_codes.shape
    scales = np.exp2(enc.scale_exponents.astype(np.float64))
    values = FP4_E2M1.decode(enc.sign_codes, enc.mag_codes)

    n_sub = enc.n_subgroups
    mag_sub = enc.mag_codes.reshape(n, n_sub, enc.sub_size)
    top_idx = _top_indices(mag_sub, enc.top_k)
    fp4_top = np.take_along_axis(mag_sub, top_idx, axis=2)
    fp6_codes = ((fp4_top << META_BITS_PER_VALUE) | enc.metadata) - 1
    fp6_codes = np.clip(fp6_codes, 0, FP6_E2M3.code_count - 1)
    refined = FP6_E2M3.grid[fp6_codes]

    sign_sub = enc.sign_codes.reshape(n, n_sub, enc.sub_size)
    top_sign = np.take_along_axis(sign_sub, top_idx, axis=2)
    signed = np.where(top_sign != 0, -refined, refined)

    out = values.reshape(n, n_sub, enc.sub_size).copy()
    np.put_along_axis(out, top_idx, signed, axis=2)
    return out.reshape(n, k) * scales[:, None]


def elem_em_quantize_groups(groups: np.ndarray, sub_size: int = 8,
                            top_k: int = 1, scale_rule: str = "floor") -> np.ndarray:
    """Encode + decode in one step (the fake-quant transfer function)."""
    return elem_em_decode(elem_em_encode(groups, sub_size, top_k, scale_rule))


class ElemEM(TensorFormat):
    """Elem-EM as a standalone tensor format (activations side of M2XFP)."""

    def __init__(self, group_size: int = 32, sub_size: int = 8, top_k: int = 1,
                 scale_rule: str = "floor") -> None:
        if group_size % sub_size != 0:
            raise ShapeError("group size must be a multiple of the subgroup size")
        self.group_size = int(group_size)
        self.sub_size = int(sub_size)
        self.top_k = int(top_k)
        self.scale_rule = scale_rule
        self.name = f"elem-em-top{top_k}-g{group_size}s{sub_size}"

    @property
    def meta_bits_per_group(self) -> int:
        """2 bits per refined element, ``top_k`` per subgroup."""
        return META_BITS_PER_VALUE * self.top_k * (self.group_size // self.sub_size)

    @property
    def ebw(self) -> float:
        return (FP4_E2M1.total_bits
                + (self.meta_bits_per_group + E8M0_BITS) / self.group_size)

    def quantize(self, x: np.ndarray, axis: int = -1) -> np.ndarray:
        groups, view = to_groups(x, self.group_size, axis=axis)
        dq = elem_em_quantize_groups(groups, self.sub_size, self.top_k, self.scale_rule)
        return from_groups(dq, view)
