"""Shared Microexponents (SMX) formats: SMX4 / SMX6 / SMX9 (ISCA'23).

Two-level block floating point: ``k1`` elements (16) share an 8-bit scale
and each ``k2``-element subgroup (2) carries a 1-bit micro-exponent that
shifts its local scale down by one octave when both members are small.
The format-name digit counts sign + shared micro-exponent + mantissa bits
(SMX4 = 1 + 1 + 2, stored as INT3 mantissas).
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from ..formats.e8m0 import E8M0_BITS
from ..formats.intspec import IntSpec
from .base import MIN_POW2_SCALE, BlockFormat, QuantResult

__all__ = ["SMX", "SMX4", "SMX6", "SMX9", "smx4"]


class SMX(BlockFormat):
    """Generic two-level shared-microexponent block format."""

    def __init__(self, name: str, man_bits: int, group_size: int = 16,
                 sub_size: int = 2) -> None:
        if group_size % sub_size != 0:
            raise ShapeError("group size must be a multiple of the subgroup size")
        element = IntSpec(f"int{man_bits + 1}", man_bits + 1)
        meta_bits = group_size // sub_size  # one micro-exponent bit per pair
        super().__init__(name, element, group_size, scale_rule="floor",
                         scale_bits=E8M0_BITS, meta_bits_per_group=meta_bits)
        self.sub_size = int(sub_size)

    def quantize_groups(self, groups: np.ndarray) -> QuantResult:
        """Quantize with a per-pair 1-bit exponent refinement."""
        imax = self.element.max_value
        amax = np.max(np.abs(groups), axis=1)
        # Power-of-two floor rule over the mantissa range, like classic BFP
        # (and like MXFP4's floor rule): the block maximum can clip, which
        # is the error mode that makes SMX4 collapse at 4 bits.
        p = 2.0 ** np.floor(np.log2(imax))
        # The scale never goes below 2**-1074 (a group whose ``amax / p``
        # underflows to 0 keeps a nonzero scale), and a scale at that
        # floor is never halved, so no local scale is 0.
        ratio = np.maximum(np.where(amax > 0, amax, 1.0) / p, MIN_POW2_SCALE)
        e = np.where(amax > 0, np.floor(np.log2(ratio)), 0.0)
        scales = np.exp2(e)
        n, k = groups.shape
        pairs = groups.reshape(n, k // self.sub_size, self.sub_size)
        pair_max = np.max(np.abs(pairs), axis=2)
        # Micro-exponent bit: halve the local scale when the pair fits.
        micro = ((pair_max <= scales[:, None] * imax / 2.0)
                 & (scales > MIN_POW2_SCALE)[:, None]).astype(np.float64)
        local = scales[:, None] / np.exp2(micro)
        q = self.element.quantize(pairs / local[:, :, None])
        dq = (q * local[:, :, None]).reshape(n, k)
        return QuantResult(dequantized=dq, scales=scales, ebw=self.ebw,
                           details={"micro_exponents": micro})


def SMX4(group_size: int = 16, sub_size: int = 2) -> SMX:
    """SMX4: INT3 mantissas, 1-bit pair micro-exponent (EBW 4.0)."""
    return SMX(f"smx4-g{group_size}", man_bits=2, group_size=group_size, sub_size=sub_size)


def SMX6(group_size: int = 16, sub_size: int = 2) -> SMX:
    """SMX6: INT5 mantissas under the same two-level scaling."""
    return SMX(f"smx6-g{group_size}", man_bits=4, group_size=group_size, sub_size=sub_size)


def SMX9(group_size: int = 16, sub_size: int = 2) -> SMX:
    """SMX9: INT8 mantissas under the same two-level scaling."""
    return SMX(f"smx9-g{group_size}", man_bits=7, group_size=group_size, sub_size=sub_size)


#: The SMX4 baseline used in Fig. 3 and Tbl. 2 (group 16, pairs of 2).
smx4 = SMX4()
