"""Microsoft Floating Point (MSFP) block formats: MSFP-12 / MSFP-16.

Classic block floating point: an 8-bit shared exponent over sign-magnitude
integer mantissas. The format number counts mantissa-word bits plus the
shared exponent (MSFP-12 = 4-bit elements + 8-bit exponent).
"""

from __future__ import annotations

import numpy as np

from ..formats.e8m0 import E8M0_BITS
from ..formats.intspec import IntSpec
from .base import MIN_POW2_SCALE, BlockFormat, QuantResult

__all__ = ["MSFP", "MSFP12", "MSFP16", "msfp12", "msfp16"]


class MSFP(BlockFormat):
    """Block floating point with INT mantissas and a pow-2 shared exponent."""

    def __init__(self, name: str, element_bits: int, group_size: int) -> None:
        element = IntSpec(f"int{element_bits}", element_bits)
        super().__init__(name, element, group_size, scale_rule="floor",
                         scale_bits=E8M0_BITS)

    def quantize_groups(self, groups: np.ndarray) -> QuantResult:
        imax = self.element.max_value
        amax = np.max(np.abs(groups), axis=1)
        # The exponent never goes below 2**-1074's: a group whose
        # ``amax / imax`` underflows to 0 keeps a nonzero scale.
        ratio = np.maximum(np.where(amax > 0, amax, 1.0) / imax, MIN_POW2_SCALE)
        e = np.where(amax > 0, np.ceil(np.log2(ratio)), 0.0)
        scales = np.exp2(e)
        q = self.element.quantize(groups / scales[:, None])
        return QuantResult(dequantized=q * scales[:, None], scales=scales, ebw=self.ebw)


def MSFP12(group_size: int = 16) -> MSFP:
    """MSFP-12: 4-bit sign-magnitude mantissas + 8-bit shared exponent."""
    return MSFP(f"msfp12-g{group_size}", element_bits=4, group_size=group_size)


def MSFP16(group_size: int = 16) -> MSFP:
    """MSFP-16: 8-bit sign-magnitude mantissas + 8-bit shared exponent."""
    return MSFP(f"msfp16-g{group_size}", element_bits=8, group_size=group_size)


msfp12 = MSFP12()
msfp16 = MSFP16()
