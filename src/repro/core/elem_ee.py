"""Elem-EE: element-level extra-exponent metadata.

The fourth corner of the paper's strategy taxonomy (Fig. 5). The top-1
element of each subgroup receives a 2-bit exponent *increment*, letting it
represent values up to ``6 * 2^3`` over the shared scale. Section 4.2 omits
this arm from the Pareto plots because extra range cannot repair the block
maximum's rounding error (the max is already in range, just misaligned) —
this implementation exists so the claim can be measured directly.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from ..formats.e8m0 import E8M0_BITS
from ..formats.grouping import from_groups, to_groups
from ..formats.registry import FP4_E2M1
from ..mx.base import TensorFormat
from ..mx.scale_rules import shared_scale_exponent

__all__ = ["elem_ee_quantize_groups", "ElemEE"]


def elem_ee_quantize_groups(groups: np.ndarray, sub_size: int = 8,
                            meta_bits: int = 2, scale_rule: str = "floor") -> np.ndarray:
    """Quantize with a per-subgroup top-1 exponent increment."""
    groups = np.asarray(groups, dtype=np.float64)
    if groups.ndim != 2:
        raise ShapeError("elem_ee_quantize_groups expects a (n_groups, k) matrix")
    n, k = groups.shape
    if k % sub_size != 0:
        raise ShapeError(f"group size {k} not divisible by subgroup size {sub_size}")
    n_sub = k // sub_size
    o_max = (1 << meta_bits) - 1

    amax = np.max(np.abs(groups), axis=1)
    exps = shared_scale_exponent(amax, FP4_E2M1, scale_rule)
    scales = np.exp2(exps.astype(np.float64))
    scaled = groups / scales[:, None]
    _, mag = FP4_E2M1.encode(scaled)
    dq = FP4_E2M1.quantize(scaled)

    mag_sub = mag.reshape(n, n_sub, sub_size)
    top_idx = np.argmax(mag_sub, axis=2)[:, :, None]
    scaled_sub = scaled.reshape(n, n_sub, sub_size)
    top_val = np.take_along_axis(scaled_sub, top_idx, axis=2)

    # Pick the exponent increment minimizing the top element's error.
    best = FP4_E2M1.quantize(top_val)
    best_err = np.abs(best - top_val)
    for off in range(1, o_max + 1):
        cand = FP4_E2M1.quantize(top_val / (1 << off)) * (1 << off)
        err = np.abs(cand - top_val)
        better = err < best_err
        best = np.where(better, cand, best)
        best_err = np.where(better, err, best_err)

    out = dq.reshape(n, n_sub, sub_size).copy()
    np.put_along_axis(out, top_idx, best, axis=2)
    return out.reshape(n, k) * scales[:, None]


class ElemEE(TensorFormat):
    """Elem-EE as a standalone tensor format (taxonomy completeness)."""

    def __init__(self, group_size: int = 32, sub_size: int = 8, meta_bits: int = 2,
                 scale_rule: str = "floor") -> None:
        if group_size % sub_size != 0:
            raise ShapeError("group size must be a multiple of the subgroup size")
        self.group_size = int(group_size)
        self.sub_size = int(sub_size)
        self.meta_bits = int(meta_bits)
        self.scale_rule = scale_rule
        self.name = f"elem-ee-{meta_bits}b-g{group_size}s{sub_size}"

    @property
    def meta_bits_per_group(self) -> int:
        """``meta_bits`` per subgroup (top-1 only)."""
        return self.meta_bits * (self.group_size // self.sub_size)

    @property
    def ebw(self) -> float:
        return (FP4_E2M1.total_bits
                + (self.meta_bits_per_group + E8M0_BITS) / self.group_size)

    def quantize(self, x: np.ndarray, axis: int = -1) -> np.ndarray:
        groups, view = to_groups(x, self.group_size, axis=axis)
        dq = elem_ee_quantize_groups(groups, self.sub_size, self.meta_bits,
                                     self.scale_rule)
        return from_groups(dq, view)
