"""Streaming quantization engine (Fig. 12): online Elem-EM encoding.

A two-stage pipeline: stage 1 computes the group scale and the FP4/FP6
candidates (Scaling & Normalize Unit); stage 2 picks the subgroup top-1,
applies the bias-clamp encoding, and packs data + metadata (Encode Unit).
Functionally it is exactly Algorithm 1; the timing model processes one
group per cycle once the 2-cycle pipeline is filled, which is what makes
it streaming-safe in front of the systolic array.
"""

from __future__ import annotations

import numpy as np

from ..codec import PackedTensor, encode
from ..core.elem_em import ElemEM, ElemEMEncoding, elem_em_encode
from ..errors import ShapeError

__all__ = ["QuantizationEngine"]


class QuantizationEngine:
    """Functional + timing model of the online activation quantizer."""

    PIPELINE_DEPTH = 2

    def __init__(self, group_size: int = 32, sub_size: int = 8) -> None:
        if group_size % sub_size != 0:
            raise ShapeError("group size must be a multiple of the subgroup size")
        self.group_size = int(group_size)
        self.sub_size = int(sub_size)

    def encode(self, groups: np.ndarray) -> ElemEMEncoding:
        """Run Algorithm 1 on ``(n_groups, k)`` activations."""
        return elem_em_encode(groups, sub_size=self.sub_size, top_k=1)

    def encode_packed(self, groups: np.ndarray) -> PackedTensor:
        """Encode into the Sec. 5.2 memory layout: the codec's Elem-EM
        container (see :mod:`repro.accel.memory`)."""
        return encode(ElemEM(self.group_size, self.sub_size), groups,
                      op="activation")

    def cycles(self, n_groups: int) -> int:
        """One group per cycle after the pipeline fills."""
        if n_groups <= 0:
            return 0
        return int(n_groups) + self.PIPELINE_DEPTH - 1

    def stalls_systolic_array(self, groups_per_cycle_needed: float) -> bool:
        """True when the array would consume groups faster than 1/cycle."""
        return groups_per_cycle_needed > 1.0
