"""NVFP4: FP4 elements with an FP8 (E4M3) group scale and a tensor rescale.

NVIDIA's Blackwell format (paper Sec. 2.2): a group of 16 FP4 elements
shares an E4M3 scale. Because E4M3 cannot span FP16's exponent range, a
per-tensor FP32 scale first normalizes the distribution so the largest
group scale maps to the E4M3 maximum (448).
"""

from __future__ import annotations

import numpy as np

from ..formats.grouping import from_groups, to_groups
from ..formats.registry import FP4_E2M1, FP8_E4M3
from .base import QuantResult, TensorFormat

__all__ = ["NVFP4", "nvfp4"]


class NVFP4(TensorFormat):
    """Two-level scaled FP4 (group E4M3 scale x tensor FP32 scale)."""

    def __init__(self, group_size: int = 16) -> None:
        self.name = f"nvfp4-g{group_size}"
        self.group_size = int(group_size)
        self.element = FP4_E2M1
        self.scale_format = FP8_E4M3

    @property
    def ebw(self) -> float:
        """4-bit elements + 8-bit scale per group (tensor scale amortizes away)."""
        return self.element.total_bits + self.scale_format.total_bits / self.group_size

    def quantize_detailed(self, x: np.ndarray, axis: int = -1,
                          tensor_amax: float | None = None) -> QuantResult:
        """Quantize with explicit scales returned.

        ``tensor_amax`` overrides the live tensor maximum with a statically
        calibrated one — the deployment reality for dynamic activations,
        where the tensor-level scale must be fixed ahead of time. Spikes
        above the calibrated range saturate the E4M3 group scale and clip.
        """
        groups, view = to_groups(x, self.group_size, axis=axis)
        if tensor_amax is None:
            tensor_amax = float(np.max(np.abs(groups), initial=0.0))
        if tensor_amax == 0.0:
            return QuantResult(dequantized=from_groups(groups, view),
                               scales=np.ones(groups.shape[0]), ebw=self.ebw,
                               details={"tensor_scale": 1.0})
        # Tensor scale chosen so the largest ideal group scale (amax/M) hits
        # the top of the E4M3 range.
        tensor_scale = tensor_amax / (self.element.max_value * self.scale_format.max_value)
        if tensor_scale == 0.0:
            # Every |x| below ~1.3e-320: the tensor scale underflows, so
            # every group scale is 0 and the group dequantizes to +0.0.
            zeros = np.zeros_like(groups)
            return QuantResult(dequantized=from_groups(zeros, view),
                               scales=np.zeros(len(groups)), ebw=self.ebw,
                               details={"tensor_scale": 0.0})
        group_amax = np.max(np.abs(groups), axis=1)
        ideal = group_amax / (self.element.max_value * tensor_scale)
        s8 = self.scale_format.quantize(ideal)  # saturates at 448 if miscalibrated
        scales = s8 * tensor_scale
        safe = np.where(scales > 0, scales, 1.0)
        q = self.element.quantize(groups / safe[:, None])
        dq = np.where(scales[:, None] > 0, q * safe[:, None], 0.0)
        return QuantResult(dequantized=from_groups(dq, view), scales=scales,
                           ebw=self.ebw, details={"tensor_scale": tensor_scale})

    def quantize(self, x: np.ndarray, axis: int = -1) -> np.ndarray:
        return self.quantize_detailed(x, axis=axis).dequantized

    def quantize_activation_calibrated(self, x: np.ndarray, tensor_amax: float,
                                       axis: int = -1) -> np.ndarray:
        """Online activation path with a pre-calibrated tensor scale,
        plan-routed like :meth:`TensorFormat.quantize_activation`."""
        from ..plan import lookup_plan
        plan = lookup_plan(self, "activation", x, axis)
        if plan is not None:
            return plan.run(x, tensor_amax=tensor_amax)
        return self.quantize_detailed(x, axis=axis, tensor_amax=tensor_amax).dequantized


#: The standard NVFP4 baseline (group 16) used throughout the evaluation.
nvfp4 = NVFP4()
