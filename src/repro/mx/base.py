"""Base classes shared by every tensor quantization format in the library.

A :class:`TensorFormat` is the unit the model wrappers and the evaluation
harness consume: it fake-quantizes a tensor (quantize + dequantize in one
step, the standard way to simulate low-bit inference in high precision) and
reports its equivalent bit width. Hybrid formats like M2XFP override the
weight/activation entry points separately.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..formats.e8m0 import E8M0_BITS
from ..formats.grouping import from_groups, to_groups
from .scale_rules import shared_scale_exponent

__all__ = ["TensorFormat", "BlockFormat", "QuantResult", "MIN_POW2_SCALE"]

#: The smallest positive float64, ``2**-1074``. A power-of-two scale
#: below it is 0, and dividing a group by it gives inf or NaN, so the
#: unclamped exponent rules (MSFP, SMX) never go below it.
MIN_POW2_SCALE = float(np.finfo(np.float64).smallest_subnormal)


@dataclass
class QuantResult:
    """Detailed output of a group quantization pass."""

    dequantized: np.ndarray
    scales: np.ndarray
    ebw: float
    details: dict[str, Any] = field(default_factory=dict)


class TensorFormat(abc.ABC):
    """A (fake-)quantization transfer function plus its storage cost."""

    name: str = "abstract"

    @property
    @abc.abstractmethod
    def ebw(self) -> float:
        """Equivalent bit width: element bits + amortized scale/metadata."""

    @abc.abstractmethod
    def quantize(self, x: np.ndarray, axis: int = -1) -> np.ndarray:
        """Quantize-dequantize ``x`` group-wise along ``axis``."""

    def quantize_weight(self, w: np.ndarray, axis: int = -1) -> np.ndarray:
        """Weight entry point (offline; hybrids may use a richer search).

        Routed through the compiled-plan cache (:mod:`repro.plan`) when
        a fused executor exists for this format under the default fast
        dispatch; otherwise falls back to :meth:`quantize`. Both paths
        are bit-identical.
        """
        from ..plan import lookup_plan
        plan = lookup_plan(self, "weight", w, axis)
        if plan is not None:
            return plan.run(w)
        return self.quantize(w, axis=axis)

    def quantize_activation(self, x: np.ndarray, axis: int = -1) -> np.ndarray:
        """Activation entry point (online; must stay lightweight).

        Plan-routed exactly like :meth:`quantize_weight`.
        """
        from ..plan import lookup_plan
        plan = lookup_plan(self, "activation", x, axis)
        if plan is not None:
            return plan.run(x)
        return self.quantize(x, axis=axis)

    @property
    def weight_ebw(self) -> float:
        """EBW of the weight path (differs for hybrid formats)."""
        return self.ebw

    @property
    def activation_ebw(self) -> float:
        """EBW of the activation path."""
        return self.ebw

    @property
    def weight_cache_key(self):
        """Hashable fingerprint of this format's weight-quantization config.

        Used by :class:`repro.models.quantized.QuantizedLM` to share
        offline weight quantization between experiment arms that apply
        the same format to the same model. The default walks the
        instance's scalar configuration (names alone are not enough —
        e.g. two ``SgEM`` with different scale rules share a name) and
        recurses into nested formats and element specs. Any attribute it
        cannot fingerprint conservatively returns ``None``, which
        disables caching for the format.
        """
        parts: list = [type(self).__name__]
        for attr in sorted(vars(self)):
            value = vars(self)[attr]
            if isinstance(value, (bool, int, float, str, bytes, tuple)):
                parts.append((attr, value))
            elif isinstance(value, TensorFormat):
                nested = value.weight_cache_key
                if nested is None:
                    return None
                parts.append((attr, nested))
            elif hasattr(value, "name") and hasattr(value, "total_bits"):
                # Scalar element specs (FloatSpec / IntSpec / GridSpec).
                parts.append((attr, value.name, value.total_bits))
            else:
                return None
        return tuple(parts)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name} ebw={self.ebw:.4g}>"


class BlockFormat(TensorFormat):
    """Group-wise format with an E8M0 (or otherwise fixed-width) scale.

    Subclasses implement :meth:`quantize_groups` over a ``(n, k)`` matrix;
    this class handles grouping, padding and EBW accounting.
    """

    def __init__(self, name: str, element, group_size: int,
                 scale_rule: str = "floor", scale_bits: int = E8M0_BITS,
                 meta_bits_per_group: int = 0) -> None:
        self.name = name
        self.element = element
        self.group_size = int(group_size)
        self.scale_rule = scale_rule
        self.scale_bits = int(scale_bits)
        self.meta_bits_per_group = int(meta_bits_per_group)

    @property
    def ebw(self) -> float:
        """Eq. 2: ``B_elem + (B_meta + B_scale) / k``."""
        return (self.element.total_bits
                + (self.meta_bits_per_group + self.scale_bits) / self.group_size)

    def group_scales(self, groups: np.ndarray) -> np.ndarray:
        """Per-group power-of-two scales from the configured rule."""
        amax = np.max(np.abs(groups), axis=1)
        e = shared_scale_exponent(amax, self.element, self.scale_rule)
        return np.exp2(e.astype(np.float64))

    def quantize_groups(self, groups: np.ndarray) -> QuantResult:
        """Quantize a ``(n_groups, k)`` matrix; subclasses may override."""
        scales = self.group_scales(groups)
        q = self.element.quantize(groups / scales[:, None])
        return QuantResult(dequantized=q * scales[:, None], scales=scales, ebw=self.ebw)

    def quantize_detailed(self, x: np.ndarray, axis: int = -1) -> QuantResult:
        """Full-tensor quantization returning scales and details."""
        groups, view = to_groups(x, self.group_size, axis=axis)
        result = self.quantize_groups(groups)
        result.dequantized = from_groups(result.dequantized, view)
        return result

    def quantize(self, x: np.ndarray, axis: int = -1) -> np.ndarray:
        return self.quantize_detailed(x, axis=axis).dequantized
