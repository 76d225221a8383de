"""Equivalent bit width accounting (Eq. 2).

``EBW = B_elem + (B_meta + B_scale) / k`` — the effective storage cost per
element once the shared scale and group metadata are amortized. All DSE
plots in the paper use this as their x-axis.
"""

from __future__ import annotations

from ..errors import ConfigError

__all__ = ["ebw"]


def ebw(element_bits: float, group_size: int, scale_bits: float = 8,
        meta_bits_per_group: float = 0.0) -> float:
    """Equivalent bit width from raw bit counts (Eq. 2)."""
    if group_size < 1:
        raise ConfigError("group_size must be >= 1")
    return element_bits + (meta_bits_per_group + scale_bits) / group_size
