"""Group reshaping for block/group-wise quantization.

All MX-family quantizers operate on a 2-D view ``(n_groups, group_size)``
taken along one axis of the input tensor (the reduction axis of the GEMM,
per the OCP spec). These helpers move an arbitrary tensor into that view
with zero padding and move results back, exactly inverting the transform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import FormatError, ShapeError

__all__ = ["GroupView", "to_groups", "from_groups"]


@dataclass(frozen=True)
class GroupView:
    """Bookkeeping needed to undo :func:`to_groups`."""

    shape: tuple[int, ...]
    axis: int
    group_size: int
    axis_len: int
    padded_len: int


def to_groups(x: np.ndarray, group_size: int, axis: int = -1) -> tuple[np.ndarray, GroupView]:
    """View ``x`` as ``(n_groups, group_size)`` along ``axis``, zero padded.

    Returns the 2-D group matrix (a copy) and the :class:`GroupView` needed
    by :func:`from_groups` to restore the original shape.
    """
    x = np.asarray(x, dtype=np.float64)
    if group_size < 1:
        raise ShapeError(f"group_size must be >= 1, got {group_size}")
    if x.ndim == 0:
        raise ShapeError("a 0-d tensor has no axis to group along")
    if not np.isfinite(x).all():
        # A single NaN/Inf silently poisons the group's shared scale and
        # decodes to garbage; every group-wise quantizer funnels through
        # here, so this is the one place the contract can be enforced.
        raise FormatError("non-finite values (nan/inf) cannot be "
                          "group-quantized")
    axis = axis % x.ndim
    moved = np.moveaxis(x, axis, -1)
    axis_len = moved.shape[-1]
    padded_len = -(-axis_len // group_size) * group_size
    if padded_len != axis_len:
        pad = [(0, 0)] * (moved.ndim - 1) + [(0, padded_len - axis_len)]
        moved = np.pad(moved, pad)
    groups = moved.reshape(-1, group_size)
    view = GroupView(shape=x.shape, axis=axis, group_size=group_size,
                     axis_len=axis_len, padded_len=padded_len)
    return groups, view


def from_groups(groups: np.ndarray, view: GroupView) -> np.ndarray:
    """Invert :func:`to_groups`, dropping any zero padding."""
    groups = np.asarray(groups, dtype=np.float64)
    lead = [view.shape[i] for i in range(len(view.shape)) if i != view.axis]
    moved = groups.reshape(*lead, view.padded_len) if lead else groups.reshape(view.padded_len)
    if view.padded_len != view.axis_len:
        moved = moved[..., : view.axis_len]
    return np.moveaxis(moved, -1, view.axis)
