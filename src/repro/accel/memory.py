"""Memory organization of M2XFP tensors on the accelerator (Sec. 5.2).

The Sec. 5.2 layout is the codec's Elem-EM / Sg-EM container (see
:mod:`repro.codec`; m2xfp serves one or the other per operand): each
group's FP4 codes, E8M0 scale and 2-bit metadata fields live in three
separately contiguous streams, ``elements``, ``scales`` and ``meta``.
:class:`MemoryLayout` maps such a container onto the three on-chip
regions and cuts each group's record from the streams' bytes;
:class:`DispatchUnit` serves the records to the decode units and PE
array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..codec import PackedTensor
from ..errors import ShapeError

__all__ = ["GroupRecord", "MemoryLayout", "DispatchUnit"]

#: The three regions, named as the container's streams.
REGIONS = ("elements", "scales", "meta")


@dataclass(frozen=True)
class GroupRecord:
    """One group's worth of aligned fields, as the dispatch unit emits it."""

    element_bytes: np.ndarray  # group_size/2 bytes of packed FP4 codes
    scale_byte: int            # E8M0 code
    meta_bytes: np.ndarray     # the group's packed 2-bit metadata fields


class MemoryLayout:
    """Byte-level layout of a packed container in the three regions.

    The container's streams must be exactly :data:`REGIONS`: one E8M0
    byte per group (no NVFP4-family tensor scale), and a whole number
    of element and metadata bytes per group, so every record starts on
    a byte. Anything else raises
    :class:`ShapeError` here rather than serving misaligned records.
    """

    def __init__(self, packed: PackedTensor) -> None:
        if packed.streams.keys() != set(REGIONS):
            raise ShapeError(f"the Sec. 5.2 layout needs streams {REGIONS}, "
                             f"the container has {tuple(packed.streams)}")
        scales = packed.stream("scales")
        if scales.width != 8 or not scales.count or packed.extra:
            raise ShapeError(f"the Sec. 5.2 layout holds one E8M0 byte per "
                             f"group and no tensor scale; the container "
                             f"has {scales.count} scales of {scales.width} "
                             f"bits and header scalars {packed.extra}")
        self.n_groups = scales.count
        #: Each region's bytes, and its bytes per group.
        self.regions, self.strides = {}, {}
        for name in REGIONS:
            s = packed.stream(name)
            bits = s.width * s.count
            if bits % (8 * self.n_groups):
                raise ShapeError(f"stream {name!r} holds {bits} bits, not a "
                                 f"whole number of bytes for each of "
                                 f"{self.n_groups} groups")
            self.regions[name] = np.frombuffer(s.data, dtype=np.uint8)
            self.strides[name] = bits // (8 * self.n_groups)

    def _cut(self, name: str, group_index: int) -> np.ndarray:
        stride = self.strides[name]
        return self.regions[name][group_index * stride:
                                  (group_index + 1) * stride]

    def record(self, group_index: int) -> GroupRecord:
        """Fetch one group's aligned record."""
        if not 0 <= group_index < self.n_groups:
            raise ShapeError(f"group index {group_index} out of range")
        return GroupRecord(element_bytes=self._cut("elements", group_index),
                           scale_byte=int(self.regions["scales"][group_index]),
                           meta_bytes=self._cut("meta", group_index))


class DispatchUnit:
    """Streams the aligned group records of a layout in address order."""

    def __init__(self, layout: MemoryLayout) -> None:
        self.layout = layout

    def stream(self):
        """Yield every group record in address order."""
        for i in range(self.layout.n_groups):
            yield self.layout.record(i)
