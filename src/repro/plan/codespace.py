"""The code-space result contract between plan executors and the codec.

A :class:`CodeSpaceResult` is what a fused executor hands the codec
instead of (or alongside) a dequantized float64 tensor: the integer
element codes, scale codes and metadata bits, already in the exact
values and stream order the format's codec packs, so ``PackedTensor``
bytes can be written straight from code space with no intermediate
dequantize/re-derive round trip.

Ownership and materialization rules (DESIGN.md §11):

* every stream's ``values`` array is freshly allocated by the executor
  and owned by the result — the codec packs it without copying or
  mutating it, and nothing the executor later does can alias it;
* the dequantized float64 tensor is **lazy**: it is not computed until
  :attr:`CodeSpaceResult.dequantized` is first read (the ``verify=True``
  path), so an unverified fused encode never materializes floats at all;
* stream order is the codec's packing order for the family (e.g.
  ``scales, elements`` for plain block formats; ``elements, scales,
  meta[, refined]`` for the metadata-augmented families), which lets the
  codec's ``encode_from_codes`` validate the pairing structurally;
* ``extra`` holds the container header scalars the streams depend on
  (the NVFP4 family's ``float.hex()`` tensor scale, or its per-row
  float64 array for several row blocks, fp16's storage flag), which
  ``encode_from_codes`` writes into the header before it checks the
  layout.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

__all__ = ["CodeStream", "CodeSpaceResult"]


class CodeStream:
    """One named integer code stream, pack-ready: non-negative values
    strictly below ``2**width``, flattened row-major when packed."""

    __slots__ = ("name", "values", "width")

    def __init__(self, name: str, values: np.ndarray, width: int) -> None:
        self.name = name
        self.values = values
        self.width = int(width)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CodeStream({self.name!r}, shape={np.shape(self.values)}, "
                f"width={self.width})")


class CodeSpaceResult:
    """Element/scale/metadata code arrays plus a lazy dequantized view.

    ``dequantize`` is a zero-argument closure producing the float64
    tensor the executor's plain ``run`` path would have returned; it is
    invoked at most once, on first access of :attr:`dequantized`.
    ``extra`` is the container header scalars (empty for the families
    whose header holds none).
    """

    __slots__ = ("streams", "extra", "_dequantize", "_dequantized")

    def __init__(self, streams: Iterable[CodeStream],
                 dequantize: Callable[[], np.ndarray],
                 extra: dict | None = None) -> None:
        self.streams = tuple(streams)
        self.extra = {} if extra is None else extra
        self._dequantize = dequantize
        self._dequantized = None

    @property
    def dequantized(self) -> np.ndarray:
        """The dequantized float64 tensor, materialized on first read."""
        if self._dequantized is None:
            self._dequantized = self._dequantize()
        return self._dequantized

    @property
    def stream_names(self) -> tuple:
        return tuple(s.name for s in self.streams)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CodeSpaceResult(streams={self.stream_names})"
