"""Parameterized mini-float formats (E*M* grids) with bit-exact semantics.

Every low-bit float used by the paper (FP4 E2M1, FP6 E2M3/E3M2, FP8
E4M3/E5M2, and the FP16/BF16 references) is an instance of :class:`FloatSpec`.
A spec owns the full grid of representable magnitudes, indexed by *magnitude
code* (``exponent_field << man_bits | mantissa_field``), which makes two
properties available everywhere in the library:

* rounding is round-to-nearest-even **in code space** — positive mini-float
  bit patterns are consecutive integers in value order, so ties go to the
  value whose code is even, which is exactly "even mantissa LSB";
* the Algorithm-1 metadata encoding relies on FP4 codes being a truncated
  prefix of FP6 codes; keeping codes explicit lets us test that bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import FormatError
from ..kernels.dispatch import use_reference
from ..kernels.lut import (cached_boundaries, cached_thresholds,
                           exact_boundaries, threshold_codes)

__all__ = ["FloatSpec", "quantize_to_grid", "quantize_to_grid_reference"]


def quantize_to_grid_reference(x: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Reference nearest-entry search (the pre-kernel formulation).

    Kept verbatim as the semantic ground truth for the boundary-cache
    kernel; selected globally by ``REPRO_REFERENCE_KERNELS=1``.
    """
    ax = np.asarray(x, dtype=np.float64)
    n = grid.shape[0]
    pos = np.searchsorted(grid, ax, side="left")
    lo = np.clip(pos - 1, 0, n - 1)
    hi = np.clip(pos, 0, n - 1)
    d_lo = ax - grid[lo]
    d_hi = grid[hi] - ax
    take_hi = (d_hi < d_lo) | ((d_hi == d_lo) & (hi % 2 == 0))
    return np.where(take_hi, hi, lo)


def quantize_to_grid(x: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Round ``|x|`` to the nearest entry of an ascending ``grid``.

    Ties round to the entry with the even index (round-to-nearest-even in
    code space); values beyond the last entry saturate. Returns grid
    *indices*, not values. Dispatches to a cached decision-boundary
    ``searchsorted`` (one binary search, no per-call grid arithmetic);
    grids whose midpoint boundaries are not provably exact (non-dyadic
    grids like BlockDialect's dialect levels) go through bisected
    decision thresholds (:func:`repro.kernels.lut.compiled_thresholds`)
    instead. ``REPRO_REFERENCE_KERNELS=1`` selects the original search;
    all paths are bit-identical.
    """
    if not use_reference():
        ax = np.asarray(x, dtype=np.float64)
        bounds = cached_boundaries(grid)
        if bounds is not None:
            return np.searchsorted(bounds, ax, side="left")
        return np.asarray(threshold_codes(cached_thresholds(grid), ax),
                          dtype=np.int64)
    return quantize_to_grid_reference(x, grid)


@dataclass(frozen=True)
class FloatSpec:
    """A sign-magnitude mini-float format with ``exp_bits``/``man_bits``.

    Values follow IEEE conventions: the zero exponent field holds
    subnormals ``(m / 2^M) * 2^(1 - bias)``; other fields hold normals
    ``(1 + m / 2^M) * 2^(e - bias)``. ``reserved_top_codes`` removes the
    highest magnitude codes from the grid (e.g. the OCP E4M3 NaN code),
    shrinking the saturation point accordingly.
    """

    name: str
    exp_bits: int
    man_bits: int
    bias: int
    reserved_top_codes: int = 0
    _grid: np.ndarray = field(init=False, repr=False, compare=False)
    _bounds: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.exp_bits < 0 or self.man_bits < 0:
            raise FormatError(f"{self.name}: negative field width")
        if self.exp_bits + self.man_bits == 0:
            raise FormatError(f"{self.name}: empty magnitude field")
        n_codes = 1 << (self.exp_bits + self.man_bits)
        if self.reserved_top_codes >= n_codes:
            raise FormatError(f"{self.name}: all codes reserved")
        codes = np.arange(n_codes - self.reserved_top_codes, dtype=np.int64)
        man_mask = (1 << self.man_bits) - 1
        e = codes >> self.man_bits
        m = (codes & man_mask).astype(np.float64)
        frac = m / (1 << self.man_bits)
        subnormal = frac * 2.0 ** (1 - self.bias)
        normal = (1.0 + frac) * np.exp2(e - self.bias)
        grid = np.where(e == 0, subnormal, normal)
        if np.any(np.diff(grid) <= 0):
            raise FormatError(f"{self.name}: grid is not strictly increasing")
        object.__setattr__(self, "_grid", grid)
        # Decision boundaries for the fast encode path, built once here so
        # every later encode/quantize is a single searchsorted. Mini-float
        # grids are dyadic so this never falls back in practice, but the
        # exactness proof is re-checked rather than assumed.
        object.__setattr__(self, "_bounds", exact_boundaries(grid))

    # ------------------------------------------------------------------
    # Derived constants
    # ------------------------------------------------------------------
    @property
    def total_bits(self) -> int:
        """Storage width including the sign bit."""
        return 1 + self.exp_bits + self.man_bits

    @property
    def grid(self) -> np.ndarray:
        """Ascending array of representable non-negative magnitudes."""
        return self._grid

    @property
    def boundaries(self) -> np.ndarray:
        """Cached RTNE decision boundaries between adjacent codes.

        None only for grids whose boundaries would not be search-exact;
        every IEEE-style mini-float grid qualifies.
        """
        return self._bounds

    @property
    def max_value(self) -> float:
        """Largest representable magnitude (``M`` in the paper)."""
        return float(self._grid[-1])

    @property
    def max_pow2(self) -> float:
        """Largest power of two <= max_value (``P`` in the paper)."""
        return float(2.0 ** np.floor(np.log2(self.max_value)))

    @property
    def min_subnormal(self) -> float:
        """Smallest positive representable magnitude."""
        return float(self._grid[1])

    @property
    def code_count(self) -> int:
        """Number of magnitude codes (excluding the sign bit)."""
        return int(self._grid.shape[0])

    # ------------------------------------------------------------------
    # Quantization
    # ------------------------------------------------------------------
    def encode(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Quantize to (sign, magnitude-code) arrays.

        ``sign`` is 0/1 (1 for negative inputs, including -0.0); codes
        saturate at the largest representable magnitude. The default path
        is one ``searchsorted`` against the boundaries precomputed at
        construction, matching the reference path
        (``REPRO_REFERENCE_KERNELS=1``) bit for bit.
        """
        x = np.asarray(x, dtype=np.float64)
        sign = np.signbit(x).astype(np.int64)
        if use_reference() or self._bounds is None:
            codes = quantize_to_grid_reference(np.abs(x), self._grid)
            return sign, codes.astype(np.int64)
        codes = np.searchsorted(self._bounds, np.abs(x), side="left")
        return sign, codes.astype(np.int64)

    def decode(self, sign: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """Map (sign, magnitude-code) arrays back to float64 values."""
        codes = np.asarray(codes, dtype=np.int64)
        if np.any(codes < 0) or np.any(codes >= self.code_count):
            raise FormatError(f"{self.name}: magnitude code out of range")
        vals = self._grid[codes]
        return np.where(np.asarray(sign, dtype=np.int64) != 0, -vals, vals)

    def quantize(self, x: np.ndarray) -> np.ndarray:
        """Fake-quantize: round values onto this format's grid (RTNE).

        The fast path skips the decode-time range validation (the codes
        were just produced in range) and fuses the sign re-application.
        """
        if use_reference() or self._bounds is None:
            sign, codes = self.encode(x)
            return self.decode(sign, codes)
        x = np.asarray(x, dtype=np.float64)
        codes = np.searchsorted(self._bounds, np.abs(x), side="left")
        vals = self._grid[codes]
        return np.where(np.signbit(x), -vals, vals)

    def packed_codes(self, x: np.ndarray) -> np.ndarray:
        """Full bit patterns ``sign << (E+M) | magnitude_code``."""
        sign, codes = self.encode(x)
        return (sign << (self.exp_bits + self.man_bits)) | codes

    def value_of_code(self, packed: np.ndarray) -> np.ndarray:
        """Decode full bit patterns produced by :meth:`packed_codes`."""
        packed = np.asarray(packed, dtype=np.int64)
        shift = self.exp_bits + self.man_bits
        return self.decode(packed >> shift, packed & ((1 << shift) - 1))

    def __str__(self) -> str:
        return self.name
