"""Arbitrary-width bit field packing for the tensor codec.

:mod:`repro.core.packing` handles the Sec. 5.2 accelerator layout, whose
field widths (4-bit nibbles, 2-bit metadata) happen to divide a byte.
The serialized container cannot afford that restriction: SMX6 mantissa
codes are 5 bits, Elem-EE refinement codes are 3, MaxPreserving indices
are ``ceil(log2(k))``. These helpers pack any fixed width ``1..64``
densely, LSB-first within the stream, so a stream of ``count`` fields
costs exactly ``ceil(count * width / 8)`` bytes — the property the
measured-vs-nominal EBW assertions in ``tests/test_codec.py`` rest on.

Example::

    buf = pack_bits(np.array([5, 2, 7]), width=3)   # 9 bits -> 2 bytes
    vals = unpack_bits(buf, width=3, count=3)       # array([5, 2, 7])
"""

from __future__ import annotations

import numpy as np

from ..errors import CodecError

__all__ = ["pack_bits", "unpack_bits", "packed_nbytes", "bits_needed"]

#: Bit offsets of the four 2-bit fields in a byte, LSB first.
_CRUMB_SHIFTS = np.array([0, 2, 4, 6], dtype=np.uint8)


def bits_needed(n_values: int) -> int:
    """Width of the smallest field that can hold codes ``0..n_values-1``."""
    if n_values < 1:
        raise CodecError("bits_needed requires at least one code value")
    return max(1, int(n_values - 1).bit_length())


def packed_nbytes(count: int, width: int) -> int:
    """Bytes :func:`pack_bits` emits for ``count`` fields of ``width`` bits."""
    return (count * width + 7) // 8


def pack_bits(values: np.ndarray, width: int) -> np.ndarray:
    """Pack non-negative integers into a dense LSB-first bitstream.

    Returns a ``uint8`` array of :func:`packed_nbytes` bytes; the unused
    high bits of the final byte are zero, so equal field sequences always
    serialize to equal bytes. Widths 2, 4, 8 and 16 — the 2-bit M2XFP
    metadata, FP4 nibbles, E8M0/FP8 scale bytes and FP16 scale codes
    that dominate every real container — take direct crumb/nibble/byte
    paths, and every other sub-byte width above one bit (the 3-bit
    Elem-EE refinements, 5-bit SMX6 mantissas, ...) goes through a
    whole-word path: fields
    are OR-merged in three pairwise-doubling passes into uint64 words
    of eight, whose low ``w`` bytes are the stream bytes. Width 1 is
    ``np.packbits`` itself (the per-bit expansion degenerates to it),
    width 64 takes ``uint64`` words as they are (fp16's raw float64
    fallback stores each value's bit pattern, sign bit included), and
    only the widths in between still hit the per-bit expansion.
    ``tests/test_codec.py`` asserts every fast path's bytes equal the
    generic path's, and the pinned golden containers are unchanged.
    """
    if not 1 <= width <= 64:
        raise CodecError(f"field width must be in [1, 64], got {width}")
    values = np.asarray(values).reshape(-1)
    if width == 64 and values.dtype == np.uint64:
        return values.astype("<u8").view(np.uint8)
    values = values.astype(np.int64, copy=False)
    if values.size:
        # One reduction pass validates both bounds: the OR of the
        # fields is negative iff any field is (sign bit), and has a
        # bit at or above ``width`` iff any field does.
        merged = int(np.bitwise_or.reduce(values))
        if merged < 0 or (width < 64 and merged >= (1 << width)):
            raise CodecError(
                f"field values must fit in {width} unsigned bits")
    if values.size == 0:
        return np.zeros(0, dtype=np.uint8)
    if width == 8:
        return values.astype(np.uint8)
    if width == 16:
        return values.astype("<u2").view(np.uint8)
    if width == 64:
        return values.astype("<u8").view(np.uint8)
    if width == 4:
        lo = values[0::2].astype(np.uint8)
        if values.size % 2 == 0:
            return lo | (values[1::2].astype(np.uint8) << np.uint8(4))
        out = np.zeros(packed_nbytes(values.size, 4), dtype=np.uint8)
        out[: lo.size] = lo
        hi = values[1::2].astype(np.uint8)
        out[: hi.size] |= hi << np.uint8(4)
        return out
    if width == 2:
        v = values.astype(np.uint8)
        if v.size % 4:
            v = np.concatenate((v, np.zeros(-v.size % 4, dtype=np.uint8)))
        out = v[0::4] | (v[1::4] << np.uint8(2))
        out |= v[2::4] << np.uint8(4)
        out |= v[3::4] << np.uint8(6)
        return out
    if 1 < width < 8:
        return _pack_bits_words(values, width)
    return _pack_bits_generic(values, width)


def _pack_bits_words(values: np.ndarray, width: int) -> np.ndarray:
    """Whole-word path for widths 2..7.

    Eight ``width``-bit fields span exactly ``width`` bytes, so each
    group of eight packs as one little-endian uint64 — assembled by
    OR-merging adjacent fields in three pairwise-doubling passes
    (``w``-bit fields → ``2w`` → ``4w`` → ``8w``-bit words), which
    touches each element ~3 times instead of materializing the 8-wide
    shift matrix. The word's low ``width`` bytes are the stream bytes —
    identical, bit for bit, to the LSB-first per-bit expansion.
    """
    m = -(-values.size // 8)
    v = np.zeros(8 * m, dtype=np.uint64)
    v[: values.size] = values.astype(np.uint64)
    a = v[0::2] | (v[1::2] << np.uint64(width))
    b = a[0::2] | (a[1::2] << np.uint64(2 * width))
    words = b[0::2] | (b[1::2] << np.uint64(4 * width))
    out = np.ascontiguousarray(
        words.astype("<u8").view(np.uint8).reshape(m, 8)[:, :width])
    return out.reshape(-1)[: packed_nbytes(values.size, width)]


def _pack_bits_generic(values: np.ndarray, width: int) -> np.ndarray:
    """Per-bit expansion path for arbitrary widths (and parity checks)."""
    shifts = np.arange(width, dtype=np.uint64)
    bits = (values.astype(np.uint64)[:, None] >> shifts) & np.uint64(1)
    return np.packbits(bits.astype(np.uint8).reshape(-1), bitorder="little")


def unpack_bits(buf: bytes | np.ndarray, width: int, count: int) -> np.ndarray:
    """Invert :func:`pack_bits` into ``count`` int64 fields (``uint64``
    words at width 64, which an int64 cannot hold)."""
    if not 1 <= width <= 64:
        raise CodecError(f"field width must be in [1, 64], got {width}")
    raw = np.frombuffer(memoryview(buf), dtype=np.uint8)
    if raw.size < packed_nbytes(count, width):
        raise CodecError(f"bitstream truncated: need "
                         f"{packed_nbytes(count, width)} bytes, have {raw.size}")
    if width == 64:
        return raw[: 8 * count].view("<u8").astype(np.uint64)
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    if width == 8:
        return raw[:count].astype(np.int64)
    if width == 16:
        return raw[: 2 * count].view("<u2").astype(np.int64)
    if width == 4:
        used = raw[: packed_nbytes(count, 4)]
        fields = np.empty(2 * used.size, dtype=np.int64)
        fields[0::2] = used & 0x0F
        fields[1::2] = used >> 4
        return fields[:count]
    if width == 2:
        used = raw[: packed_nbytes(count, 2)]
        fields = (used[:, None] >> _CRUMB_SHIFTS) & np.uint8(3)
        return fields.reshape(-1)[:count].astype(np.int64)
    if width < 8:
        return _unpack_bits_words(raw, width, count)
    return _unpack_bits_generic(raw, width, count)


def _unpack_bits_words(raw: np.ndarray, width: int, count: int) -> np.ndarray:
    """Invert :func:`_pack_bits_words`: uint64 words back to fields."""
    m = -(-count // 8)
    nbytes = packed_nbytes(count, width)
    buf = np.zeros(m * width, dtype=np.uint8)
    buf[:nbytes] = raw[:nbytes]
    b = np.zeros((m, 8), dtype=np.uint8)
    b[:, :width] = buf.reshape(m, width)
    words = b.view("<u8").reshape(-1)
    shifts = np.arange(8, dtype=np.uint64) * np.uint64(width)
    mask = np.uint64((1 << width) - 1)
    fields = (words[:, None] >> shifts) & mask
    return fields.reshape(-1)[:count].astype(np.int64)


def _unpack_bits_generic(raw: np.ndarray, width: int, count: int) -> np.ndarray:
    """Per-bit expansion path for arbitrary widths (and parity checks)."""
    bits = np.unpackbits(raw, count=count * width, bitorder="little")
    shifts = np.arange(width, dtype=np.uint64)
    fields = (bits.reshape(count, width).astype(np.uint64) << shifts).sum(axis=1)
    return fields.astype(np.int64)
