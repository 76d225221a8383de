"""The ``PackedTensor`` container: header + named bitstream sections.

Wire layout (all little-endian)::

    bytes 0..3   magic  b"RPT1"
    bytes 4..7   uint32 header length H
    bytes 8..8+H canonical JSON header (ascii, sorted keys)
    remainder    the stream sections, concatenated in header order

The header is self-describing: it carries the catalog format name, a
configuration fingerprint (the format's ``repr``), the original tensor
shape/axis, the group size, the operand path (``weight`` or
``activation``), per-stream ``(name, width, count, nbytes)`` records and
a codec-specific ``extra`` dict (floats stored as ``float.hex()`` text so
round-trips are bit-exact). :func:`repro.codec.decode` needs nothing but
these bytes plus the format catalog.

Example::

    from repro.codec import encode, decode
    pt = encode(make_format("m2xfp"), w, op="weight")
    blob = pt.to_bytes()                  # contiguous bytes, ships anywhere
    w_hat = decode(PackedTensor.from_bytes(blob))
    # w_hat == M2XFP().quantize_weight(w) bit for bit
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from ..errors import CodecError
from .bitstream import packed_nbytes

__all__ = ["MAGIC", "CONTAINER_VERSION", "OPS", "Stream", "PackedTensor"]

MAGIC = b"RPT1"
CONTAINER_VERSION = 1

#: Operand paths a container can record (hybrid formats quantize
#: weights and activations differently).
OPS = ("weight", "activation")

_HEADER_KEYS = frozenset(("format", "fingerprint", "op", "shape", "axis",
                          "group_size", "streams", "extra"))

#: ``json.dumps(obj, sort_keys=True, separators=(",", ":"))``, with the
#: encoder built once rather than per header.
_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _json(obj) -> bytes:
    """The canonical header JSON: sorted keys, no whitespace.

    A container holding one NVFP4 tensor scale per row (an encode with
    ``row_blocks``, or a :func:`~repro.codec.join_rows` run) carries the
    scales as an array the header cannot hold: it raises
    :class:`CodecError`.
    """
    try:
        return _canonical(obj).encode("ascii")
    except TypeError as exc:
        raise CodecError(f"container header cannot be serialized ({exc}): "
                         f"a container with one tensor scale per row "
                         f"lives in memory only") from exc


def _is_count(value) -> bool:
    """A JSON non-negative integer (``true``/``false`` are not counts)."""
    return type(value) is int and value >= 0


def _check_header(header) -> None:
    """Reject any header :meth:`PackedTensor.to_bytes` could not write.

    Containers arrive from outside the process (wire responses, session
    blobs), so every field is checked here and a malformed one raises
    :class:`CodecError` instead of leaking ``KeyError`` / ``TypeError``
    / ``IndexError`` from the decode path.
    """
    if type(header) is not dict:
        raise CodecError("container header is not a JSON object")
    if header.get("version") != CONTAINER_VERSION:
        raise CodecError(f"unsupported container version "
                         f"{header.get('version')!r}")
    if not _HEADER_KEYS <= header.keys():
        raise CodecError(f"container header lacks "
                         f"{', '.join(sorted(_HEADER_KEYS - header.keys()))}")
    for key in ("format", "fingerprint"):
        if type(header[key]) is not str:
            raise CodecError(f"container {key} must be a string, "
                             f"got {header[key]!r}")
    if header["op"] not in OPS:
        raise CodecError(f"container op must be one of {OPS}, "
                         f"got {header['op']!r}")
    shape = header["shape"]
    if type(shape) is not list or not all(map(_is_count, shape)):
        raise CodecError(f"container shape must be a list of "
                         f"non-negative ints, got {shape!r}")
    axis = header["axis"]
    if type(axis) is not int or not 0 <= axis < max(len(shape), 1):
        raise CodecError(f"container axis {axis!r} is out of range for "
                         f"shape {shape}")
    group_size = header["group_size"]
    if type(group_size) is not int or group_size < 1:
        raise CodecError(f"container group_size must be an int >= 1, "
                         f"got {group_size!r}")
    if type(header["streams"]) is not list:
        raise CodecError(f"container streams must be a list, "
                         f"got {header['streams']!r}")
    for rec in header["streams"]:
        if not (type(rec) is list and len(rec) == 4 and type(rec[0]) is str
                and type(rec[1]) is int and 1 <= rec[1] <= 64
                and _is_count(rec[2])
                and rec[3] == packed_nbytes(rec[2], rec[1])):
            raise CodecError(f"malformed stream record {rec!r}: want "
                             f"[name, width 1..64, count, nbytes] with "
                             f"nbytes = ceil(width * count / 8)")
    if type(header["extra"]) is not dict:
        raise CodecError(f"container extra must be an object, "
                         f"got {header['extra']!r}")


@dataclass
class Stream:
    """One named, densely packed section of a :class:`PackedTensor`."""

    name: str
    data: bytes
    width: int   # bits per field (accounting; raw streams use 8 * itemsize)
    count: int   # number of fields

    @property
    def nbytes(self) -> int:
        """Serialized size of this section."""
        return len(self.data)


@dataclass
class PackedTensor:
    """A tensor serialized to true-width bitstreams plus a header.

    ``streams`` preserve insertion order — the serialization order — and
    ``extra`` holds codec-specific scalars (e.g. NVFP4's tensor scale as
    a ``float.hex()`` string).
    """

    format_name: str
    fingerprint: str
    op: str
    shape: tuple[int, ...]
    axis: int
    group_size: int
    streams: dict[str, Stream] = field(default_factory=dict)
    extra: dict = field(default_factory=dict)
    #: Header JSON lengths with an empty ``extra``, keyed by shape and
    #: stream records, shared by the containers of one encode plan
    #: (its ``QuantPlan.encode`` entry) and their row cuts, whose other
    #: header fields are the plan's. None: :attr:`header_bytes` dumps
    #: the header. Not serialized, not compared.
    header_lengths: dict | None = field(default=None, repr=False,
                                        compare=False)

    # ------------------------------------------------------------------
    # Stream plumbing
    # ------------------------------------------------------------------
    def add_stream(self, name: str, data: bytes | np.ndarray,
                   width: int, count: int) -> None:
        """Append a section; duplicate names are a codec bug."""
        if name in self.streams:
            raise CodecError(f"duplicate stream {name!r}")
        if isinstance(data, np.ndarray):
            data = data.tobytes()
        self.streams[name] = Stream(name, bytes(data), width, count)

    def stream(self, name: str) -> Stream:
        """Fetch a section by name with a decode-friendly error."""
        if name not in self.streams:
            raise CodecError(f"container has no stream {name!r} "
                             f"(has: {', '.join(self.streams) or 'none'})")
        return self.streams[name]

    # ------------------------------------------------------------------
    # Footprint accounting
    # ------------------------------------------------------------------
    @property
    def n_elements(self) -> int:
        """Logical element count of the original tensor."""
        return math.prod(self.shape)

    @property
    def payload_bytes(self) -> int:
        """Total bytes of the packed streams (excluding the header)."""
        return sum([len(s.data) for s in self.streams.values()])

    @property
    def header_bytes(self) -> int:
        """Bytes of magic + length word + JSON header.

        The JSON nests ``extra`` as one value, so with
        :attr:`header_lengths` its length is the length with an empty
        ``extra`` (looked up there, dumped once per shape and stream
        records) plus ``extra``'s own JSON length less the two bytes of
        ``{}``.
        """
        lengths = self.header_lengths
        if lengths is None:
            return len(MAGIC) + 4 + len(self._header_json())
        key = (tuple(self.shape),
               tuple([(s.name, s.width, s.count, len(s.data))
                      for s in self.streams.values()]))
        fixed = lengths.get(key)
        if fixed is None:
            fixed = lengths[key] = len(self._header_json({}))
        extra = len(_json(self.extra)) - 2 if self.extra else 0
        return len(MAGIC) + 4 + fixed + extra

    @property
    def total_bytes(self) -> int:
        """Full serialized size, header included."""
        return self.header_bytes + self.payload_bytes

    @property
    def bits_per_element(self) -> float:
        """Measured storage cost (payload only), comparable to nominal EBW.

        Partial trailing groups are padded to ``group_size`` before
        packing, so on group-aligned shapes this is exactly the sum of
        the per-stream widths amortized over the elements.
        """
        return self.payload_bytes * 8 / max(1, self.n_elements)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def _header_json(self, extra: dict | None = None) -> bytes:
        """The JSON header, with ``extra`` in place of the container's
        own when given."""
        header = {
            "version": CONTAINER_VERSION,
            "format": self.format_name,
            "fingerprint": self.fingerprint,
            "op": self.op,
            "shape": list(self.shape),
            "axis": self.axis,
            "group_size": self.group_size,
            "streams": [[s.name, s.width, s.count, s.nbytes]
                        for s in self.streams.values()],
            "extra": self.extra if extra is None else extra,
        }
        return _json(header)

    def to_bytes(self) -> bytes:
        """Serialize to one contiguous, self-describing byte string."""
        head = self._header_json()
        parts = [MAGIC, struct.pack("<I", len(head)), head]
        parts += [s.data for s in self.streams.values()]
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "PackedTensor":
        """Parse bytes produced by :meth:`to_bytes`.

        Any malformed input, header fields included, raises
        :class:`CodecError`.
        """
        blob = bytes(blob)
        if len(blob) < len(MAGIC) + 4 or blob[:len(MAGIC)] != MAGIC:
            raise CodecError("not a packed tensor container (bad magic)")
        (hlen,) = struct.unpack_from("<I", blob, len(MAGIC))
        start = len(MAGIC) + 4
        if len(blob) < start + hlen:
            raise CodecError("truncated container header")
        try:
            header = json.loads(blob[start:start + hlen].decode("ascii"))
        except (ValueError, RecursionError) as exc:  # incl. bad ascii
            raise CodecError(f"unreadable container header: {exc}") from exc
        _check_header(header)
        pt = cls(format_name=header["format"],
                 fingerprint=header["fingerprint"], op=header["op"],
                 shape=tuple(header["shape"]), axis=header["axis"],
                 group_size=header["group_size"], extra=header["extra"])
        offset = start + hlen
        for name, width, count, nbytes in header["streams"]:
            data = blob[offset:offset + nbytes]
            if len(data) != nbytes:
                raise CodecError(f"truncated stream {name!r}")
            pt.add_stream(name, data, width, count)
            offset += nbytes
        return pt
