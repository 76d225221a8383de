"""Per-family tensor codecs: catalog formats to packed bytes and back.

Every format in the sweep catalog (``repro.runner.formats``) simulates
quantization in float64; the codecs here serialize the *true* storage
representation — element codes, per-group E8M0 / FP8 / FP16 scale codes,
and Elem-EM / Sg-EM / Sg-EE / SMX metadata fields, each packed at its
real bit width — and reconstruct the dequantized tensor **bit-exactly**
equal to the format's own ``quantize_weight`` / ``quantize_activation``
output under every kernel dispatch mode. That contract is what turns the
repo's simulated EBW table into a measured bytes-on-the-wire number
(``PackedTensor.bits_per_element``), and it is enforced format-by-format
in ``tests/test_codec.py``.

How each family packs:

* **Block formats** (MXFP4/6/8, MXINT8, MSFP, GroupFP4) — one element
  stream at the scalar's ``total_bits`` plus one scale stream (E8M0
  exponent byte, or FP16 codes for GroupFP4).
* **SMX** — block layout plus a 1-bit micro-exponent per element pair.
* **NVFP4** — FP4 element stream, E4M3 group-scale codes, and the FP32
  tensor scale in the header (as ``float.hex()`` text).
* **Elem-EM / Sg-EM / Sg-EE** — the bit-level encodings from
  :mod:`repro.core` with their 2-bit metadata streams.
* **Elem-EE** — baseline FP4 codes plus, per subgroup, the 2-bit offset
  *and* a 3-bit refined magnitude code. The extra 3 bits/subgroup over
  the format's nominal EBW are unavoidable for a self-contained decode
  (the nominal accounting assumes the refined code replaces the stored
  one, which would break the decoder's top-element re-identification);
  the overhead is pinned exactly in ``tests/test_codec.py``.
* **M2XFP** — delegates to Sg-EM (weights) or Elem-EM (activations).
* **M2-NVFP4** — NVFP4 two-level scales plus the Sg-EM multiplier /
  bias search codes (weights) or the Elem-EM bias-clamp metadata
  (activations).
* **fp16** — stores IEEE float16 words when the tensor is exactly
  fp16-representable; otherwise falls back to raw float64 (flagged in
  the header) because the catalog's ``Fp16Format`` is an identity
  transfer function.

Example::

    from repro.codec import encode, decode
    pt = encode(make_format("m2xfp"), w, op="weight")
    assert decode(pt).tobytes() == make_format("m2xfp").quantize_weight(w).tobytes()
    pt.bits_per_element        # ~4.5 — the paper's EBW, now measured
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import replace
from typing import Callable, NamedTuple

import numpy as np

from .. import obs as _obs
from ..core.elem_em import META_BITS_PER_VALUE, ElemEM, ElemEMEncoding, \
    elem_em_decode, elem_em_encode
from ..core.elem_ee import ElemEE
from ..core.m2xfp import M2NVFP4, M2XFP
from ..core.sg_em import SG_EM_MULTIPLIERS, SgEM, SgEMEncoding, sg_em_decode, \
    sg_em_encode
from ..core.sg_ee import SgEE, SgEEEncoding, sg_ee_decode, sg_ee_encode
from ..errors import CodecError, ConfigError
from ..formats.floatspec import FloatSpec, quantize_to_grid
from ..formats.grouping import GroupView, from_groups, to_groups
from ..formats.intspec import GridSpec, IntSpec
from ..formats.registry import FP4_E2M1, FP6_E2M3, FP8_E4M3, FP16
from ..kernels.elem import elem_ee_select
from ..kernels.search import candidate_search, gather_candidate_codes, \
    hierarchical_select
from ..models.quantized import Fp16Format
from ..mx.base import BlockFormat
from ..mx.fp_group import GroupFP4
from ..mx.max_preserve import MaxPreserving
from ..mx.msfp import MSFP
from ..mx.nvfp import NVFP4
from ..mx.smx import SMX
from .bitstream import bits_needed, pack_bits, unpack_bits
from .container import OPS, PackedTensor, Stream

__all__ = ["encode", "decode", "join_rows", "slice_rows", "drop_rows",
           "codec_for", "supports", "collect_encode_stats"]

_STAGE_SINK = threading.local()

#: Process-wide encode tally surfaced through the metrics registry as
#: the ``codec`` collector (the per-call sink above stays the precise,
#: caller-scoped instrument; this is the always-on global view).
_ENCODE_TOTALS = {"encodes": 0, "fused_encodes": 0}
_ENCODE_TOTALS_LOCK = threading.Lock()

_obs.registry().register_collector(
    "codec", lambda: dict(_ENCODE_TOTALS))


@contextmanager
def collect_encode_stats():
    """Collect per-stage encode timings from :func:`encode` calls.

    Yields a dict accumulated in place by every :func:`encode` on this
    thread while the context is active: ``encodes`` / ``fused_encodes``
    call counts and ``quantize_s`` / ``pack_s`` / ``verify_s`` stage
    seconds (the legacy path cannot split quantize from pack, so its
    whole ``encode_into`` lands in ``quantize_s``). Nestable — the inner
    context shadows the outer one.
    """
    stats = {"encodes": 0, "fused_encodes": 0,
             "quantize_s": 0.0, "pack_s": 0.0, "verify_s": 0.0}
    prev = getattr(_STAGE_SINK, "stats", None)
    _STAGE_SINK.stats = stats
    try:
        yield stats
    finally:
        _STAGE_SINK.stats = prev


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def _element_width(element) -> int:
    """Packed bits per element code for any scalar spec."""
    if isinstance(element, FloatSpec):
        return element.total_bits
    if isinstance(element, IntSpec):
        return element.bits
    if isinstance(element, GridSpec):
        return 1 + bits_needed(element.grid.shape[0])
    raise CodecError(f"no element packing for {type(element).__name__}")


def _element_codes(element, scaled: np.ndarray) -> np.ndarray:
    """Integer codes quantizing ``scaled`` values (idempotent on-grid)."""
    if isinstance(element, FloatSpec):
        sign, mag = element.encode(scaled)
        return (sign << (element.exp_bits + element.man_bits)) | mag
    if isinstance(element, IntSpec):
        q = element.quantize(scaled)
        sign = np.signbit(q).astype(np.int64)
        mag = np.abs(q).astype(np.int64)
        return (sign << (element.bits - 1)) | mag
    if isinstance(element, GridSpec):
        q = element.quantize(scaled)
        sign = np.signbit(q).astype(np.int64)
        idx = np.searchsorted(element.grid, np.abs(q))
        return (sign << bits_needed(element.grid.shape[0])) | idx
    raise CodecError(f"no element packing for {type(element).__name__}")


def _element_values(element, codes: np.ndarray) -> np.ndarray:
    """Invert :func:`_element_codes` back to float64 grid values."""
    if isinstance(element, FloatSpec):
        shift = element.exp_bits + element.man_bits
        return element.decode(codes >> shift, codes & ((1 << shift) - 1))
    if isinstance(element, IntSpec):
        mag = (codes & ((1 << (element.bits - 1)) - 1)).astype(np.float64)
        return np.where((codes >> (element.bits - 1)) != 0, -mag, mag)
    if isinstance(element, GridSpec):
        shift = bits_needed(element.grid.shape[0])
        vals = element.grid[codes & ((1 << shift) - 1)]
        return np.where((codes >> shift) != 0, -vals, vals)
    raise CodecError(f"no element packing for {type(element).__name__}")


def _put_exponents(pt: PackedTensor, name: str, scales: np.ndarray) -> None:
    """Store power-of-two scales as E8M0 bytes (bias 127)."""
    e = np.log2(scales)
    ei = e.astype(np.int64)
    if np.any(ei != e) or np.any(np.exp2(ei.astype(np.float64)) != scales):
        raise CodecError("scales are not exact powers of two")
    if ei.size and (ei.min() < -127 or ei.max() > 127):
        raise CodecError("scale exponent outside the E8M0 range "
                         f"[{ei.min()}, {ei.max()}]; the container stores "
                         "E8M0-range scales only")
    pt.add_stream(name, pack_bits(ei + 127, 8), 8, ei.size)


def _get_exponent_scales(pt: PackedTensor, name: str, count: int) -> np.ndarray:
    """Invert :func:`_put_exponents` into float64 power-of-two scales."""
    e = unpack_bits(pt.stream(name).data, 8, count) - 127
    return np.exp2(e.astype(np.float64))


def _view(pt: PackedTensor) -> GroupView:
    """Rebuild the :class:`GroupView` that inverts the encode grouping."""
    axis_len = pt.shape[pt.axis]
    padded = -(-axis_len // pt.group_size) * pt.group_size
    return GroupView(shape=pt.shape, axis=pt.axis, group_size=pt.group_size,
                     axis_len=axis_len, padded_len=padded)


def _n_groups(pt: PackedTensor) -> int:
    view = _view(pt)
    lead = 1
    for i, s in enumerate(pt.shape):
        if i != pt.axis:
            lead *= s
    return lead * (view.padded_len // pt.group_size)


def _hex(value: float) -> str:
    return float(value).hex()


#: The header tensor scale of an NVFP4-family zero tensor.
_ZERO_HEX = _hex(0.0)


def _unhex(pt: PackedTensor, key: str) -> float:
    """Read back a :func:`_hex` scalar stored in the container's extra."""
    text = pt.extra.get(key)
    try:
        return float.fromhex(text)
    except (TypeError, ValueError):
        raise CodecError(f"container extra {key!r} must be a float.hex() "
                         f"string, got {text!r}") from None


# ----------------------------------------------------------------------
# Codec classes
# ----------------------------------------------------------------------
class Codec:
    """Base class: encode a format's streams into / out of a container."""

    #: Stream names the fused code-space path supplies, in packing
    #: order; None means the family has no fused layout and always
    #: encodes from floats. :meth:`code_layout` may vary it per
    #: container (the NVFP4 family's op and zero tensor).
    code_streams: tuple[str, ...] | None = None

    #: Streams holding one field per ``fmt.sub_size``-wide subgroup.
    subgroup_streams: tuple[str, ...] = ()

    def encode_into(self, fmt, x: np.ndarray, pt: PackedTensor) -> None:
        raise NotImplementedError

    def decode(self, fmt, pt: PackedTensor) -> np.ndarray:
        raise NotImplementedError

    def code_layout(self, fmt, pt: PackedTensor) -> tuple[str, ...] | None:
        """Expected fused stream layout for this container, or None."""
        return self.code_streams

    def stream_counts(self, fmt, pt: PackedTensor) -> dict[str, int]:
        """Fields :meth:`decode` reads from each stream for ``pt``'s shape.

        Pure integer arithmetic on the header, so :func:`decode` can
        refuse a shape its streams cannot back before any array is
        sized from it. The default is one element code per padded group
        slot, one scale per group and one field per subgroup in each of
        :attr:`subgroup_streams`.
        """
        n = _n_groups(pt)
        counts = {"elements": n * pt.group_size, "scales": n}
        for name in self.subgroup_streams:
            counts[name] = n * (pt.group_size // fmt.sub_size)
        return counts

    def encode_from_codes(self, fmt, cs, pt: PackedTensor) -> None:
        """Pack a plan executor's :class:`CodeSpaceResult` directly.

        The code arrays are already the exact integers ``encode_into``
        would derive from the dequantized floats (the executor/codec
        parity contract, DESIGN.md §11), so packing is a pure bitstream
        write — no quantization arithmetic at all. The result's header
        scalars go into ``pt.extra`` first, since a layout may depend on
        them (the NVFP4 family's zero tensor has no scale stream).
        """
        pt.extra.update(cs.extra)
        expected = self.code_layout(fmt, pt)
        if expected is None:
            raise CodecError(f"{type(self).__name__} has no fused "
                             "code-space layout")
        if cs.stream_names != tuple(expected):
            raise CodecError(f"code-space streams {cs.stream_names} do not "
                             f"match the {type(self).__name__} layout "
                             f"{tuple(expected)}")
        for s in cs.streams:
            values = np.asarray(s.values).reshape(-1)
            pt.add_stream(s.name, pack_bits(values, s.width),
                          s.width, values.size)


class Fp16Codec(Codec):
    """The identity ``Fp16Format``: float16 words when exact, else raw."""

    def encode_into(self, fmt, x, pt):
        x = np.asarray(x, dtype=np.float64)
        y16 = x.astype("<f2")
        if y16.astype(np.float64).tobytes() == x.tobytes():
            pt.extra["storage"] = "f16"
            pt.add_stream("elements", y16.reshape(-1), 16, x.size)
        else:
            # Not fp16-representable: the catalog Fp16Format is an
            # identity function, so raw float64 is the only exact store.
            pt.extra["storage"] = "f64"
            pt.add_stream("elements", x.astype("<f8").reshape(-1), 64, x.size)

    def stream_counts(self, fmt, pt):
        return {"elements": pt.n_elements}

    def decode(self, fmt, pt):
        s = pt.stream("elements")
        dtype = "<f2" if pt.extra.get("storage") == "f16" else "<f8"
        if s.width != 8 * np.dtype(dtype).itemsize \
                or s.count != pt.n_elements:
            raise CodecError(f"fp16 elements stream holds {s.count} "
                             f"{s.width}-bit words; a {dtype} tensor of "
                             f"shape {pt.shape} needs {pt.n_elements}")
        return np.frombuffer(s.data, dtype=dtype).astype(np.float64) \
            .reshape(pt.shape)


class BlockCodec(Codec):
    """Plain :class:`BlockFormat`: element codes + E8M0 exponent bytes."""

    code_streams = ("scales", "elements")

    def _scales(self, fmt, groups: np.ndarray) -> np.ndarray:
        return fmt.group_scales(groups)

    def _scaled(self, fmt, groups: np.ndarray, scales: np.ndarray) -> np.ndarray:
        return groups / scales[:, None]

    def encode_into(self, fmt, x, pt):
        groups, _ = to_groups(x, fmt.group_size, axis=pt.axis)
        scales = self._scales(fmt, groups)
        codes = _element_codes(fmt.element, self._scaled(fmt, groups, scales))
        self._put_scales(pt, scales)
        width = _element_width(fmt.element)
        pt.add_stream("elements", pack_bits(codes.reshape(-1), width),
                      width, codes.size)

    def _put_scales(self, pt, scales):
        _put_exponents(pt, "scales", scales)

    def _get_scales(self, fmt, pt, n):
        return _get_exponent_scales(pt, "scales", n)

    def decode(self, fmt, pt):
        view = _view(pt)
        n = _n_groups(pt)
        k = pt.group_size
        width = _element_width(fmt.element)
        codes = unpack_bits(pt.stream("elements").data, width, n * k)
        vals = _element_values(fmt.element, codes).reshape(n, k)
        scales = self._get_scales(fmt, pt, n)
        return from_groups(vals * scales[:, None], view)


class MSFPCodec(BlockCodec):
    """MSFP's ceil-rule exponent: take the scales the format computed."""

    #: No plan executor compiles for the subclass, so the inherited
    #: layout is never exercised; cleared to keep that explicit.
    code_streams = None

    def _scales(self, fmt, groups):
        return fmt.quantize_groups(groups).scales


class GroupFP4Codec(BlockCodec):
    """FP16 group scales; zero groups flush to +0.0 exactly like the format."""

    code_streams = None

    def _scales(self, fmt, groups):
        return fmt.quantize_groups(groups).scales

    def _scaled(self, fmt, groups, scales):
        safe = np.where(scales > 0, scales, 1.0)
        return groups / safe[:, None]

    def _put_scales(self, pt, scales):
        codes = _element_codes(FP16, scales)
        pt.add_stream("scales", pack_bits(codes, 16), 16, codes.size)

    def _get_scales(self, fmt, pt, n):
        return _element_values(FP16, unpack_bits(pt.stream("scales").data, 16, n))

    def decode(self, fmt, pt):
        view = _view(pt)
        n, k = _n_groups(pt), pt.group_size
        width = _element_width(fmt.element)
        codes = unpack_bits(pt.stream("elements").data, width, n * k)
        vals = _element_values(fmt.element, codes).reshape(n, k)
        scales = self._get_scales(fmt, pt, n)
        safe = np.where(scales > 0, scales, 1.0)
        dq = np.where(scales[:, None] > 0, vals * safe[:, None], 0.0)
        return from_groups(dq, view)


class SMXCodec(Codec):
    """SMX: element codes + E8M0 exponents + 1-bit pair micro-exponents."""

    subgroup_streams = ("meta",)

    def encode_into(self, fmt, x, pt):
        groups, _ = to_groups(x, fmt.group_size, axis=pt.axis)
        res = fmt.quantize_groups(groups)
        scales, micro = res.scales, res.details["micro_exponents"]
        n, k = groups.shape
        pairs = groups.reshape(n, k // fmt.sub_size, fmt.sub_size)
        local = scales[:, None] / np.exp2(micro)
        q = fmt.element.quantize(pairs / local[:, :, None])
        codes = _element_codes(fmt.element, q)
        _put_exponents(pt, "scales", scales)
        pt.add_stream("meta", pack_bits(micro.astype(np.int64).reshape(-1), 1),
                      1, micro.size)
        width = _element_width(fmt.element)
        pt.add_stream("elements", pack_bits(codes.reshape(-1), width),
                      width, codes.size)

    def decode(self, fmt, pt):
        view = _view(pt)
        n, k = _n_groups(pt), pt.group_size
        n_pairs = k // fmt.sub_size
        scales = _get_exponent_scales(pt, "scales", n)
        micro = unpack_bits(pt.stream("meta").data, 1,
                            n * n_pairs).astype(np.float64).reshape(n, n_pairs)
        width = _element_width(fmt.element)
        codes = unpack_bits(pt.stream("elements").data, width, n * k)
        vals = _element_values(fmt.element, codes).reshape(n, n_pairs, fmt.sub_size)
        local = scales[:, None] / np.exp2(micro)
        dq = (vals * local[:, :, None]).reshape(n, k)
        return from_groups(dq, view)


def _nvfp4_put_scales(element, scale_format, groups: np.ndarray,
                      pt: PackedTensor,
                      tensor_amax: float | None = None) -> np.ndarray | None:
    """Serialize NVFP4's two-level scales (E4M3 codes + header tensor
    scale); returns the raw group scales ``s8 * ts``, or None for the
    zero-tensor case (no scale stream, ``tensor_scale`` pinned to 0).
    A tensor scale that underflows to 0 (every ``|x|`` below about
    1.3e-320) is laid out like a zero tensor's, and its group scales
    are all 0.

    Shared by :class:`NVFP4Codec` and :class:`M2NVFP4Codec` so the scale
    derivation cannot drift between the base format and its M2 extension.
    """
    if tensor_amax is None:
        tensor_amax = float(np.max(np.abs(groups), initial=0.0))
    if tensor_amax == 0.0:
        pt.extra["tensor_scale"] = _hex(0.0)
        return None
    ts = tensor_amax / (element.max_value * scale_format.max_value)
    pt.extra["tensor_scale"] = _hex(ts)
    if ts == 0.0:
        return np.zeros(groups.shape[0])
    group_amax = np.max(np.abs(groups), axis=1)
    ideal = group_amax / (element.max_value * ts)
    s8 = scale_format.quantize(ideal)
    _, s8_codes = scale_format.encode(s8)
    pt.add_stream("scales", pack_bits(s8_codes, 8), 8, s8_codes.size)
    return s8 * ts


def _nvfp4_tensor_scale(pt: PackedTensor) -> float | np.ndarray:
    """The header tensor scale (0.0 for a zero tensor), or the per-row
    float64 array a row run from :func:`join_rows` carries instead."""
    ts = pt.extra.get("tensor_scale")
    return ts if isinstance(ts, np.ndarray) else _unhex(pt, "tensor_scale")


def _nvfp4_layout(pt: PackedTensor, layout: tuple) -> tuple:
    """``layout`` without its leading scale stream for a zero tensor."""
    return layout[1:] if pt.extra.get("tensor_scale") == _ZERO_HEX \
        else layout


def _nvfp4_counts(pt: PackedTensor, counts: dict) -> dict:
    """Drop the scale stream from ``counts`` for a zero tensor."""
    if not np.any(_nvfp4_tensor_scale(pt)):
        del counts["scales"]
    return counts


def _nvfp4_get_scales(scale_format, pt: PackedTensor,
                      n: int) -> np.ndarray | None:
    """Invert :func:`_nvfp4_put_scales` (None for the zero-tensor case).

    A row run's per-row tensor scales are broadcast to each row's
    groups, so every group gets the same ``s8 * ts`` multiply its own
    block's decode does.
    """
    ts = _nvfp4_tensor_scale(pt)
    if not np.any(ts):
        return None
    if isinstance(ts, np.ndarray):
        ts = np.repeat(ts, n // ts.size)
    s8 = scale_format.decode(np.zeros(n, dtype=np.int64),
                             unpack_bits(pt.stream("scales").data, 8, n))
    return s8 * ts


class NVFP4Codec(Codec):
    """Two-level NVFP4: E4M3 scale codes + the FP32 tensor scale in-header."""

    code_streams = ("scales", "elements")

    def code_layout(self, fmt, pt):
        return _nvfp4_layout(pt, self.code_streams)

    def stream_counts(self, fmt, pt):
        return _nvfp4_counts(pt, super().stream_counts(fmt, pt))

    def encode_into(self, fmt, x, pt, tensor_amax: float | None = None):
        groups, _ = to_groups(x, fmt.group_size, axis=pt.axis)
        scales = _nvfp4_put_scales(fmt.element, fmt.scale_format, groups, pt,
                                   tensor_amax)
        if scales is None:
            codes = _element_codes(fmt.element, groups)
        elif "scales" not in pt.streams:
            # An underflowed tensor scale: quantize gives +0.0 throughout.
            codes = _element_codes(fmt.element, np.zeros_like(groups))
        else:
            safe = np.where(scales > 0, scales, 1.0)
            codes = _element_codes(fmt.element, groups / safe[:, None])
        pt.add_stream("elements", pack_bits(codes.reshape(-1), 4), 4, codes.size)

    def decode(self, fmt, pt):
        view = _view(pt)
        n, k = _n_groups(pt), pt.group_size
        codes = unpack_bits(pt.stream("elements").data, 4, n * k)
        vals = _element_values(fmt.element, codes).reshape(n, k)
        scales = _nvfp4_get_scales(fmt.scale_format, pt, n)
        if scales is None:
            return from_groups(vals, view)
        safe = np.where(scales > 0, scales, 1.0)
        dq = np.where(scales[:, None] > 0, vals * safe[:, None], 0.0)
        return from_groups(dq, view)


class MaxPreserveCodec(Codec):
    """Inner-format streams with the group max re-stored as FP16 + index.

    When the wrapper and inner group sizes agree, the inner element code
    at the max position is *dropped* from the element stream (the decoder
    overwrites it anyway), so the measured footprint matches the format's
    nominal EBW accounting exactly.
    """

    def encode_into(self, fmt, x, pt):
        if getattr(fmt.inner, "group_size", None) != fmt.group_size:
            raise CodecError("MaxPreserving codec requires the wrapper and "
                             "inner formats to share a group size")
        inner_codec = codec_for(fmt.inner)
        inner_codec.encode_into(fmt.inner, x, pt)
        orig, _ = to_groups(x, fmt.group_size, axis=pt.axis)
        rows = np.arange(orig.shape[0])
        idx = np.argmax(np.abs(orig), axis=1)
        maxq = FP16.quantize(orig[rows, idx])
        idx_bits = max(1, int(np.ceil(np.log2(fmt.group_size))))
        pt.add_stream("max_idx", pack_bits(idx, idx_bits), idx_bits, idx.size)
        max_codes = _element_codes(FP16, maxq)
        pt.add_stream("max_val", pack_bits(max_codes, 16), 16, max_codes.size)
        dropped = "elements" in pt.streams
        pt.extra["dropped_max"] = bool(dropped)
        if dropped:
            elems = pt.streams.pop("elements")
            codes = unpack_bits(elems.data, elems.width, elems.count)
            k = fmt.group_size
            keep = np.delete(codes, rows * k + idx)
            pt.add_stream("elements", pack_bits(keep, elems.width),
                          elems.width, keep.size)

    def stream_counts(self, fmt, pt):
        counts = codec_for(fmt.inner).stream_counts(fmt.inner, pt)
        n = _n_groups(pt)
        if pt.extra.get("dropped_max"):
            counts["elements"] = n * (pt.group_size - 1)
        return {**counts, "max_idx": n, "max_val": n}

    def decode(self, fmt, pt):
        inner_codec = codec_for(fmt.inner)
        n, k = _n_groups(pt), pt.group_size
        rows = np.arange(n)
        idx_bits = max(1, int(np.ceil(np.log2(k))))
        idx = unpack_bits(pt.stream("max_idx").data, idx_bits, n)
        if pt.extra.get("dropped_max"):
            # Re-insert placeholder codes at the dropped max positions on
            # a shallow copy: decode must never mutate a (possibly
            # shared) container, so the original streams stay untouched.
            elems = pt.stream("elements")
            kept = unpack_bits(elems.data, elems.width, elems.count)
            full = np.insert(kept, rows * (k - 1) + idx, 0)
            tmp = PackedTensor(format_name=pt.format_name,
                               fingerprint=pt.fingerprint, op=pt.op,
                               shape=pt.shape, axis=pt.axis,
                               group_size=pt.group_size,
                               streams=dict(pt.streams), extra=pt.extra)
            tmp.streams["elements"] = Stream(
                "elements", pack_bits(full, elems.width).tobytes(),
                elems.width, full.size)
            dq = inner_codec.decode(fmt.inner, tmp)
        else:
            dq = inner_codec.decode(fmt.inner, pt)
        max_codes = unpack_bits(pt.stream("max_val").data, 16, n)
        maxv = _element_values(FP16, max_codes)
        quant, view = to_groups(dq, k, axis=pt.axis)
        quant[rows, idx] = maxv
        return from_groups(quant, view)


class ElemEMCodec(Codec):
    """Elem-EM: FP4 codes + E8M0 exponents + 2-bit top-k metadata."""

    code_streams = ("elements", "scales", "meta")

    def encode_into(self, fmt, x, pt):
        groups, _ = to_groups(x, fmt.group_size, axis=pt.axis)
        enc = elem_em_encode(groups, fmt.sub_size, fmt.top_k, fmt.scale_rule)
        codes = (enc.sign_codes << 3) | enc.mag_codes
        pt.add_stream("elements", pack_bits(codes.reshape(-1), 4), 4, codes.size)
        pt.add_stream("scales", pack_bits(enc.scale_exponents + 127, 8),
                      8, enc.scale_exponents.size)
        pt.add_stream("meta", pack_bits(enc.metadata.reshape(-1),
                                        META_BITS_PER_VALUE),
                      META_BITS_PER_VALUE, enc.metadata.size)

    def stream_counts(self, fmt, pt):
        counts = super().stream_counts(fmt, pt)
        counts["meta"] = counts["elements"] // fmt.sub_size * fmt.top_k
        return counts

    def decode(self, fmt, pt):
        view = _view(pt)
        n, k = _n_groups(pt), pt.group_size
        n_sub = k // fmt.sub_size
        codes = unpack_bits(pt.stream("elements").data, 4, n * k).reshape(n, k)
        exps = unpack_bits(pt.stream("scales").data, 8, n) - 127
        meta = unpack_bits(pt.stream("meta").data, META_BITS_PER_VALUE,
                           n * n_sub * fmt.top_k).reshape(n, n_sub, fmt.top_k)
        enc = ElemEMEncoding(sign_codes=codes >> 3, mag_codes=codes & 0x7,
                             scale_exponents=exps, metadata=meta,
                             sub_size=fmt.sub_size, top_k=fmt.top_k)
        return from_groups(elem_em_decode(enc), view)


class SgEMCodec(Codec):
    """Sg-EM: FP4 codes + stored (bias-folded) exponents + 2-bit sg codes."""

    code_streams = ("elements", "scales", "meta")
    subgroup_streams = ("meta",)

    def encode_into(self, fmt, x, pt):
        groups, _ = to_groups(x, fmt.group_size, axis=pt.axis)
        enc = sg_em_encode(groups, fmt.sub_size, fmt.adaptive, fmt.scale_rule)
        codes = (enc.sign_codes << 3) | enc.mag_codes
        pt.add_stream("elements", pack_bits(codes.reshape(-1), 4), 4, codes.size)
        pt.add_stream("scales", pack_bits(enc.scale_exponents + 127, 8),
                      8, enc.scale_exponents.size)
        pt.add_stream("meta", pack_bits(enc.sg_codes.reshape(-1), 2),
                      2, enc.sg_codes.size)

    def decode(self, fmt, pt):
        view = _view(pt)
        n, k = _n_groups(pt), pt.group_size
        n_sub = k // fmt.sub_size
        codes = unpack_bits(pt.stream("elements").data, 4, n * k).reshape(n, k)
        exps = unpack_bits(pt.stream("scales").data, 8, n) - 127
        sg = unpack_bits(pt.stream("meta").data, 2, n * n_sub).reshape(n, n_sub)
        enc = SgEMEncoding(sign_codes=codes >> 3, mag_codes=codes & 0x7,
                           scale_exponents=exps, sg_codes=sg,
                           sub_size=fmt.sub_size)
        return from_groups(sg_em_decode(enc), view)


class SgEECodec(Codec):
    """Sg-EE: FP4 codes + exponents + per-subgroup decrement codes."""

    code_streams = ("elements", "scales", "meta")
    subgroup_streams = ("meta",)

    def encode_into(self, fmt, x, pt):
        groups, _ = to_groups(x, fmt.group_size, axis=pt.axis)
        enc = sg_ee_encode(groups, fmt.sub_size, fmt.meta_bits, fmt.adaptive,
                           fmt.scale_rule)
        codes = (enc.sign_codes << 3) | enc.mag_codes
        pt.add_stream("elements", pack_bits(codes.reshape(-1), 4), 4, codes.size)
        pt.add_stream("scales", pack_bits(enc.scale_exponents + 127, 8),
                      8, enc.scale_exponents.size)
        pt.add_stream("meta", pack_bits(enc.sg_decrements.reshape(-1),
                                        fmt.meta_bits),
                      fmt.meta_bits, enc.sg_decrements.size)

    def decode(self, fmt, pt):
        view = _view(pt)
        n, k = _n_groups(pt), pt.group_size
        n_sub = k // fmt.sub_size
        codes = unpack_bits(pt.stream("elements").data, 4, n * k).reshape(n, k)
        exps = unpack_bits(pt.stream("scales").data, 8, n) - 127
        decs = unpack_bits(pt.stream("meta").data, fmt.meta_bits,
                           n * n_sub).reshape(n, n_sub)
        enc = SgEEEncoding(sign_codes=codes >> 3, mag_codes=codes & 0x7,
                           scale_exponents=exps, sg_decrements=decs,
                           sub_size=fmt.sub_size, meta_bits=fmt.meta_bits)
        return from_groups(sg_ee_decode(enc), view)


class ElemEECodec(Codec):
    """Elem-EE: baseline FP4 codes + per-subgroup (offset, refined-code).

    The baseline code at the top position stays in the element stream so
    the decoder can re-identify the top element by code ``argmax`` (as
    the other element-metadata decoders do); the refined magnitude code
    therefore needs its own 3-bit field — see the module docstring for
    why this exceeds the nominal metadata budget.
    """

    code_streams = ("elements", "scales", "meta", "refined")
    subgroup_streams = ("meta", "refined")

    def encode_into(self, fmt, x, pt):
        from ..mx.scale_rules import shared_scale_exponent
        groups, _ = to_groups(x, fmt.group_size, axis=pt.axis)
        n, k = groups.shape
        n_sub = k // fmt.sub_size
        o_max = (1 << fmt.meta_bits) - 1
        amax = np.max(np.abs(groups), axis=1)
        exps = shared_scale_exponent(amax, FP4_E2M1, fmt.scale_rule)
        scaled = groups / np.exp2(exps.astype(np.float64))[:, None]
        sign, mag = FP4_E2M1.encode(scaled)
        codes = (sign << 3) | mag
        mag_sub = mag.reshape(n, n_sub, fmt.sub_size)
        top_idx = np.argmax(mag_sub, axis=2)[:, :, None]
        top_val = np.take_along_axis(scaled.reshape(n, n_sub, fmt.sub_size),
                                     top_idx, axis=2)[:, :, 0]
        # The offset search is shared with the format's own kernel path
        # (first-strict-improvement semantics), not re-derived here.
        ref_codes, _, pick = elem_ee_select(top_val, o_max, FP4_E2M1)
        refined = np.take_along_axis(ref_codes, pick[..., None], axis=-1)[..., 0]
        pt.add_stream("elements", pack_bits(codes.reshape(-1), 4), 4, codes.size)
        pt.add_stream("scales", pack_bits(exps + 127, 8), 8, exps.size)
        pt.add_stream("meta", pack_bits(pick.reshape(-1), fmt.meta_bits),
                      fmt.meta_bits, pick.size)
        pt.add_stream("refined", pack_bits(refined.reshape(-1), 3),
                      3, refined.size)

    def decode(self, fmt, pt):
        view = _view(pt)
        n, k = _n_groups(pt), pt.group_size
        n_sub = k // fmt.sub_size
        codes = unpack_bits(pt.stream("elements").data, 4, n * k).reshape(n, k)
        scales = _get_exponent_scales(pt, "scales", n)
        pick = unpack_bits(pt.stream("meta").data, fmt.meta_bits,
                           n * n_sub).reshape(n, n_sub)
        refined = unpack_bits(pt.stream("refined").data, 3,
                              n * n_sub).reshape(n, n_sub)
        sign, mag = codes >> 3, codes & 0x7
        dq = FP4_E2M1.decode(sign, mag)
        mag_sub = mag.reshape(n, n_sub, fmt.sub_size)
        top_idx = np.argmax(mag_sub, axis=2)[:, :, None]
        top_sign = np.take_along_axis(sign.reshape(n, n_sub, fmt.sub_size),
                                      top_idx, axis=2)[:, :, 0]
        best = FP4_E2M1.grid[refined] * np.exp2(pick.astype(np.float64))
        best = np.where(top_sign != 0, -best, best)
        out = dq.reshape(n, n_sub, fmt.sub_size).copy()
        np.put_along_axis(out, top_idx, best[:, :, None], axis=2)
        return from_groups(out.reshape(n, k) * scales[:, None], view)


class M2XFPCodec(Codec):
    """M2XFP: Sg-EM streams for weights, Elem-EM streams for activations."""

    #: Both delegates pack this layout.
    code_streams = ("elements", "scales", "meta")

    def _delegate(self, fmt, pt):
        if pt.op == "weight":
            return SgEMCodec(), fmt.weight_format
        return ElemEMCodec(), fmt.activation_format

    def encode_into(self, fmt, x, pt):
        codec, sub_fmt = self._delegate(fmt, pt)
        codec.encode_into(sub_fmt, x, pt)

    def stream_counts(self, fmt, pt):
        codec, sub_fmt = self._delegate(fmt, pt)
        return codec.stream_counts(sub_fmt, pt)

    def decode(self, fmt, pt):
        codec, sub_fmt = self._delegate(fmt, pt)
        return codec.decode(sub_fmt, pt)


class M2NVFP4Codec(Codec):
    """M2-NVFP4: the NVFP4 two-level scales plus M2XFP metadata streams."""

    #: The activation layout; weights add the per-group ``bias`` stream.
    code_streams = ("scales", "elements", "meta")
    subgroup_streams = ("meta",)

    def code_layout(self, fmt, pt):
        layout = self.code_streams
        if pt.op == "weight":
            layout += ("bias",)
        return _nvfp4_layout(pt, layout)

    def _scales_for_encode(self, fmt, groups, pt) -> np.ndarray:
        raw = _nvfp4_put_scales(fmt.base.element, fmt.base.scale_format,
                                groups, pt)
        if raw is None:     # zero tensor: base.quantize_detailed says ones
            return np.ones(groups.shape[0])
        return np.where(raw > 0, raw, 1.0)

    def stream_counts(self, fmt, pt):
        counts = super().stream_counts(fmt, pt)
        if pt.op == "weight":
            counts["bias"] = _n_groups(pt)
        return _nvfp4_counts(pt, counts)

    def _scales_for_decode(self, fmt, pt, n) -> np.ndarray:
        raw = _nvfp4_get_scales(fmt.base.scale_format, pt, n)
        if raw is None:
            return np.ones(n)
        return np.where(raw > 0, raw, 1.0)

    def encode_into(self, fmt, x, pt):
        groups, _ = to_groups(x, fmt.group_size, axis=pt.axis)
        scales = self._scales_for_encode(fmt, groups, pt)
        n, k = groups.shape
        n_sub = k // fmt.sub_size
        if pt.op == "weight":
            subs = groups.reshape(n, n_sub, fmt.sub_size)
            biases = (0.5, 1.0, 2.0) if fmt.adaptive else (1.0,)
            mult = np.asarray(SG_EM_MULTIPLIERS)
            cand = ((scales[:, None] * np.asarray(biases))[:, :, None]
                    * mult).reshape(n, -1)
            codes, err = candidate_search(subs, cand, FP4_E2M1.grid,
                                          FP4_E2M1.boundaries)
            outer, inner, invalid = hierarchical_select(
                err, len(biases), len(mult), fallback_outer=biases.index(1.0))
            if invalid.any():
                raise CodecError("M2-NVFP4 weight search produced an invalid "
                                 "group; inputs must be finite")
            mag = gather_candidate_codes(codes, outer, inner, len(mult))
            sign = np.signbit(subs).astype(np.int64)
            elem = (sign << 3) | mag.reshape(n, n_sub, fmt.sub_size)
            pt.add_stream("elements", pack_bits(elem.reshape(-1), 4),
                          4, elem.size)
            pt.add_stream("meta", pack_bits(inner.reshape(-1), 2), 2, inner.size)
            pt.add_stream("bias", pack_bits(outer, 2), 2, outer.size)
        else:
            scaled = groups / scales[:, None]
            sign, mag = FP4_E2M1.encode(scaled)
            elem = (sign << 3) | mag
            mag_sub = mag.reshape(n, n_sub, fmt.sub_size)
            top_idx = np.argmax(mag_sub, axis=2)[:, :, None]
            abs_sub = np.abs(scaled).reshape(n, n_sub, fmt.sub_size)
            top_abs = np.take_along_axis(abs_sub, top_idx, axis=2)
            fp6 = quantize_to_grid(top_abs, FP6_E2M3.grid)
            fp4_top = np.take_along_axis(mag_sub, top_idx, axis=2)
            lo = fp4_top << META_BITS_PER_VALUE
            meta = (np.clip(fp6 + 1, lo, lo + 3) - lo)[:, :, 0]
            pt.add_stream("elements", pack_bits(elem.reshape(-1), 4),
                          4, elem.size)
            pt.add_stream("meta", pack_bits(meta.reshape(-1), 2), 2, meta.size)

    def decode(self, fmt, pt):
        view = _view(pt)
        n, k = _n_groups(pt), pt.group_size
        n_sub = k // fmt.sub_size
        scales = self._scales_for_decode(fmt, pt, n)
        codes = unpack_bits(pt.stream("elements").data, 4, n * k)
        sign, mag = codes >> 3, codes & 0x7
        if pt.op == "weight":
            biases = (0.5, 1.0, 2.0) if fmt.adaptive else (1.0,)
            mult = np.asarray(SG_EM_MULTIPLIERS)
            cand = ((scales[:, None] * np.asarray(biases))[:, :, None]
                    * mult).reshape(n, -1)
            inner = unpack_bits(pt.stream("meta").data, 2,
                                n * n_sub).reshape(n, n_sub)
            outer = unpack_bits(pt.stream("bias").data, 2, n)
            s_sel = np.take_along_axis(
                cand, outer[:, None] * len(SG_EM_MULTIPLIERS) + inner, axis=1)
            q = FP4_E2M1.grid[mag.reshape(n, n_sub, fmt.sub_size)]
            signs = sign.reshape(n, n_sub, fmt.sub_size)
            dq = np.where(signs != 0, -q, q) * s_sel[:, :, None]
            return from_groups(dq.reshape(n, k), view)
        meta = unpack_bits(pt.stream("meta").data, 2,
                           n * n_sub).reshape(n, n_sub)
        dq = FP4_E2M1.decode(sign, mag).reshape(n, k)
        mag_sub = mag.reshape(n, n_sub, fmt.sub_size)
        top_idx = np.argmax(mag_sub, axis=2)[:, :, None]
        fp4_top = np.take_along_axis(mag_sub, top_idx, axis=2)[:, :, 0]
        lo = fp4_top << META_BITS_PER_VALUE
        decoded = np.clip((lo | meta) - 1, 0, FP6_E2M3.code_count - 1)
        refined = FP6_E2M3.grid[decoded]
        sign_sub = sign.reshape(n, n_sub, fmt.sub_size)
        top_sign = np.take_along_axis(sign_sub, top_idx, axis=2)[:, :, 0]
        signed = np.where(top_sign != 0, -refined, refined)
        out = dq.reshape(n, n_sub, fmt.sub_size).copy()
        np.put_along_axis(out, top_idx, signed[:, :, None], axis=2)
        return from_groups(out.reshape(n, k) * scales[:, None], view)


# ----------------------------------------------------------------------
# Registry and the public API
# ----------------------------------------------------------------------
#: Exact instance type -> codec. Subclasses do not inherit an entry
#: (as with the plan executors' ``EXECUTOR_COMPILERS``): a subclass may
#: override the quantizer, and the inherited streams would then pack
#: bytes that decode to something else.
_CODECS: dict[type, Codec] = {
    MaxPreserving: MaxPreserveCodec(),
    M2XFP: M2XFPCodec(),
    M2NVFP4: M2NVFP4Codec(),
    NVFP4: NVFP4Codec(),
    ElemEM: ElemEMCodec(),
    ElemEE: ElemEECodec(),
    SgEM: SgEMCodec(),
    SgEE: SgEECodec(),
    SMX: SMXCodec(),
    MSFP: MSFPCodec(),
    GroupFP4: GroupFP4Codec(),
    BlockFormat: BlockCodec(),
    Fp16Format: Fp16Codec(),
}


def codec_for(fmt) -> Codec:
    """The codec handling ``fmt``, or :class:`CodecError` if none does."""
    codec = _CODECS.get(type(fmt))
    if codec is None:
        raise CodecError(f"no codec registered for {type(fmt).__name__}")
    return codec


def supports(fmt) -> bool:
    """Whether :func:`encode` can serialize this format."""
    try:
        codec_for(fmt)
        return True
    except CodecError:
        return False


_NAME_BY_REPR: dict[str, str] = {}


def _catalog_name(fmt) -> str:
    """Catalog name whose factory builds a format configured like ``fmt``."""
    if not _NAME_BY_REPR:
        from ..runner.formats import FORMAT_REGISTRY
        for name, factory in FORMAT_REGISTRY.items():
            _NAME_BY_REPR[repr(factory())] = name
    return _NAME_BY_REPR.get(repr(fmt), "")


def _group_size(fmt) -> int:
    """The group size :func:`encode` writes into ``fmt``'s headers."""
    return int(getattr(fmt, "group_size", 1))


def _check_header(pt: PackedTensor, fingerprint: str, group_size: int) -> None:
    """Refuse a container whose fingerprint or group size is not the
    decoding format's (``repr(fmt)``, :func:`_group_size`)."""
    if pt.fingerprint != fingerprint:
        raise CodecError(f"format fingerprint mismatch: container was "
                         f"packed with {pt.fingerprint}, decoding with "
                         f"{fingerprint}")
    if pt.group_size != group_size:
        raise CodecError(f"container group_size {pt.group_size} is not "
                         f"the format's {group_size}")


def _dispatch_quantize(fmt, x, op: str, axis: int) -> np.ndarray:
    return (fmt.quantize_weight(x, axis=axis) if op == "weight"
            else fmt.quantize_activation(x, axis=axis))


class _Packing(NamedTuple):
    """What :func:`encode` derives from the format alone. A planned
    signature holds it on its :class:`~repro.plan.QuantPlan`, so it is
    derived once per ``(format, op, shape, axis)``, not per call."""

    codec: Codec
    format_name: str
    fingerprint: str
    group_size: int
    #: The plan's code-space runner when the codec has a fused layout.
    run_codes: Callable | None


def _packing(fmt, run_codes=None) -> _Packing:
    codec = codec_for(fmt)
    return _Packing(codec, _catalog_name(fmt), repr(fmt), _group_size(fmt),
                    run_codes if codec.code_streams is not None else None)


def _plan_packing(fmt, op: str, x: np.ndarray, axis: int) -> _Packing:
    """The packing held on ``fmt``'s plan, bound on the plan's first
    encode; a fresh one when no plan serves the call."""
    from ..plan.cache import lookup_plan
    plan = lookup_plan(fmt, op, x, axis)
    if plan is None:
        return _packing(fmt)
    if plan.packing is None:    # racing binders compute equal values
        plan.packing = _packing(fmt, plan.run_codes)
    return plan.packing


def encode(fmt, x: np.ndarray, op: str = "activation", axis: int = -1,
           verify: bool = False, **kwargs) -> PackedTensor:
    """Serialize ``x`` under ``fmt`` into a :class:`PackedTensor`.

    ``op`` selects the operand path (hybrid formats quantize weights and
    activations differently). ``verify=True`` decodes the fresh container
    and cross-checks it bit-for-bit against the format's own quantize
    output — cheap insurance when integrating a new format. Extra
    ``kwargs`` go to the codec (e.g. NVFP4's calibrated ``tensor_amax``).

    When a compiled plan with a code-space sibling exists for
    ``(fmt, op, shape, axis)``, the container is packed straight from
    the executor's integer codes — no dequantize/re-derive round trip,
    byte-identical output — and ``verify=True`` degrades from
    re-quantizing everything to an O(bytes) cross-check: each packed
    stream is unpacked and compared against the executor's code arrays,
    catching bitstream truncation and round-trip bugs without ever
    materializing floats (the code-vs-float parity itself is pinned
    statically by ``tests/test_fused_pack.py``).
    """
    if op not in OPS:
        raise CodecError(f"op must be one of {OPS}, got {op!r}")
    x = np.asarray(x, dtype=np.float64)
    axis = axis % x.ndim if x.ndim else 0
    packing = _packing(fmt) if kwargs else _plan_packing(fmt, op, x, axis)
    codec = packing.codec
    pt = PackedTensor(format_name=packing.format_name,
                      fingerprint=packing.fingerprint, op=op, shape=x.shape,
                      axis=axis, group_size=packing.group_size)
    sink = getattr(_STAGE_SINK, "stats", None)
    tr = _obs.current_trace()
    timed = sink is not None or tr is not None

    def _mark(stage: str, t0: float) -> float:
        """Close one stage: feed the sink counter and the trace span."""
        t1 = time.perf_counter()
        if sink is not None:
            sink[stage + "_s"] += t1 - t0
        if tr is not None:
            tr.add_span(stage, t0, t1)
        return t1

    if timed:
        t0 = time.perf_counter()
    cs = None if packing.run_codes is None else packing.run_codes(x)
    if _obs.metrics_enabled():
        with _ENCODE_TOTALS_LOCK:
            _ENCODE_TOTALS["encodes"] += 1
            _ENCODE_TOTALS["fused_encodes"] += cs is not None
    if sink is not None:
        sink["encodes"] += 1
        sink["fused_encodes"] += cs is not None
    if cs is not None:
        if timed:
            t0 = _mark("quantize", t0)
        codec.encode_from_codes(fmt, cs, pt)
        if timed:
            t0 = _mark("pack", t0)
        if verify:
            for s in cs.streams:
                stored = pt.stream(s.name)
                back = unpack_bits(stored.data, stored.width, stored.count)
                if not np.array_equal(back,
                                      np.asarray(s.values).reshape(-1)):
                    raise CodecError(
                        f"fused pack round-trip mismatch for {fmt!r} "
                        f"({op}), stream {s.name!r}")
            if timed:
                _mark("verify", t0)
        return pt
    codec.encode_into(fmt, x, pt, **kwargs)
    if timed:
        t0 = _mark("quantize", t0)
    if verify:
        expect = _dispatch_quantize(fmt, x, op, axis)
        got = codec.decode(fmt, pt)
        if got.tobytes() != np.asarray(expect, dtype=np.float64).tobytes():
            raise CodecError(f"round-trip mismatch for {fmt!r} ({op})")
        if timed:
            _mark("verify", t0)
    return pt


def decode(packed: PackedTensor | bytes, fmt=None) -> np.ndarray:
    """Reconstruct the dequantized tensor from a container (or its bytes).

    Without ``fmt`` the format is rebuilt from the header's catalog name
    and checked against the stored fingerprint; pass ``fmt`` explicitly
    for non-catalog configurations.
    """
    if isinstance(packed, (bytes, bytearray, memoryview)):
        packed = PackedTensor.from_bytes(bytes(packed))
    if fmt is None:
        if not packed.format_name:
            raise CodecError("container has no catalog format name; pass the "
                             "format instance to decode() explicitly")
        from ..runner.formats import make_format
        try:
            fmt = make_format(packed.format_name)
        except ConfigError as exc:
            raise CodecError(f"container format: {exc}") from None
    _check_header(packed, repr(fmt), _group_size(fmt))
    codec = codec_for(fmt)
    for name, count in codec.stream_counts(fmt, packed).items():
        held = packed.stream(name).count
        if held != count:
            raise CodecError(f"stream {name!r} holds {held} fields; a shape "
                             f"{packed.shape} container needs {count}")
    return codec.decode(fmt, packed)


def _rows(pt: PackedTensor) -> int:
    """Leading-axis rows of a non-empty tensor of two or more dims
    grouped on its last axis (each row whole groups, in stream order),
    else 0: the containers the row operations accept."""
    shape = pt.shape
    if len(shape) < 2 or pt.axis != len(shape) - 1 or not all(shape):
        return 0
    return shape[0]


def _row_layout(pt: PackedTensor) -> tuple:
    """What two containers must share to join rows (see :func:`join_rows`)."""
    return (pt.format_name, pt.fingerprint, pt.op, pt.group_size,
            pt.shape[1:], [(s.name, s.width) for s in pt.streams.values()],
            {k: v for k, v in pt.extra.items() if k != "tensor_scale"})


def _row_scales(pt: PackedTensor, rows: int) -> np.ndarray | None:
    """A non-zero tensor scale per row, or None (no or a zero scale)."""
    if "tensor_scale" not in pt.extra:
        return None
    ts = _nvfp4_tensor_scale(pt)
    if not np.any(ts):
        return None
    return ts if isinstance(ts, np.ndarray) else np.full(rows, ts)


def join_rows(head: PackedTensor, tail: PackedTensor) -> PackedTensor | None:
    """One container holding ``head``'s rows then ``tail``'s, or None
    when their row layouts differ: anything in the header but the row
    count and a non-zero NVFP4-family tensor scale (so fp16's f16 and
    f64 storage never join, nor a zero tensor a scaled one). Tensor
    scales stay per row, as a float64 array in ``extra``. Each stream
    is byte-joined when ``head``'s fields end on a byte boundary, else
    unpacked, concatenated and repacked.
    """
    hr, tr = _rows(head), _rows(tail)
    if not (hr and tr) or _row_layout(head) != _row_layout(tail):
        return None
    hs, ts = _row_scales(head, hr), _row_scales(tail, tr)
    if (hs is None) != (ts is None):
        return None
    streams = {}
    for h, t in zip(head.streams.values(), tail.streams.values()):
        if h.count * tr != t.count * hr:
            return None
        if h.count * h.width % 8 == 0:
            data = h.data + t.data
        else:
            data = pack_bits(np.concatenate(
                [unpack_bits(h.data, h.width, h.count),
                 unpack_bits(t.data, t.width, t.count)]), h.width).tobytes()
        streams[h.name] = Stream(h.name, data, h.width, h.count + t.count)
    extra = head.extra if hs is None else \
        {**head.extra, "tensor_scale": np.concatenate([hs, ts])}
    return replace(head, shape=(hr + tr, *head.shape[1:]), streams=streams,
                   extra=extra)


def slice_rows(pt: PackedTensor, start: int, stop: int) -> PackedTensor:
    """Rows ``start:stop`` of ``pt`` as their own container,
    ``0 <= start < stop <= rows``.

    Each stream is byte-sliced when both cuts fall on a byte boundary
    (or the end of the stream), else unpacked, sliced and repacked; a
    per-row tensor scale array is sliced with the rows. Rows of a
    group-wise format encode independently, so its slice is
    byte-identical to encoding those rows alone.
    """
    rows = _rows(pt)
    if not 0 <= start < stop <= rows:
        raise CodecError(f"cannot take rows {start}:{stop} of a shape "
                         f"{pt.shape} container grouped on axis {pt.axis}")
    streams = {}
    for s in pt.streams.values():
        per = s.count // rows
        lo, hi = per * start, per * stop
        if lo * s.width % 8 == 0 and \
                (hi == s.count or hi * s.width % 8 == 0):
            data = s.data[lo * s.width // 8:(hi * s.width + 7) // 8]
        else:
            data = pack_bits(unpack_bits(s.data, s.width, s.count)[lo:hi],
                             s.width).tobytes()
        streams[s.name] = Stream(s.name, data, s.width, hi - lo)
    extra = pt.extra
    if isinstance(extra.get("tensor_scale"), np.ndarray):
        extra = {**extra,
                 "tensor_scale": extra["tensor_scale"][start:stop].copy()}
    return replace(pt, shape=(stop - start, *pt.shape[1:]), streams=streams,
                   extra=extra)


def drop_rows(pt: PackedTensor, n: int) -> PackedTensor:
    """``pt`` without its first ``n`` rows, ``0 < n < rows``: the
    :func:`slice_rows` suffix an eviction keeps."""
    rows = _rows(pt)
    if not 0 < n < rows:
        raise CodecError(f"cannot drop {n} leading rows of a shape "
                         f"{pt.shape} container grouped on axis {pt.axis}")
    return slice_rows(pt, n, rows)
