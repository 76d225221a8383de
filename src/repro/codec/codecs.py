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

There is one encode path. The quantizer's output *is* the stored codes:
each compiled plan holds an :class:`Encoder`, its encode entry, which
runs the plan's code-space executor (:mod:`repro.plan.executors`) and
packs its code arrays as they are, under either kernel dispatch mode;
:func:`encode` is a thin call into it, and a KV session calls it
directly. A :class:`Codec` declares the stream layout those arrays must
match and owns the decode. The reference
quantizers stay the oracle that tests hold :func:`decode` to. A format
configuration no executor compiles (e.g. ``ElemEM(top_k=2)``) is not
supported: :func:`supports` says False and :func:`encode` raises
:class:`CodecError`.

How each family packs:

* **Block formats** (MXFP4/6/8, MXINT8, MSFP, GroupFP4) — one element
  stream at the scalar's ``total_bits`` plus one scale stream (E8M0
  exponent byte, or FP16 codes for GroupFP4).
* **SMX** — block layout plus a 1-bit micro-exponent per element pair.
* **NVFP4** — FP4 element stream, E4M3 group-scale codes, and the FP32
  tensor scale in the header (as ``float.hex()`` text; an encode of
  several row blocks, or a row run, holds one per row in memory).
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
* **MaxPreserving** — the inner format's streams with each group's
  maximum re-stored as an FP16 code plus its index; the inner element
  code at that index is dropped.
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
from typing import Callable

import numpy as np

from .. import obs as _obs
from ..core.elem_em import META_BITS_PER_VALUE, ElemEM, ElemEMEncoding, \
    elem_em_decode
from ..core.elem_ee import ElemEE
from ..core.m2xfp import M2NVFP4, M2XFP
from ..core.sg_em import SG_EM_MULTIPLIERS, SgEM, SgEMEncoding, sg_em_decode
from ..core.sg_ee import SgEE, SgEEEncoding, sg_ee_decode
from ..errors import CodecError, ConfigError, ShapeError
from ..formats.floatspec import FloatSpec
from ..formats.grouping import GroupView, from_groups, to_groups
from ..formats.intspec import IntSpec
from ..formats.registry import FP4_E2M1, FP6_E2M3, FP16
from ..models.quantized import Fp16Format
from ..mx.base import BlockFormat
from ..mx.fp_group import GroupFP4
from ..mx.max_preserve import MaxPreserving
from ..mx.msfp import MSFP
from ..mx.nvfp import NVFP4
from ..mx.smx import SMX
from ..plan.cache import get_plan
from ..plan.executors import tensor_scoped
from .bitstream import pack_bits, unpack_bits
from .container import OPS, PackedTensor, Stream

__all__ = ["encode", "decode", "join_rows", "slice_rows", "drop_rows",
           "codec_for", "supports", "collect_encode_stats", "Encoder",
           "encoder_for"]

_STAGE_SINK = threading.local()

#: Process-wide encode tally surfaced through the metrics registry as
#: the ``codec`` collector (the per-call sink above stays the precise,
#: caller-scoped instrument; this is the always-on global view).
_ENCODE_TOTALS = {"encodes": 0, "fused_encodes": 0}
_ENCODE_TOTALS_LOCK = threading.Lock()

_obs.registry().register_collector(
    "codec", lambda: dict(_ENCODE_TOTALS))


class collect_encode_stats:
    """Collect per-stage encode timings from :func:`encode` calls.

    Used as ``with collect_encode_stats() as stats``: ``stats`` is a
    dict accumulated in place by every encode on this thread while the
    context is active: ``encodes`` / ``fused_encodes`` call counts
    (every encode packs from plan codes, so the two are equal) and
    ``quantize_s`` / ``pack_s`` / ``verify_s`` stage seconds. Nestable
    — the inner context shadows the outer one. A plain class rather
    than a generator context manager: a KV append enters one per call.
    """

    __slots__ = ("_prev",)

    def __enter__(self) -> dict:
        self._prev = getattr(_STAGE_SINK, "stats", None)
        stats = _STAGE_SINK.stats = {
            "encodes": 0, "fused_encodes": 0,
            "quantize_s": 0.0, "pack_s": 0.0, "verify_s": 0.0}
        return stats

    def __exit__(self, *exc) -> None:
        _STAGE_SINK.stats = self._prev


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def _element_width(element) -> int:
    """Packed bits per sign-magnitude element code."""
    if isinstance(element, FloatSpec):
        return element.total_bits
    if isinstance(element, IntSpec):
        return element.bits
    raise CodecError(f"no element packing for {type(element).__name__}")


def _element_values(element, codes: np.ndarray) -> np.ndarray:
    """Sign-magnitude element codes back to float64 grid values."""
    if isinstance(element, FloatSpec):
        shift = element.exp_bits + element.man_bits
        return element.decode(codes >> shift, codes & ((1 << shift) - 1))
    if isinstance(element, IntSpec):
        mag = (codes & ((1 << (element.bits - 1)) - 1)).astype(np.float64)
        return np.where((codes >> (element.bits - 1)) != 0, -mag, mag)
    raise CodecError(f"no element packing for {type(element).__name__}")


def _get_exponent_scales(pt: PackedTensor, name: str, count: int) -> np.ndarray:
    """E8M0 scale bytes (bias 127) to float64 power-of-two scales."""
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
    """Base class: a format's container stream layout and its decode."""

    #: Stream names a plan's code-space result supplies, in packing
    #: order. :meth:`code_layout` may vary it per container (the NVFP4
    #: family's op and zero tensor, the max-preserving wrapper).
    code_streams: tuple[str, ...] = ("scales", "elements")

    #: Streams holding one field per ``fmt.sub_size``-wide subgroup.
    subgroup_streams: tuple[str, ...] = ()

    def decode(self, fmt, pt: PackedTensor) -> np.ndarray:
        raise NotImplementedError

    def code_layout(self, fmt, pt: PackedTensor) -> tuple[str, ...]:
        """Expected code-space stream layout for this container."""
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


class Fp16Codec(Codec):
    """The identity ``Fp16Format``: float16 words when exact, else raw."""

    code_streams = ("elements",)

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
    """Plain :class:`BlockFormat` and MSFP: element codes + E8M0 bytes."""

    def decode(self, fmt, pt):
        view = _view(pt)
        n = _n_groups(pt)
        k = pt.group_size
        width = _element_width(fmt.element)
        codes = unpack_bits(pt.stream("elements").data, width, n * k)
        vals = _element_values(fmt.element, codes).reshape(n, k)
        scales = _get_exponent_scales(pt, "scales", n)
        return from_groups(vals * scales[:, None], view)


class GroupFP4Codec(Codec):
    """FP16 group scales; zero groups flush to +0.0 exactly like the format."""

    def decode(self, fmt, pt):
        view = _view(pt)
        n, k = _n_groups(pt), pt.group_size
        width = _element_width(fmt.element)
        codes = unpack_bits(pt.stream("elements").data, width, n * k)
        vals = _element_values(fmt.element, codes).reshape(n, k)
        scales = _element_values(
            FP16, unpack_bits(pt.stream("scales").data, 16, n))
        safe = np.where(scales > 0, scales, 1.0)
        dq = np.where(scales[:, None] > 0, vals * safe[:, None], 0.0)
        return from_groups(dq, view)


class SMXCodec(Codec):
    """SMX: element codes + E8M0 exponents + 1-bit pair micro-exponents."""

    code_streams = ("scales", "meta", "elements")
    subgroup_streams = ("meta",)

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


def _nvfp4_tensor_scale(pt: PackedTensor) -> float | np.ndarray:
    """The header tensor scale (0.0 for a zero tensor), or the per-row
    float64 array a row run from :func:`join_rows`, or an encode of
    several row blocks, carries instead."""
    ts = pt.extra.get("tensor_scale")
    return ts if isinstance(ts, np.ndarray) else _unhex(pt, "tensor_scale")


def _nvfp4_layout(pt: PackedTensor, layout: tuple) -> tuple:
    """``layout`` without its leading scale stream when the header's
    tensor scales are all 0 (a zero or underflowed tensor)."""
    if "tensor_scale" in pt.extra and not np.any(_nvfp4_tensor_scale(pt)):
        return layout[1:]
    return layout


def _nvfp4_counts(pt: PackedTensor, counts: dict) -> dict:
    """Drop the scale stream from ``counts`` for a zero tensor."""
    if not np.any(_nvfp4_tensor_scale(pt)):
        del counts["scales"]
    return counts


def _nvfp4_get_scales(scale_format, pt: PackedTensor,
                      n: int) -> np.ndarray | None:
    """NVFP4's two-level group scales ``s8 * ts`` from the E4M3 codes and
    the header tensor scale (None for a zero or underflowed tensor
    scale, which has no scale stream).

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

    def code_layout(self, fmt, pt):
        return _nvfp4_layout(pt, self.code_streams)

    def stream_counts(self, fmt, pt):
        return _nvfp4_counts(pt, super().stream_counts(fmt, pt))

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
        ts = pt.extra["tensor_scale"]
        if isinstance(ts, np.ndarray) and not ts.all():
            # Rows of a zero or underflowed block (an encode of several
            # row blocks) decode as that block alone does: unscaled.
            dead = np.repeat(ts == 0, n // ts.size)
            dq[dead] = vals[dead]
        return from_groups(dq, view)


class MaxPreserveCodec(Codec):
    """Inner-format streams with the group max re-stored as FP16 + index.

    The wrapper and inner group sizes agree (no executor compiles
    otherwise), and the inner element code at the max position is
    *dropped* from the element stream (the decoder overwrites it
    anyway), so the measured footprint matches the format's nominal EBW
    accounting exactly.
    """

    def code_layout(self, fmt, pt):
        inner = codec_for(fmt.inner).code_layout(fmt.inner, pt)
        return tuple(s for s in inner if s != "elements") \
            + ("max_idx", "max_val", "elements")

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
                    * mult).reshape(n, len(biases) * len(mult))
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
    MSFP: BlockCodec(),
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
    """Whether :func:`encode` can serialize this format: a codec decodes
    it and a code-space executor compiles it for both operand paths
    (the compilers decide from the configuration, not the shape)."""
    try:
        return all(encoder_for(fmt, op, (1,), 0) for op in OPS)
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


class Encoder:
    """A plan's encode entry (:attr:`~repro.plan.QuantPlan.encode`): the
    finished container for one ``(format, op, shape, axis)``.

    Bound when the plan compiles, it holds everything an encode derives
    from that signature, so a call does no lookup and re-derives
    nothing: the codec, the header fields, the plan's code-space runner,
    the stream layout the codec expects of a scaled and of a zero
    tensor, and the header JSON lengths its containers share
    (:attr:`~.container.PackedTensor.header_lengths`).

    ``encoder(x, verify=False, blocks=1, split=False)`` runs the plan's
    codes for ``x`` (of the plan's shape), checks their
    stream layout and packs each stream at its width. ``verify`` then
    unpacks every stored stream and compares it against the codes,
    catching bitstream truncation and round-trip bugs without
    materializing floats. ``blocks`` splits the leading axis (the plan
    groups on its last) into that many equal row blocks, each its own
    scaling scope for the tensor-scoped NVFP4 family: one container
    then carries a tensor scale per row, and ``split=True`` instead
    returns a tuple of one container per block, each exactly the
    container encoding that block alone gives (a KV append encodes its
    stacked K and V this way). A stream is packed once and cut on byte
    boundaries where the block boundary falls on one, else packed per
    block. The thread's :func:`collect_encode_stats` sink and trace see
    the call's quantize, pack and verify stages.
    """

    __slots__ = ("fmt", "op", "shape", "axis", "format_name",
                 "fingerprint", "group_size", "run_codes", "tensor_scoped",
                 "layouts", "header_lengths")

    def __init__(self, fmt, op: str, geom, run_codes: Callable) -> None:
        codec = codec_for(fmt)
        self.fmt, self.op, self.run_codes = fmt, op, run_codes
        self.shape, self.axis = geom.shape, geom.axis
        self.format_name, self.fingerprint = _catalog_name(fmt), repr(fmt)
        self.group_size = _group_size(fmt)
        self.tensor_scoped = tensor_scoped(fmt)
        self.header_lengths: dict = {}
        # The codec's stream layout for a zero tensor scale (the NVFP4
        # family stores no scale stream then) and a live one.
        self.layouts = tuple(
            codec.code_layout(fmt, self._container(
                self.shape, {"tensor_scale": _hex(scale)}, {}))
            for scale in (0.0, 1.0))

    def _container(self, shape: tuple, extra: dict,
                   streams: dict) -> PackedTensor:
        return PackedTensor(self.format_name, self.fingerprint, self.op,
                            shape, self.axis, self.group_size, streams,
                            extra, self.header_lengths)

    def __call__(self, x: np.ndarray, verify: bool = False, blocks: int = 1,
                 split: bool = False):
        t0 = time.perf_counter()
        cs = self.run_codes(x, blocks) \
            if blocks != 1 and self.tensor_scoped else self.run_codes(x)
        t1 = time.perf_counter()
        extra, ts = cs.extra, None
        if self.tensor_scoped:
            ts = extra["tensor_scale"]
            ts = ts[::len(ts) // blocks] if isinstance(ts, np.ndarray) \
                else [float.fromhex(ts)]
            layout = self.layouts[any(ts)]
        else:
            layout = self.layouts[1]
        names = tuple([s.name for s in cs.streams])
        if names != layout:
            raise CodecError(f"code-space streams {names} do not match "
                             f"the {type(codec_for(self.fmt)).__name__} "
                             f"layout {layout}")
        parts = blocks if split else 1
        packed = [{} for _ in range(parts)]
        checks = []
        for s in cs.streams:
            name, width = s.name, s.width
            values = s.values.reshape(-1)
            per = values.size // parts
            if parts == 1 or per * width % 8 == 0:
                data = pack_bits(values, width).tobytes()
                checks.append((name, data, width, values))
                step = per * width // 8
                for i, part in enumerate(packed):
                    part[name] = Stream(name, data[i * step:(i + 1) * step]
                                        if parts > 1 else data, width, per)
            else:
                for i, part in enumerate(packed):
                    piece = values[i * per:(i + 1) * per]
                    data = pack_bits(piece, width).tobytes()
                    checks.append((name, data, width, piece))
                    part[name] = Stream(name, data, width, per)
        if split:
            rows = (self.shape[0] // blocks, *self.shape[1:])
            out = []
            for i, part in enumerate(packed):
                part_extra = dict(extra)
                if ts is not None:
                    # A block's own encode writes its tensor scale as the
                    # header scalar, with no scale stream when it is 0.
                    part_extra["tensor_scale"] = _hex(ts[i])
                    if not ts[i]:
                        part.pop("scales", None)
                out.append(self._container(rows, part_extra, part))
            out = tuple(out)
        else:
            out = self._container(self.shape, dict(extra), packed[0])
        t2 = time.perf_counter()
        if verify:
            for name, data, width, values in checks:
                if not (unpack_bits(data, width, values.size)
                        == values).all():
                    raise CodecError(f"pack round-trip mismatch for "
                                     f"{self.fmt!r} ({self.op}), stream "
                                     f"{name!r}")
        t3 = time.perf_counter()
        if _obs.metrics_enabled():
            with _ENCODE_TOTALS_LOCK:
                _ENCODE_TOTALS["encodes"] += 1
                _ENCODE_TOTALS["fused_encodes"] += 1
        sink = getattr(_STAGE_SINK, "stats", None)
        if sink is not None:
            sink["encodes"] += 1
            sink["fused_encodes"] += 1
            sink["quantize_s"] += t1 - t0
            sink["pack_s"] += t2 - t1
            sink["verify_s"] += t3 - t2
        tr = _obs.current_trace()
        if tr is not None:
            tr.add_span("quantize", t0, t1)
            tr.add_span("pack", t1, t2)
            if verify:
                tr.add_span("verify", t2, t3)
        return out


def bind_encoder(fmt, op: str, geom, run_codes) -> Encoder | None:
    """The :class:`Encoder` a plan compiled for ``fmt`` holds, or None
    when no codec decodes the format (or the plan has no code-space
    runner)."""
    if run_codes is None or type(fmt) not in _CODECS:
        return None
    return Encoder(fmt, op, geom, run_codes)


def encoder_for(fmt, op: str, shape: tuple, axis: int) -> Encoder:
    """The encode entry of the plan for ``(fmt, op, shape, axis)``
    (``axis`` normalized). :class:`CodecError` when no codec decodes
    the format or no code-space executor compiles it."""
    plan = get_plan(fmt, op, shape, axis)
    if plan is None or plan.encode is None:
        codec_for(fmt)
        raise CodecError(f"no code-space executor compiles {fmt!r} for "
                         f"{op} input of shape {shape}")
    return plan.encode


def encode(fmt, x: np.ndarray, op: str = "activation", axis: int = -1,
           verify: bool = False, row_blocks: int = 1) -> PackedTensor:
    """Serialize ``x`` under ``fmt`` into a :class:`PackedTensor`.

    ``op`` selects the operand path (hybrid formats quantize weights and
    activations differently). The container is what the compiled plan's
    encode entry (:class:`Encoder`) for ``(fmt, op, shape, axis)``
    returns, under either kernel dispatch mode: packed straight from
    the integer codes of its code-space executor, it decodes to the
    format's own quantize output bit for bit (pinned against the
    reference oracle by ``tests/test_fused_pack.py``). ``verify=True``
    adds an O(bytes) cross-check: each packed stream is unpacked and
    compared against the executor's code arrays.

    ``row_blocks`` splits the leading axis of a tensor grouped on its
    last axis into that many equal blocks, each its own scaling scope:
    the tensor-scoped NVFP4 family then takes one tensor scale per
    block and the container carries one per row, so
    :func:`slice_rows` cuts out each block as exactly the container
    encoding it alone gives. Rows of every other format encode
    independently, so it changes nothing for them.
    """
    if op not in OPS:
        raise CodecError(f"op must be one of {OPS}, got {op!r}")
    x = np.asarray(x, dtype=np.float64)
    if not x.ndim:
        raise ShapeError("a 0-d tensor has no axis to group along")
    axis %= x.ndim
    if row_blocks != 1 and not (
            row_blocks > 1 and x.ndim >= 2 and axis == x.ndim - 1
            and x.shape[0] % row_blocks == 0):
        raise ShapeError(f"cannot split a shape {x.shape} tensor grouped "
                         f"on axis {axis} into {row_blocks} row blocks")
    return encoder_for(fmt, op, x.shape, axis)(x, verify, row_blocks)


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
    extra = pt.extra
    if "tensor_scale" in extra:
        extra = {k: v for k, v in extra.items() if k != "tensor_scale"}
    return (pt.format_name, pt.fingerprint, pt.op, pt.group_size,
            pt.shape[1:], [(s.name, s.width) for s in pt.streams.values()],
            extra)


def _row_scales(pt: PackedTensor, rows: int) -> np.ndarray | None:
    """A tensor scale per row, or None (no scale, or all of them 0)."""
    ts = pt.extra.get("tensor_scale")
    if ts is None:
        return None
    if isinstance(ts, np.ndarray):
        return ts if ts.any() else None
    ts = _unhex(pt, "tensor_scale")
    return np.full(rows, ts) if ts else None


def _with_rows(pt: PackedTensor, rows: int, streams: dict, extra: dict,
               header_lengths: dict | None = None) -> PackedTensor:
    """``pt``'s header with ``rows`` leading rows, ``streams``,
    ``extra`` and ``header_lengths``."""
    return PackedTensor(format_name=pt.format_name,
                        fingerprint=pt.fingerprint, op=pt.op,
                        shape=(rows, *pt.shape[1:]), axis=pt.axis,
                        group_size=pt.group_size, streams=streams,
                        extra=extra, header_lengths=header_lengths)


def join_rows(head: PackedTensor, tail: PackedTensor,
              drop: int = 0) -> PackedTensor | None:
    """One container holding ``head``'s rows then ``tail``'s, or None
    when their row layouts differ: anything in the header but the row
    count and a non-zero NVFP4-family tensor scale (so fp16's f16 and
    f64 storage never join, nor a zero tensor a scaled one). Tensor
    scales stay per row, as a float64 array in ``extra``. Each stream
    is byte-joined when ``head``'s fields end on a byte boundary, else
    unpacked, concatenated and repacked.

    ``drop`` leaves out ``head``'s first ``drop`` rows, ``0 <= drop <
    rows``: the result is ``join_rows(drop_rows(head, drop), tail)``,
    built in one pass (a KV arena's eviction plus append).
    """
    hr, tr = _rows(head), _rows(tail)
    if drop:
        if not 0 < drop < hr:
            raise CodecError(f"cannot drop {drop} leading rows of a shape "
                             f"{head.shape} container grouped on axis "
                             f"{head.axis}")
        scales = head.extra.get("tensor_scale")
        if isinstance(scales, np.ndarray) and not scales[drop:].any():
            # The kept rows' own container stores no scale stream.
            return join_rows(drop_rows(head, drop), tail)
    if not (hr and tr) or _row_layout(head) != _row_layout(tail):
        return None
    hs, ts = _row_scales(head, hr), _row_scales(tail, tr)
    if drop and hs is not None:
        hs = hs[drop:]
    if (hs is None) != (ts is None):
        return None
    streams = {}
    for h, t in zip(head.streams.values(), tail.streams.values()):
        if h.count * tr != t.count * hr:
            return None
        lo = h.count // hr * drop
        if lo * h.width % 8 == 0 and h.count * h.width % 8 == 0:
            data = (h.data[lo * h.width // 8:] if lo else h.data) + t.data
        else:
            data = pack_bits(np.concatenate(
                [unpack_bits(h.data, h.width, h.count)[lo:],
                 unpack_bits(t.data, t.width, t.count)]), h.width).tobytes()
        streams[h.name] = Stream(h.name, data, h.width,
                                 h.count - lo + t.count)
    extra = head.extra if hs is None else \
        {**head.extra, "tensor_scale": np.concatenate([hs, ts])}
    return _with_rows(head, hr - drop + tr, streams, extra)


def slice_rows(pt: PackedTensor, start: int, stop: int) -> PackedTensor:
    """Rows ``start:stop`` of ``pt`` as their own container,
    ``0 <= start < stop <= rows``.

    Each stream is byte-sliced when both cuts fall on a byte boundary
    (or the end of the stream), else unpacked, sliced and repacked; a
    per-row tensor scale array is sliced with the rows, and becomes the
    header scalar when the sliced rows share one scale (with no scale
    stream when that scale is 0). Rows of a group-wise format encode
    independently, so its slice is byte-identical to encoding those
    rows alone; so is a row block of an NVFP4-family encode with
    ``row_blocks`` (see :func:`encode`).
    """
    rows = _rows(pt)
    if not 0 <= start < stop <= rows:
        raise CodecError(f"cannot take rows {start}:{stop} of a shape "
                         f"{pt.shape} container grouped on axis {pt.axis}")
    extra, skip = pt.extra, None
    ts = extra.get("tensor_scale")
    if isinstance(ts, np.ndarray):
        ts = ts[start:stop]
        if (ts == ts[0]).all():
            # Rows of one tensor scale carry it in the header, as their
            # own encode does; a zero one has no scale stream.
            extra = {**extra, "tensor_scale": _hex(ts[0])}
            skip = None if ts[0] else "scales"
        else:
            extra = {**extra, "tensor_scale": ts.copy()}
    streams = {}
    for s in pt.streams.values():
        if s.name == skip:
            continue
        per = s.count // rows
        lo, hi = per * start, per * stop
        if lo * s.width % 8 == 0 and \
                (hi == s.count or hi * s.width % 8 == 0):
            data = s.data[lo * s.width // 8:(hi * s.width + 7) // 8]
        else:
            data = pack_bits(unpack_bits(s.data, s.width, s.count)[lo:hi],
                             s.width).tobytes()
        streams[s.name] = Stream(s.name, data, s.width, hi - lo)
    # A cut holds no more rows than its encode, so it shares the
    # encode's header lengths; a join_rows run may hold more, and
    # does not.
    return _with_rows(pt, stop - start, streams, extra, pt.header_lengths)


def drop_rows(pt: PackedTensor, n: int) -> PackedTensor:
    """``pt`` without its first ``n`` rows, ``0 < n < rows``: the
    :func:`slice_rows` suffix an eviction keeps."""
    rows = _rows(pt)
    if not 0 < n < rows:
        raise CodecError(f"cannot drop {n} leading rows of a shape "
                         f"{pt.shape} container grouped on axis {pt.axis}")
    return slice_rows(pt, n, rows)
