"""Packed-tensor codec conformance: bit-exact round trips + footprint.

Layers:

* **Round-trip property** — for every catalog format and both operand
  paths, ``decode(encode(x))`` equals the format's own kernel-dispatched
  quantize output *bit for bit* (``tobytes`` equality, so -0.0 counts),
  including zero tensors, negative zeros, padding of partial groups and
  non-default axes, under fast / reference dispatch.
* **Footprint** — on group-aligned tensors the packed payload costs the
  format's nominal EBW per element (within per-stream byte rounding),
  with the two documented exceptions pinned exactly: Elem-EE stores a
  3-bit refined code per subgroup, M2-NVFP4 weights a 2-bit bias code
  per group.
* **Hostile headers** — a container header that ``to_bytes`` could not
  have written (missing key, wrong type, unknown op, out-of-range axis,
  malformed stream record, ...) raises ``CodecError`` from
  ``from_bytes`` / ``decode``, never an untyped exception; a seeded
  header-mutation fuzz over every catalog format pins it, and a header
  shape far larger than its streams is refused before any allocation.
* **Row operations** — containers joined with ``join_rows`` (prefill
  plus 1-row blocks, padded rows, distinct NVFP4 tensor scales, zero
  tensors, mixed fp16 storage) decode in one codec call per run to
  exactly their per-container ``decode`` bytes, ``drop_rows`` leaves
  exactly the remaining rows' bytes, and a container that disagrees
  with a run never joins it.
* **Row blocks** — ``encode(..., row_blocks=n)`` gives each equal row
  block its own scaling scope: every block ``slice_rows`` cuts out is
  its solo encode byte for byte (header included) for ordinary, zero,
  -0.0 and underflowed NVFP4-family blocks, and the whole container
  decodes to the solo decodes stacked.
* **Golden packed bytes** — the serialized m2xfp / m2-nvfp4 containers
  are pinned in ``tests/golden/packed_vectors.json`` (regen via
  ``scripts/regen_packed_vectors.py --regen``); any header, stream-order
  or bit-packing drift fails here first.
"""

from __future__ import annotations

import copy
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from repro.algos import (BlockDialect, MicroScopiQWeights, MXAnt,
                         MXIntActivations, MXMAnt, MXOliVe)
from repro.codec import PackedTensor, codec_for, decode, drop_rows, encode, \
    join_rows, slice_rows, supports
from repro.codec.container import MAGIC
from repro.core import ElemEM
from repro.errors import CodecError, ReproError, ShapeError
from repro.kernels import fast_kernels, reference_kernels
from repro.plan import tensor_scoped
from repro.runner.formats import FORMAT_REGISTRY, make_format

GOLDEN_PATH = Path(__file__).parent / "golden" / "packed_vectors.json"

ALL_FORMATS = sorted(FORMAT_REGISTRY)

#: Formats re-checked under the non-default dispatch modes (the adaptive
#: searches and metadata paths where codes could plausibly drift).
DISPATCH_SUBSET = ("mxfp4", "nvfp4", "smx4", "msfp12", "elem-em", "elem-ee",
                   "sg-em", "sg-ee", "m2xfp", "m2-nvfp4", "mxfp4-maxkeep")


DISPATCH = {"fast": fast_kernels, "reference": reference_kernels}


def _reference_output(fmt, x, op, axis=-1):
    if op == "weight":
        return np.asarray(fmt.quantize_weight(x, axis=axis), dtype=np.float64)
    return np.asarray(fmt.quantize_activation(x, axis=axis), dtype=np.float64)


def _assert_roundtrip(fmt, x, op, axis=-1):
    expect = _reference_output(fmt, x, op, axis)
    pt = encode(fmt, x, op=op, axis=axis)
    # Through the full byte container, not just the in-memory object.
    out = decode(PackedTensor.from_bytes(pt.to_bytes()))
    assert out.shape == expect.shape
    assert out.tobytes() == expect.tobytes(), \
        f"{fmt!r} {op} round-trip not bit-exact"
    return pt


# ----------------------------------------------------------------------
# Round-trip property over the whole catalog
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ALL_FORMATS)
@pytest.mark.parametrize("op", ["weight", "activation"])
def test_roundtrip_every_format(name, op, heavy_tensor):
    _assert_roundtrip(make_format(name), heavy_tensor, op)


@pytest.mark.parametrize("name", ALL_FORMATS)
def test_roundtrip_adversarial_inputs(name, rng):
    fmt = make_format(name)
    cases = {
        "zeros": np.zeros((3, 64)),
        "negzero": -(rng.random((2, 64)) < 0.5).astype(np.float64) * 0.0,
        "padding": rng.standard_normal((5, 50)),       # partial trailing group
        "1d": rng.standard_normal(70),
        "outliers": rng.standard_normal((4, 64)) * np.exp(
            3 * rng.standard_normal((4, 64))),
    }
    for x in cases.values():
        _assert_roundtrip(fmt, x, "activation")


@pytest.mark.parametrize("name", ["m2xfp", "mxfp4", "nvfp4", "smx4"])
def test_roundtrip_axis0(name, rng):
    x = rng.standard_normal((64, 7))
    _assert_roundtrip(make_format(name), x, "weight", axis=0)


@pytest.mark.parametrize("dispatch", sorted(DISPATCH))
@pytest.mark.parametrize("name", DISPATCH_SUBSET)
def test_roundtrip_dispatch_modes(name, dispatch, heavy_tensor):
    with DISPATCH[dispatch]():
        fmt = make_format(name)
        for op in ("weight", "activation"):
            _assert_roundtrip(fmt, heavy_tensor, op)


def test_fp16_representable_input_uses_16_bits(rng):
    x = rng.standard_normal((8, 32)).astype(np.float16).astype(np.float64)
    pt = _assert_roundtrip(make_format("fp16"), x, "activation")
    assert pt.extra["storage"] == "f16"
    assert pt.bits_per_element == 16.0


# ----------------------------------------------------------------------
# Footprint: measured payload vs nominal EBW
# ----------------------------------------------------------------------
#: The streams Eq. 2 leaves out of a format's nominal EBW (see the
#: repro/codec/codecs.py module docstring): Elem-EE's 3-bit refined code
#: per subgroup, M2-NVFP4's 2-bit bias code per weight group.
UNCOUNTED_STREAMS = {
    ("elem-ee", "weight"): ("refined",),
    ("elem-ee", "activation"): ("refined",),
    ("m2-nvfp4", "weight"): ("bias",),
}


@pytest.mark.parametrize("name", [n for n in ALL_FORMATS if n != "fp16"])
@pytest.mark.parametrize("op", ["weight", "activation"])
def test_payload_matches_nominal_ebw(name, op, rng):
    fmt = make_format(name)
    # 96 = lcm of the group sizes 32/16, and 16 rows make every stream's
    # field count a multiple of 8, so no stream rounds up to a byte.
    x = rng.standard_normal((16, 96))
    pt = _assert_roundtrip(fmt, x, op)
    assert all(s.width * s.count % 8 == 0 for s in pt.streams.values())
    nominal = fmt.weight_ebw if op == "weight" else fmt.activation_ebw
    uncounted = sum(pt.stream(s).width * pt.stream(s).count
                    for s in UNCOUNTED_STREAMS.get((name, op), ()))
    assert pt.payload_bytes * 8 - nominal * pt.n_elements == uncounted, \
        (pt.bits_per_element, nominal, uncounted)
    # "Within one header" end to end: total = payload + one small header.
    assert pt.total_bytes == pt.payload_bytes + pt.header_bytes
    assert pt.header_bytes < 600


def test_fp16_nominal_on_representable_data(rng):
    x = rng.standard_normal((12, 96)).astype(np.float16).astype(np.float64)
    pt = encode(make_format("fp16"), x)
    assert pt.bits_per_element == 16.0


# ----------------------------------------------------------------------
# Container plumbing and error paths
# ----------------------------------------------------------------------
def test_container_header_is_self_describing(heavy_tensor):
    fmt = make_format("m2xfp")
    pt = encode(fmt, heavy_tensor, op="weight")
    blob = pt.to_bytes()
    back = PackedTensor.from_bytes(blob)
    assert back.format_name == "m2xfp"
    assert back.fingerprint == repr(fmt)
    assert back.op == "weight"
    assert back.shape == heavy_tensor.shape
    assert back.group_size == 32
    assert back.to_bytes() == blob       # serialization is a fixed point


def test_bad_magic_and_truncation_raise():
    with pytest.raises(CodecError):
        PackedTensor.from_bytes(b"NOPE" + b"\0" * 16)
    fmt = make_format("mxfp4")
    blob = encode(fmt, np.ones((2, 32))).to_bytes()
    with pytest.raises(CodecError):
        PackedTensor.from_bytes(blob[:len(blob) - 3])


def _split_header(blob: bytes) -> tuple[dict, bytes]:
    """A container's parsed JSON header and its stream payload."""
    (hlen,) = struct.unpack_from("<I", blob, len(MAGIC))
    start = len(MAGIC) + 4
    return json.loads(blob[start:start + hlen]), blob[start + hlen:]


def _join_header(header, payload: bytes) -> bytes:
    head = json.dumps(header, sort_keys=True,
                      separators=(",", ":")).encode("ascii")
    return MAGIC + struct.pack("<I", len(head)) + head + payload


def _without(key):
    return lambda h: {k: v for k, v in h.items() if k != key}


def _with(key, value):
    return lambda h: {**h, key: value}


def _with_first_stream(record):
    """Replace the first stream record (a callable maps the old one)."""
    def edit(h):
        first = record(list(h["streams"][0])) if callable(record) else record
        return {**h, "streams": [first, *h["streams"][1:]]}
    return edit


def _stream_field(i, value):
    return _with_first_stream(lambda rec: rec[:i] + [value] + rec[i + 1:])


#: One header defect per rejection rule; each maps a valid header to a
#: header ``to_bytes`` could never have written.
HEADER_DEFECTS = {
    **{f"missing_{key}": _without(key)
       for key in ("version", "format", "fingerprint", "op", "shape", "axis",
                   "group_size", "streams", "extra")},
    "not_an_object": lambda h: [h],
    "format_not_str": _with("format", 7),
    "fingerprint_not_str": _with("fingerprint", None),
    "unknown_op": _with("op", "bogus"),
    "op_not_str": _with("op", ["weight"]),
    "shape_not_list": _with("shape", 128),
    "shape_negative": _with("shape", [2, -64]),
    "shape_float": _with("shape", [2, 64.0]),
    "shape_bool": _with("shape", [True, 64]),
    "axis_out_of_range": _with("axis", 2),
    "axis_negative": _with("axis", -1),
    "axis_not_int": _with("axis", "1"),
    "group_size_zero": _with("group_size", 0),
    "group_size_not_int": _with("group_size", 32.0),
    "streams_not_list": _with("streams", {"elements": 1}),
    "stream_record_short": _with_first_stream(["scales"]),
    "stream_record_not_list": _with_first_stream(5),
    "stream_name_not_str": _stream_field(0, 3),
    "stream_width_zero": _stream_field(1, 0),
    "stream_width_over_64": _stream_field(1, 65),
    "stream_count_negative": _stream_field(2, -1),
    "stream_nbytes_mismatch": _stream_field(3, 999),
    "stream_duplicate": lambda h: {**h, "streams": h["streams"] * 2},
    "extra_not_dict": _with("extra", []),
}


#: Header edits ``from_bytes`` accepts but the format's decoder must
#: still reject: ``(format, tensor shape, edit)``.
DECODE_DEFECTS = {
    "fp16_shape_rows_doubled": ("fp16", (2, 40), _with("shape", [4, 40])),
    **{f"{name}_group_size_64": (name, (2, 40), _with("group_size", 64))
       for name in ("mxfp4", "m2xfp", "elem-em", "fp4")},
}


@pytest.mark.parametrize("defect",
                         sorted(HEADER_DEFECTS) + sorted(DECODE_DEFECTS))
def test_malformed_header_raises_codec_error(defect, rng):
    name, shape, edit = DECODE_DEFECTS.get(
        defect, ("mxfp4", (2, 64), HEADER_DEFECTS.get(defect)))
    fmt = make_format(name)
    pt = encode(fmt, rng.standard_normal(shape))
    header, payload = _split_header(pt.to_bytes())
    blob = _join_header(edit(header), payload)
    if defect in HEADER_DEFECTS:
        with pytest.raises(CodecError):
            PackedTensor.from_bytes(blob)
    for kwargs in ({}, {"fmt": fmt}):
        with pytest.raises(CodecError):
            decode(blob, **kwargs)


#: BlockFormat subclasses outside the catalog. Each overrides the
#: quantizer, so the inherited block streams would pack bytes that
#: decode to something else: no codec may claim them.
SUBCLASS_FORMATS = {"mx-ant": MXAnt, "mx-m-ant": MXMAnt,
                    "mx-olive": MXOliVe, "blockdialect": BlockDialect,
                    "microscopiq-w": MicroScopiQWeights,
                    "mxint4": MXIntActivations}


@pytest.mark.parametrize("name", sorted(SUBCLASS_FORMATS))
def test_subclass_formats_have_no_codec(name, heavy_tensor):
    fmt = SUBCLASS_FORMATS[name]()
    assert not supports(fmt)
    for op in ("weight", "activation"):
        with pytest.raises(CodecError, match="no codec"):
            encode(fmt, heavy_tensor, op=op)


def test_uncompiled_configuration_is_unsupported(heavy_tensor):
    """A configuration no code-space executor compiles (Elem-EM with two
    refined elements per subgroup) is refused, though its class has a
    codec."""
    fmt = ElemEM(top_k=2)
    assert not supports(fmt)
    for op in ("weight", "activation"):
        with pytest.raises(CodecError, match="no code-space executor"):
            encode(fmt, heavy_tensor, op=op)


@pytest.mark.parametrize("name", ALL_FORMATS)
def test_zero_d_input_is_a_typed_error(name):
    """A 0-d input round-trips through quantize or raises a
    ``ReproError`` (it has no axis to group along), and so does
    ``encode``."""
    fmt = make_format(name)
    x = np.float64(1.5)
    for op in ("weight", "activation"):
        for fn in (fmt.quantize_weight if op == "weight"
                   else fmt.quantize_activation,
                   lambda x: decode(encode(fmt, x, op=op))):
            try:
                got = fn(x)
            except ReproError:
                continue
            assert np.asarray(got).tobytes() == x.tobytes(), (name, op)


def test_n_elements_is_exact():
    pt = PackedTensor(format_name="", fingerprint="", op="weight",
                      shape=(2 ** 40, 2 ** 40), axis=1, group_size=32)
    assert pt.n_elements == 2 ** 80


#: Replacement values for the header fuzz: wrong types, edge ints,
#: oversized shapes, and values valid for some other field.
_FUZZ_VALUES = (None, True, False, -1, 0, 1, 3, 2 ** 40, 2 ** 70, -2 ** 70,
                0.5, "", "x", "weight", "0x1p-3", [], [0], [1, -1],
                [2 ** 62, 4], [[]], {}, {"a": 1}, ["scales", 8, 1, 1])


def _header_paths(obj, prefix=()):
    """Every (nested) key path in a JSON header."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, val in items:
        yield prefix + (key,)
        yield from _header_paths(val, prefix + (key,))


def _mutate_header(header: dict, rng) -> dict:
    """One random edit: drop a key, nudge an int, or swap in a value."""
    h = copy.deepcopy(header)
    paths = list(_header_paths(h))
    path = paths[rng.integers(len(paths))]
    parent = h
    for key in path[:-1]:
        parent = parent[key]
    key, r = path[-1], rng.random()
    if r < 0.2 and isinstance(parent, dict):
        del parent[key]
    elif r < 0.4 and type(parent[key]) is int:
        parent[key] += int(rng.integers(-3, 4))
    else:
        value = _FUZZ_VALUES[rng.integers(len(_FUZZ_VALUES))]
        parent[key] = copy.deepcopy(value)
    return h


@pytest.mark.parametrize("name", ALL_FORMATS)
def test_header_fuzz_raises_only_codec_error(name):
    """Seeded header mutations: parse + decode either succeed or raise
    ``CodecError`` — nothing untyped escapes the decode path."""
    rng = np.random.default_rng(2024)
    fmt = make_format(name)
    for op in ("weight", "activation"):
        blob = encode(fmt, rng.standard_normal((3, 64)), op=op).to_bytes()
        header, payload = _split_header(blob)
        for _ in range(750):
            bad = _join_header(_mutate_header(header, rng), payload)
            try:
                decode(PackedTensor.from_bytes(bad))
            except CodecError:
                pass


@pytest.mark.parametrize("name", ALL_FORMATS)
def test_oversized_shape_raises_codec_error(name, rng):
    """A valid header whose shape is far larger than its streams is
    refused by the stream-count check, before any array is sized from
    the shape (it used to escape as ``MemoryError``)."""
    fmt = make_format(name)
    for op in ("weight", "activation"):
        blob = encode(fmt, rng.standard_normal((2, 40)), op=op).to_bytes()
        header, payload = _split_header(blob)
        for shape in ([2 ** 40, 40], [40, 2 ** 40]):
            with pytest.raises(CodecError):
                decode(_join_header({**header, "shape": shape}, payload))


def test_fingerprint_mismatch_raises(rng):
    x = rng.standard_normal((2, 32))
    pt = encode(make_format("mxfp4"), x)
    with pytest.raises(CodecError):
        decode(pt, fmt=make_format("mxfp8-e4m3"))


def test_bad_op_raises(rng):
    with pytest.raises(CodecError):
        encode(make_format("mxfp4"), rng.standard_normal((2, 32)), op="bogus")


def test_verify_flag_roundtrips(rng):
    encode(make_format("sg-ee"), rng.standard_normal((4, 64)),
           op="weight", verify=True)


@pytest.mark.parametrize("name", ALL_FORMATS)
def test_header_bytes_is_the_serialized_header(name, rng):
    """``header_bytes`` (the JSON length without ``extra``, held on the
    encode plan's packing, plus ``extra``'s) is what ``to_bytes``
    writes, for fresh containers, row slices and parsed containers, NVFP4-family tensor scales of any ``float.hex()``
    length included. Encodes of one plan and their cuts share the
    plan's lengths; a join, which may outgrow the plan, does not."""
    fmt = make_format(name)
    for x in (rng.standard_normal((3, 40)) * 10.0 ** rng.integers(-9, 9),
              np.zeros((2, 16)), np.full((2, 16), 0.5)):
        pt = encode(fmt, x, op="weight")
        lengths = encode(fmt, x, op="weight").header_lengths
        assert lengths is pt.header_lengths is not None
        cuts = (slice_rows(pt, 0, 1), slice_rows(pt, 1, 2))
        assert all(c.header_lengths is lengths for c in cuts)
        joined = join_rows(*cuts)
        assert joined is None or joined.header_lengths is None
        parsed = PackedTensor.from_bytes(pt.to_bytes())
        for cut in (pt, *cuts, parsed):
            assert cut.header_bytes == len(cut.to_bytes()) \
                - cut.payload_bytes, f"{name} {cut.shape}"


# ----------------------------------------------------------------------
# Row blocks: one encode, each block its own scaling scope
# ----------------------------------------------------------------------
def _edge_blocks(rng, rows: int = 2, width: int = 48) -> list:
    """An ordinary block, a -0.0 zero block, a block whose NVFP4 tensor
    scale underflows (|x| about 1e-321) and a large-magnitude block."""
    zero = np.zeros((rows, width))
    zero[:, ::3] = -0.0
    tiny = np.zeros((rows, width))
    tiny[0, 0], tiny[-1, 5] = 1.5e-321, -5e-322
    return [rng.standard_normal((rows, width)), zero, tiny,
            rng.standard_normal((rows, width)) * 1e3]


@pytest.mark.parametrize("dispatch", sorted(DISPATCH))
@pytest.mark.parametrize("op", ["weight", "activation"])
@pytest.mark.parametrize("name", ["nvfp4", "m2-nvfp4", "mxfp4", "m2xfp"])
def test_row_blocks_slice_to_solo_encodes(name, op, dispatch, rng):
    """Each row block of an ``encode(row_blocks=n)`` container, cut out
    with ``slice_rows``, is its solo encode byte for byte, header
    included, and the container decodes to the solo decodes stacked;
    also when every block is zero or underflowed (no scale stream at
    all). For group-wise formats ``row_blocks`` changes nothing."""
    fmt = make_format(name)
    blocks = _edge_blocks(rng)
    for group in (blocks, blocks[1:3]):
        x = np.concatenate(group)
        with DISPATCH[dispatch]():
            pt = encode(fmt, x, op=op, verify=True, row_blocks=len(group))
            solo = [encode(fmt, b, op=op) for b in group]
            if name in ("mxfp4", "m2xfp"):
                assert pt.to_bytes() == encode(fmt, x, op=op).to_bytes()
        for i, want in enumerate(solo):
            got = slice_rows(pt, 2 * i, 2 * i + 2)
            assert got.to_bytes() == want.to_bytes(), f"{name} block {i}"
        assert decode(pt, fmt=fmt).tobytes() == np.concatenate(
            [decode(p, fmt=fmt) for p in solo]).tobytes()


@pytest.mark.parametrize("shape, axis, blocks", [
    ((5, 16), -1, 2), ((4, 16), 0, 2), ((32,), -1, 2), ((4, 16), -1, 0)])
def test_row_blocks_need_equal_leading_blocks(shape, axis, blocks):
    with pytest.raises(ShapeError):
        encode(make_format("nvfp4"), np.ones(shape), axis=axis,
               row_blocks=blocks)


def test_per_row_scale_container_lives_in_memory_only(rng):
    """A container with one NVFP4 tensor scale per row (a row-block
    encode, a ``join_rows`` run) has no header form: serializing it or
    sizing its header raises ``CodecError``, not a bare ``TypeError``."""
    fmt = make_format("nvfp4")
    run = join_rows(encode(fmt, rng.standard_normal((1, 16))),
                    encode(fmt, rng.standard_normal((1, 16)) * 1e3))
    for pt in (encode(fmt, np.ones((4, 16)), row_blocks=2), run):
        assert isinstance(pt.extra["tensor_scale"], np.ndarray)
        with pytest.raises(CodecError, match="in memory only"):
            pt.to_bytes()
        with pytest.raises(CodecError, match="in memory only"):
            pt.header_bytes


# ----------------------------------------------------------------------
# Row operations: decoding joined rows equals per-container decode
# ----------------------------------------------------------------------
def _rows_pts(fmt, blocks, op="weight") -> list[PackedTensor]:
    return [encode(fmt, b, op=op) for b in blocks]


def _join_runs(pts) -> list[tuple[PackedTensor, list[PackedTensor]]]:
    """Greedy ``join_rows`` runs, as a KV arena builds them:
    ``(run, its containers)`` pairs."""
    runs: list = []
    for pt in pts:
        run = join_rows(runs[-1][0], pt) if runs else None
        if run is None:
            runs.append((pt, [pt]))
        else:
            runs[-1] = (run, runs[-1][1] + [pt])
    return runs


def _decode_parts(parts, fmt) -> np.ndarray:
    outs = [decode(pt, fmt=fmt) for pt in parts]
    return outs[0] if len(outs) == 1 else np.concatenate(outs)


def _assert_rows_match(fmt, pts) -> list[PackedTensor]:
    """Each joined run decodes to its containers' own decodes, byte for
    byte, and so does every row suffix ``drop_rows`` leaves; returns
    the runs."""
    runs = _join_runs(pts)
    for run, parts in runs:
        got, want = decode(run, fmt=fmt), _decode_parts(parts, fmt)
        assert got.shape == want.shape, f"{fmt!r}: shape"
        assert got.tobytes() == want.tobytes(), \
            f"{fmt!r}: joined rows != per-container decode"
        rows = run.shape[0] if run.axis == len(run.shape) - 1 > 0 else 0
        for n in {1, 2, 3, rows // 2, rows - 1} & set(range(1, rows)):
            assert decode(drop_rows(run, n), fmt=fmt).tobytes() \
                == want[n:].tobytes(), f"{fmt!r}: drop_rows({n})"
    return [run for run, _ in runs]


def _count_decodes(monkeypatch, fmt) -> list:
    """Spy on the format's codec: the row count of every decode call."""
    cls = type(codec_for(fmt))
    real, rows = cls.decode, []

    def spy(self, fmt_, pt):
        rows.append(pt.shape[0])
        return real(self, fmt_, pt)

    monkeypatch.setattr(cls, "decode", spy)
    return rows


@pytest.mark.parametrize("dispatch", sorted(DISPATCH))
@pytest.mark.parametrize("op", ["weight", "activation"])
@pytest.mark.parametrize("name", ALL_FORMATS)
def test_decode_rows_matches_decode(name, op, dispatch, rng, monkeypatch):
    """A 16-row prefill block then 1-row steps, at two widths: width 20
    pads every row's last group and leaves unaligned streams (Elem-EE's
    3-bit refined codes, MaxPreserving's 31-code element runs) for the
    repack paths of both row operations; each width is one run, so one
    codec decode each."""
    fmt = make_format(name)
    blocks = [rng.standard_normal((t, w)) * np.exp(rng.standard_normal())
              for w in (64, 20) for t in (16, 1, 1, 1, 3, 1)]
    with DISPATCH[dispatch]():
        runs = _assert_rows_match(fmt, _rows_pts(fmt, blocks, op))
        rows = _count_decodes(monkeypatch, fmt)
        for run in runs:
            decode(run, fmt=fmt)
    assert rows == [23, 23], f"{name}: expected one run per width"


def _same_container(a: PackedTensor, b: PackedTensor) -> bool:
    """Equal headers, stream records and bytes, and ``extra`` (per-row
    tensor scales compared as bytes)."""
    def extra(pt):
        return {k: v.tobytes() if isinstance(v, np.ndarray) else v
                for k, v in pt.extra.items()}
    return (a.format_name, a.fingerprint, a.op, a.shape, a.axis,
            a.group_size, a.streams, extra(a)) == \
        (b.format_name, b.fingerprint, b.op, b.shape, b.axis,
         b.group_size, b.streams, extra(b))


@pytest.mark.parametrize("name", ALL_FORMATS)
def test_join_rows_drop_is_drop_then_join(name, rng):
    """``join_rows(head, tail, drop)`` is ``join_rows(drop_rows(head,
    drop), tail)``: the same container, or None for both, on runs of
    unaligned streams (width 20), per-row tensor scales, a zero tensor
    and a row-block run whose kept rows have a zero tensor scale."""
    fmt = make_format(name)
    blocks = [rng.standard_normal((t, w)) * np.exp(rng.standard_normal())
              for w in (64, 20) for t in (16, 1, 3, 1)]
    runs = [run for run, _ in _join_runs(_rows_pts(fmt, blocks))]
    zero = np.zeros((2, 64))
    heads = runs + [encode(fmt, zero, op="weight")]
    if tensor_scoped(fmt):
        heads.append(encode(fmt, np.concatenate(
            [rng.standard_normal((2, 64)), zero]), op="weight",
            row_blocks=2))
    tails = [encode(fmt, b, op="weight")
             for b in (rng.standard_normal((1, 64)), zero[:1],
                       rng.standard_normal((2, 20)))]
    for head in heads:
        for tail in tails:
            for drop in range(1, head.shape[0]):
                got = join_rows(head, tail, drop)
                want = join_rows(drop_rows(head, drop), tail)
                assert (got is None) == (want is None), f"{name} {drop}"
                assert got is None or _same_container(got, want), \
                    f"{name}: drop {drop} of {head.shape}"
    with pytest.raises(CodecError):
        join_rows(heads[0], tails[0], heads[0].shape[0])


@pytest.mark.parametrize("name", ["nvfp4", "m2-nvfp4"])
@pytest.mark.parametrize("op", ["weight", "activation"])
def test_decode_rows_keeps_each_tensor_scale(name, op, rng):
    """Tensor-scoped formats: blocks of very different magnitudes carry
    distinct tensor scales, kept one per row; a zero-tensor block
    holding -0.0 starts its own run between them."""
    fmt = make_format(name)
    zero = np.zeros((1, 64))
    zero[0, ::3] = -0.0
    blocks = [rng.standard_normal((1, 64)) * 10.0 ** e for e in (-3, 0, 2)]
    blocks += [zero, rng.standard_normal((4, 64)) * 1e-2,
               rng.standard_normal((1, 64))]
    pts = _rows_pts(fmt, blocks, op)
    scales = [pt.extra["tensor_scale"] for pt in pts]
    assert len(set(scales)) == len(scales)
    runs = _assert_rows_match(fmt, pts)
    assert [run.shape[0] for run in runs] == [3, 1, 5]
    assert runs[0].extra["tensor_scale"].tolist() \
        == [float.fromhex(ts) for ts in scales[:3]]
    assert np.signbit(decode(runs[1], fmt=fmt)[0, ::3]).all()


def test_decode_rows_fp16_mixed_storage(rng):
    """fp16 blocks stored as f16 and as f64 never share a run."""
    fmt = make_format("fp16")
    exact = [np.full((1, 8), 0.5), np.arange(16.0).reshape(2, 8)]
    raw = [rng.standard_normal((1, 8)), rng.standard_normal((3, 8))]
    pts = _rows_pts(fmt, [exact[0], raw[0], raw[1], exact[1], exact[0]])
    storage = [pt.extra["storage"] for pt in pts]
    assert storage == ["f16", "f64", "f64", "f16", "f16"]
    runs = _assert_rows_match(fmt, pts)
    assert [run.shape[0] for run in runs] == [1, 4, 3]


def test_decode_rows_empty_and_unstackable(rng):
    """Only non-empty tensors of two or more dims grouped on the last
    axis have rows; a 3-D pair with one trailing shape joins."""
    fmt = make_format("mxfp4")
    pts = [encode(fmt, rng.standard_normal(64)),
           encode(fmt, rng.standard_normal((2, 64)), axis=0),
           encode(fmt, np.zeros((0, 64))),
           encode(fmt, rng.standard_normal((2, 3, 64))),
           encode(fmt, rng.standard_normal((1, 3, 64)))]
    runs = _assert_rows_match(fmt, pts)
    assert [run.shape for run in runs] == [(64,), (2, 64), (0, 64),
                                           (3, 3, 64)]
    for pt, n in ((pts[0], 1), (pts[1], 1), (pts[2], 1), (pts[3], 0),
                  (pts[3], 2)):
        with pytest.raises(CodecError):
            drop_rows(pt, n)


def _edit_blob(blob: bytes, edit) -> bytes:
    header, payload = _split_header(blob)
    return _join_header(edit(header), payload)


def _set_stream(name, width=None, count=None):
    """Rewrite one stream record, keeping ``nbytes`` consistent."""
    def edit(h):
        recs = []
        for rec in h["streams"]:
            if rec[0] == name:
                w, c = width or rec[1], rec[2] if count is None else count
                rec = [name, w, c, (w * c + 7) // 8]
            recs.append(rec)
        return {**h, "streams": recs}
    return edit


#: One defect per refusal; each applies to one m2xfp weight block
#: (1 row x 64: scales 2 x 8 bits, meta 8 x 2 bits) beside a run.
ROWS_DEFECTS = {
    "fingerprint": _with("fingerprint", repr(make_format("sg-em"))),
    "group_size": _with("group_size", 16),
    "op": _with("op", "activation"),
    "width": _set_stream("scales", width=16, count=1),
    "count": _set_stream("meta", count=4),
    "header": lambda h: {**h, "axis": 5},
}


@pytest.mark.parametrize("defect", sorted(ROWS_DEFECTS))
def test_decode_rows_rejects_a_bad_blob(defect, rng):
    """A container that disagrees with a run joins it from neither
    side; one ``from_bytes`` cannot parse never gets that far."""
    fmt = make_format("m2xfp")
    pts = _rows_pts(fmt, [rng.standard_normal((1, 64)) for _ in range(3)])
    blob = _edit_blob(pts[2].to_bytes(), ROWS_DEFECTS[defect])
    if defect == "header":
        with pytest.raises(CodecError):
            PackedTensor.from_bytes(blob)
        return
    bad = PackedTensor.from_bytes(blob)
    run = join_rows(pts[0], pts[1])
    assert join_rows(run, bad) is None
    assert join_rows(bad, run) is None


@pytest.mark.parametrize("name", ("m2xfp", "nvfp4", "mxfp4-maxkeep",
                                  "elem-ee"))
def test_decode_rows_header_fuzz(name):
    """Seeded mutations of one header in a run: joining and decoding
    raise ``CodecError`` or give exactly the per-container decode."""
    rng = np.random.default_rng(2025)
    fmt = make_format(name)
    pts = _rows_pts(fmt, [rng.standard_normal((t, 64))
                          for t in (2, 1, 1, 1)])
    header, payload = _split_header(pts[1].to_bytes())
    for _ in range(300):
        run = list(pts)
        try:
            run[1] = PackedTensor.from_bytes(
                _join_header(_mutate_header(header, rng), payload))
            runs = _join_runs(run)
        except CodecError:
            continue
        for joined, parts in runs:
            try:
                got = decode(joined, fmt=fmt)
            except CodecError:
                continue
            assert got.tobytes() == _decode_parts(parts, fmt).tobytes()


# ----------------------------------------------------------------------
# Golden packed bytes (wire-format conformance)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def packed_golden() -> dict:
    assert GOLDEN_PATH.exists(), \
        "golden packed vectors missing; run scripts/regen_packed_vectors.py --regen"
    with open(GOLDEN_PATH) as f:
        return json.load(f)


@pytest.mark.parametrize("dispatch", sorted(DISPATCH))
def test_packed_bytes_pinned(packed_golden, dispatch):
    x = np.array([float.fromhex(v) for v in packed_golden["input_hex"]],
                 dtype=np.float64).reshape(packed_golden["shape"])
    with DISPATCH[dispatch]():
        for key, case in sorted(packed_golden["cases"].items()):
            fmt = make_format(case["format"])
            pt = encode(fmt, x, op=case["op"])
            got = pt.to_bytes().hex()
            assert got == case["packed_hex"], \
                f"{key}: container bytes drifted under {dispatch} dispatch"
            expect = np.array([float.fromhex(v) for v in case["decoded_hex"]])
            assert decode(pt).ravel().tobytes() == expect.tobytes(), \
                f"{key}: decoded values drifted"


# ----------------------------------------------------------------------
# Bitstream fast paths (aligned 2 / 4 / 8 / 16 + word-built odd widths)
# ----------------------------------------------------------------------
class TestBitstreamFastPaths:
    """The crumb/nibble/byte/uint16 paths and the word-accumulator paths
    for the odd sub-byte widths (3/5/6-bit element streams) must emit
    the generic path's bytes."""

    @pytest.mark.parametrize("width", [2, 3, 4, 5, 6, 8, 16])
    @pytest.mark.parametrize("count", [0, 1, 2, 3, 7, 8, 255, 4097])
    def test_pack_matches_generic(self, width, count):
        from repro.codec.bitstream import _pack_bits_generic, pack_bits

        values = np.random.default_rng(width * 1000 + count).integers(
            0, 1 << width, count)
        fast = pack_bits(values, width)
        if count:
            generic = _pack_bits_generic(
                np.asarray(values, dtype=np.int64).reshape(-1), width)
            assert fast.tobytes() == generic.tobytes()
        assert fast.dtype == np.uint8

    @pytest.mark.parametrize("width", [2, 3, 4, 5, 6, 8, 16])
    @pytest.mark.parametrize("count", [0, 1, 3, 8, 255, 4097])
    def test_unpack_inverts_pack(self, width, count):
        from repro.codec.bitstream import pack_bits, unpack_bits

        values = np.random.default_rng(width * 77 + count).integers(
            0, 1 << width, count)
        blob = pack_bits(values, width).tobytes()
        back = unpack_bits(blob, width, count)
        assert np.array_equal(back, values)
        assert back.dtype == np.int64

    @pytest.mark.parametrize("width", [2, 3, 4, 5, 6, 8, 16])
    def test_unpack_matches_generic(self, width):
        from repro.codec.bitstream import (_unpack_bits_generic, pack_bits,
                                           unpack_bits)

        count = 1001
        values = np.random.default_rng(width).integers(0, 1 << width, count)
        raw = np.frombuffer(pack_bits(values, width).tobytes(), dtype=np.uint8)
        fast = unpack_bits(raw, width, count)
        generic = _unpack_bits_generic(raw, width, count)
        assert np.array_equal(fast, generic)

    @pytest.mark.parametrize("width", [2, 4])
    @pytest.mark.parametrize("bad", ["negative", "too-wide"])
    def test_out_of_range_fields_raise(self, width, bad):
        """The metadata crumbs and FP4 nibbles of the Sec. 5.2 layout
        are range-checked where they are packed."""
        from repro.codec.bitstream import pack_bits

        value = -1 if bad == "negative" else 1 << width
        with pytest.raises(CodecError, match=f"{width} unsigned bits"):
            pack_bits(np.array([0, 1, value, 0]), width)

    def test_width4_odd_count_zero_pads_high_nibble(self):
        from repro.codec.bitstream import pack_bits

        blob = pack_bits(np.array([0xF, 0xF, 0xF]), 4)
        assert blob.tolist() == [0xFF, 0x0F]

    @pytest.mark.parametrize("count", [0, 1, 3, 255])
    def test_width64_takes_uint64_words(self, count):
        """Width 64 packs ``uint64`` words as they are, sign bit set
        included (fp16's raw float64 fallback), and unpacks them back
        as ``uint64``; int64 fields give the same bytes."""
        from repro.codec.bitstream import (_pack_bits_generic, pack_bits,
                                           unpack_bits)

        words = np.random.default_rng(count).standard_normal(count) \
            .view(np.uint64)
        blob = pack_bits(words, 64)
        assert blob.tobytes() == words.astype("<u8").tobytes()
        back = unpack_bits(blob.tobytes(), 64, count)
        assert back.dtype == np.uint64 and np.array_equal(back, words)
        low = words >> np.uint64(1)
        assert pack_bits(low.astype(np.int64), 64).tobytes() \
            == pack_bits(low, 64).tobytes()
        if count:
            assert pack_bits(low, 64).tobytes() == _pack_bits_generic(
                low.astype(np.int64), 64).tobytes()
        with pytest.raises(CodecError, match="64 unsigned bits"):
            pack_bits(np.array([-1]), 64)
