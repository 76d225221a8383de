"""Quantize→pack conformance: the code-space contract end to end.

Every encode packs a compiled plan's codes, under either dispatch mode;
the reference quantizers are the oracle. Three layers, mirroring
DESIGN.md §11:

* **The oracle** — for every catalog format, both operand paths and
  the adversarial tensor family (zeros, subnormal magnitudes,
  near-overflow-but-finite, ragged trailing groups, single-element
  groups, an NVFP4 tensor scale that underflows), ``decode(encode(x,
  verify=True))`` equals ``quantize_*`` under reference dispatch byte
  for byte, the container bytes (or the error raised) do not depend
  on the dispatch mode, and ``collect_encode_stats`` counts every
  encode as packed from codes.
* **Code-space contract** — for every catalog format the plan's
  ``run_codes`` emits streams in the codec's declared ``code_layout``
  order, every stream's values fit its declared bit width, the lazy
  ``dequantized`` tensor is bit-identical to the format's own quantize
  output, and the container ``encode`` returns (the plan's encode
  entry) stores exactly those code arrays, stream by stream.
* **Golden vectors** — the committed packed / wire / HTTP vectors are
  reproduced byte-identically under fast AND reference dispatch, and a
  ``KVCacheSession`` run under fast dispatch reads back the same K/V
  bytes as one run under reference dispatch.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.codec import PackedTensor, collect_encode_stats, decode, encode, \
    unpack_bits
from repro.codec.codecs import codec_for
from repro.errors import CodecError
from repro.kernels import fast_kernels, reference_kernels
from repro.kernels.search import _CHUNK_ELEMS
from repro.kv import KVCacheSession, KVPolicy
from repro.plan import clear_plan_cache, get_plan
from repro.runner.formats import FORMAT_REGISTRY, make_format
from repro.server import protocol

GOLDEN_DIR = Path(__file__).parent / "golden"

ALL_FORMATS = sorted(FORMAT_REGISTRY)


DISPATCH = {"fast": fast_kernels, "reference": reference_kernels}

#: 32-element groups per row chunk of the Sg search engine on its
#: 12-candidate (3 biases x 4 inner) grids.
_SG_CHUNK_GROUPS = _CHUNK_ELEMS // (12 * 32)


def _adversarial_cases(rng) -> dict:
    """Tensor family stressing scale extremes and geometry edges."""
    return {
        "zeros": np.zeros((3, 64)),
        "subnormal": rng.standard_normal((4, 64)) * 1e-310,
        "huge": np.clip(rng.standard_normal((8, 64)), -2, 2) * 1e307,
        "mixed_decades": rng.standard_normal((4, 64)) * np.exp(
            3 * rng.standard_normal((4, 64))),
        "ragged": rng.standard_normal((5, 50)),    # partial trailing group
        "single_elem_groups": rng.standard_normal((6, 1)),
        "empty": np.zeros((0, 64)),
        "1d": rng.standard_normal(70),
        # 2.5 Sg chunks (a partial last one), in and out of the
        # engine's regime: a subnormal row and an E8M0-edge row in later
        # chunks each send the whole call to the exact fallback.
        "multi_chunk": rng.standard_normal((5 * _SG_CHUNK_GROUPS // 2, 32)),
        "multi_chunk_fallback": np.vstack([
            rng.standard_normal((_SG_CHUNK_GROUPS, 32)),
            rng.standard_normal((1, 32)) * 1e-310,
            rng.standard_normal((_SG_CHUNK_GROUPS, 32)),
            rng.standard_normal((1, 32)) * 1e40,
            rng.standard_normal((_SG_CHUNK_GROUPS // 2, 32))]),
    }


def _both_paths(name, x, op):
    """(fast-dispatch container, reference-dispatch container)."""
    fmt = make_format(name)
    with reference_kernels():
        reference = encode(fmt, x, op=op, verify=True)
    return encode(fmt, x, op=op, verify=True), reference


def _outcome(path):
    """Container bytes, or the exception type a path raises (some
    formats reject near-overflow input — every path must agree)."""
    try:
        return path().to_bytes()
    except Exception as exc:
        return type(exc)


# ----------------------------------------------------------------------
# The oracle, whole catalog
# ----------------------------------------------------------------------
def _oracle(fmt, x, op):
    """``quantize_*`` under reference dispatch: what decode must give."""
    with reference_kernels():
        if op == "weight":
            return fmt.quantize_weight(x, axis=-1)
        return fmt.quantize_activation(x, axis=-1)


def _underflow_block() -> np.ndarray:
    """A 1 x 64 row whose NVFP4 tensor scale underflows to 0."""
    x = np.zeros((1, 64))
    x[0, 0], x[0, 2] = 1.5e-323, -5e-324
    return x


#: The cases holding a group whose MSFP / SMX exponent falls outside
#: E8M0's [-127, 127] (magnitudes near 1e-310, 1e40 or 1e307).
_BEYOND_E8M0 = ("subnormal", "huge", "multi_chunk_fallback", "underflow")


@pytest.mark.parametrize("name", ALL_FORMATS)
@pytest.mark.parametrize("op", ["weight", "activation"])
def test_decode_matches_oracle(name, op, rng):
    """``decode(encode(x, verify=True))`` is the reference quantize
    output byte for byte under both dispatch modes, and every encode is
    counted as packed from codes. Two refusals are ``CodecError`` by
    design: a scale the container cannot hold (MSFP's and SMX's
    unclamped exponents beyond E8M0) and an M2-NVFP4 weight group whose
    candidate errors all overflow (no code wins the search)."""
    fmt = make_format(name)
    cases = {**_adversarial_cases(rng), "underflow": _underflow_block()}
    # SMX's own quantize divides by a scale that underflows to 0 on the
    # underflow block; the bytes, not the warnings, are under test.
    with np.errstate(all="ignore"):
        for case, x in cases.items():
            want = _oracle(fmt, x, op)
            for mode, dispatch in DISPATCH.items():
                with dispatch(), collect_encode_stats() as stats:
                    try:
                        pt = encode(fmt, x, op=op, verify=True)
                    except CodecError:
                        assert (name.startswith(("msfp", "smx"))
                                and case in _BEYOND_E8M0) or \
                            (name, op, case) == ("m2-nvfp4", "weight",
                                                 "huge"), \
                            f"{name}:{op} refused '{case}' under {mode}"
                        continue
                got = decode(PackedTensor.from_bytes(pt.to_bytes()))
                assert got.tobytes() == want.tobytes(), \
                    f"{name}:{op} decode != oracle on '{case}' ({mode})"
                assert stats["fused_encodes"] == stats["encodes"] == 1, \
                    f"{name}:{op} '{case}' ({mode}): {stats}"


@pytest.mark.parametrize("name", ALL_FORMATS)
@pytest.mark.parametrize("op", ["weight", "activation"])
def test_fused_bytes_match_fallback(name, op, rng):
    """The container bytes, or the error type, do not depend on the
    dispatch mode."""
    fmt = make_format(name)

    def outcome(x):
        return _outcome(lambda: encode(fmt, x, op=op, verify=True))

    with np.errstate(over="ignore"):
        for case, x in _adversarial_cases(rng).items():
            fast = outcome(x)
            with reference_kernels():
                assert outcome(x) == fast, \
                    f"{name}:{op} container diverged from reference on '{case}'"


@pytest.mark.parametrize("dispatch", sorted(DISPATCH))
@pytest.mark.parametrize("name", ALL_FORMATS)
def test_fused_bytes_match_fallback_across_dispatch(name, dispatch,
                                                    heavy_tensor):
    fmt = make_format(name)
    for op in ("weight", "activation"):
        with DISPATCH[dispatch]():
            pt = encode(fmt, heavy_tensor, op=op, verify=True)
        assert pt.to_bytes() == encode(fmt, heavy_tensor, op=op).to_bytes(), \
            f"{name}:{op} container diverged under {dispatch}"
        assert decode(pt).tobytes() == \
            _oracle(fmt, heavy_tensor, op).tobytes(), f"{name}:{op}"


def test_fused_path_engages_for_every_fused_family(rng):
    x = rng.standard_normal((8, 64))
    for name in ALL_FORMATS:
        fmt = make_format(name)
        for op in ("weight", "activation"):
            for mode, dispatch in DISPATCH.items():
                with dispatch(), collect_encode_stats() as stats:
                    encode(fmt, x, op=op)
                assert stats["fused_encodes"] == 1, \
                    f"{name}:{op} did not pack from plan codes ({mode})"


# ----------------------------------------------------------------------
# The code-space contract itself
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ALL_FORMATS)
@pytest.mark.parametrize("op", ["weight", "activation"])
def test_code_space_result_matches_codec_contract(name, op, heavy_tensor):
    fmt = make_format(name)
    x = heavy_tensor
    plan = get_plan(fmt, op, x.shape, axis=-1)
    assert plan.run_codes is not None, f"{name}:{op} plan has no run_codes"
    cs = plan.run_codes(x)

    # Stream order is the codec's declared packing order, and every
    # stream's codes fit the declared width.
    codec = codec_for(fmt)
    pt = PackedTensor(format_name=name, fingerprint=repr(fmt), op=op,
                      shape=x.shape, axis=x.ndim - 1,
                      group_size=int(getattr(fmt, "group_size", 1)))
    assert cs.stream_names == codec.code_layout(fmt, pt)
    for stream in cs.streams:
        values = np.asarray(stream.values)
        assert values.min() >= 0, f"{name}:{op} '{stream.name}' negative code"
        if stream.width < 64:
            assert values.max() < (1 << stream.width), \
                f"{name}:{op} '{stream.name}' overflows width {stream.width}"

    # The lazy dequantized view is the format's own quantize output.
    if op == "weight":
        expect = np.asarray(fmt.quantize_weight(x, axis=-1), np.float64)
    else:
        expect = np.asarray(fmt.quantize_activation(x, axis=-1), np.float64)
    assert cs.dequantized.tobytes() == expect.tobytes(), \
        f"{name}:{op} code-space dequantized drifted from quantize output"

    # The container encode returns (the plan's encode entry) stores
    # exactly these code arrays, at their widths, in this order, under
    # this container's header.
    got = encode(fmt, x, op=op)
    assert (got.format_name, got.fingerprint, got.op, got.shape, got.axis,
            got.group_size) == (pt.format_name, pt.fingerprint, pt.op,
                                pt.shape, pt.axis, pt.group_size)
    assert tuple(got.streams) == cs.stream_names
    for stream in cs.streams:
        stored = got.streams[stream.name]
        values = np.asarray(stream.values).reshape(-1)
        assert (stored.width, stored.count) == (stream.width, values.size)
        assert (unpack_bits(stored.data, stored.width, stored.count)
                == values).all(), \
            f"{name}:{op} '{stream.name}' drifted from the plan's codes"
    assert got.extra == cs.extra
    # And the packed bytes decode back to the dequantized view.
    assert decode(PackedTensor.from_bytes(got.to_bytes())).tobytes() \
        == expect.tobytes()


def _nvfp4_family_cases(rng) -> list:
    """Seeded ``(x, axis)`` cases for the NVFP4-family executors: zero
    and -0.0 tensors, zero groups and elements, widths that are not a
    multiple of 16, non-last axes and magnitudes from 1e-310
    (subnormal values and scales) to 1e300."""
    neg_zero = np.zeros((2, 48))
    neg_zero[:, ::2] = -0.0
    cases = [(np.zeros((3, 32)), -1), (neg_zero, -1),
             (rng.standard_normal((4, 3, 20)), 1)]
    for _ in range(48):
        rows = int(rng.integers(1, 6))
        width = int(rng.choice([1, 7, 16, 20, 33, 50, 64]))
        decade = int(rng.choice([-310, -300, -30, 0, 30, 300]))
        x = rng.standard_normal((rows, width)) \
            * np.exp(2 * rng.standard_normal((rows, width))) * 10.0 ** decade
        x[rng.random(x.shape) < 0.1] = 0.0
        x[rng.random(x.shape) < 0.05] = -0.0
        if rng.random() < 0.3:
            x[int(rng.integers(rows))] = 0.0
        cases.append((x, 0 if rng.random() < 0.3 else -1))
    return cases


def _quantized(fmt, op, x, axis, run=None):
    """``(shape, bytes)`` of the dequantized tensor, or the exception
    type quantizing raises."""
    try:
        if run is not None:
            y = run(x)
        elif op == "weight":
            y = fmt.quantize_weight(x, axis=axis)
        else:
            y = fmt.quantize_activation(x, axis=axis)
    except Exception as exc:
        return type(exc)
    return y.shape, y.tobytes()


@pytest.mark.parametrize("name", ["nvfp4", "m2-nvfp4"])
@pytest.mark.parametrize("op", ["weight", "activation"])
def test_nvfp4_family_executors_match_reference(name, op):
    """Both NVFP4-family executors against reference dispatch, on
    seeded adversarial tensors: ``run``'s dequantized bytes, the fused
    container bytes (or the same exception type), and, for NVFP4,
    ``run`` with a calibrated ``tensor_amax`` of 0, below and at the
    data max."""
    fmt = make_format(name)
    rng = np.random.default_rng(23)
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (x, axis) in enumerate(_nvfp4_family_cases(rng)):
            plan = get_plan(fmt, op, x.shape, axis)
            with reference_kernels():
                want = _quantized(fmt, op, x, axis)
                want_pt = _outcome(lambda: encode(fmt, x, op=op, axis=axis,
                                                  verify=True))
            got = _quantized(fmt, op, x, axis, run=plan.run)
            assert got == want, f"{name}:{op} case {i}: dequantized bytes"
            with collect_encode_stats() as stats:
                got_pt = _outcome(lambda: encode(fmt, x, op=op, axis=axis,
                                                 verify=True))
            assert got_pt == want_pt, f"{name}:{op} case {i}: container"
            if isinstance(got_pt, bytes):
                assert stats["fused_encodes"] == 1, f"{name} case {i}"
            if name != "nvfp4" or isinstance(want, type):
                continue
            amax = float(np.abs(x).max(initial=0.0))
            for tensor_amax in (0.0, amax * 0.3, amax):
                with reference_kernels():
                    want = fmt.quantize_activation_calibrated(
                        x, tensor_amax, axis=axis)
                assert plan.run(x, tensor_amax=tensor_amax).tobytes() \
                    == fmt.quantize_activation_calibrated(
                        x, tensor_amax, axis=axis).tobytes() \
                    == want.tobytes(), \
                    f"nvfp4 case {i}: calibrated tensor_amax {tensor_amax}"


@pytest.mark.parametrize("dispatch", ["fast", "reference"])
@pytest.mark.parametrize("name", ["nvfp4", "m2-nvfp4"])
@pytest.mark.parametrize("op", ["weight", "activation"])
def test_nvfp4_family_tensor_scale_underflow(name, op, dispatch):
    """Every |x| below about 1.3e-320 underflows the tensor scale to 0:
    the container (laid out like a zero tensor's, no scale stream)
    decodes to quantize's exact bytes, +0.0 throughout for NVFP4, with
    verify on and no floating-point warning, packed from plan codes
    under either dispatch mode."""
    fmt = make_format(name)
    x = _underflow_block()
    with warnings.catch_warnings(), DISPATCH[dispatch]():
        warnings.simplefilter("error")
        want = (fmt.quantize_weight(x) if op == "weight"
                else fmt.quantize_activation(x))
        with collect_encode_stats() as stats:
            pt = encode(fmt, x, op=op, verify=True)
        got = decode(pt.to_bytes(), fmt=fmt)
    assert got.tobytes() == want.tobytes()
    assert "scales" not in pt.streams
    assert stats["fused_encodes"] == 1
    if name == "nvfp4":
        assert not np.signbit(got).any() and not got.any()


def test_plan_cache_serves_the_codes_sibling(rng):
    clear_plan_cache()
    x = rng.standard_normal((4, 64))
    fmt = make_format("m2xfp")
    first = get_plan(fmt, "weight", x.shape, axis=-1)
    again = get_plan(fmt, "weight", x.shape, axis=-1)
    assert first is again and first.run_codes is again.run_codes


# ----------------------------------------------------------------------
# Golden vectors under both dispatch modes
# ----------------------------------------------------------------------
def _unhex_input(payload) -> np.ndarray:
    vals = [float.fromhex(h) for h in payload["input_hex"]]
    return np.array(vals).reshape(payload["shape"])


def test_golden_packed_vectors_fused_and_unfused():
    payload = json.loads((GOLDEN_DIR / "packed_vectors.json").read_text())
    x = _unhex_input(payload)
    for key, case in sorted(payload["cases"].items()):
        fast, reference = _both_paths(case["format"], x, case["op"])
        assert fast.to_bytes().hex() == case["packed_hex"], \
            f"{key}: fast container drifted from the golden bytes"
        assert reference.to_bytes().hex() == case["packed_hex"], \
            f"{key}: reference container drifted from the golden bytes"


def test_golden_wire_vectors_fused_and_unfused():
    payload = json.loads((GOLDEN_DIR / "wire_vectors.json").read_text())
    x = _unhex_input(payload)
    for key, case in sorted(payload["cases"].items()):
        if not case["packed"]:
            continue
        fmt = make_format(case["format"])
        for mode, pt in zip(("fast", "reference"),
                            _both_paths(case["format"], x, case["op"])):
            frame = protocol.encode_response_packed(
                case["request_id"], pt, fingerprint=repr(fmt))
            assert frame.hex() == case["response_hex"], \
                f"{key}: {mode} response frame drifted from the golden bytes"


def test_golden_http_vectors_fused_and_unfused():
    payload = json.loads((GOLDEN_DIR / "http_vectors.json").read_text())
    x = _unhex_input(payload)
    for key, case in sorted(payload["quantize"].items()):
        if not case["packed"]:
            continue
        pinned = bytes.fromhex(case["response_hex"])
        for mode, pt in zip(("fast", "reference"),
                            _both_paths(case["format"], x, case["op"])):
            assert pt.to_bytes() in pinned, \
                f"{key}: {mode} container missing from the golden HTTP body"


# ----------------------------------------------------------------------
# KV sessions pack from plan codes under either dispatch mode
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fmt", ["m2xfp", "mxfp4", "elem-em", "sg-em"])
def test_kv_session_blobs_match_fallback(fmt, rng):
    n_layers, dh = 2, 32
    blocks = [(layer, rng.standard_normal((4, dh)),
               rng.standard_normal((4, dh)))
              for layer in range(n_layers) for _ in range(3)]

    def run_session(dispatch):
        # The session wraps every append in its own (inner, shadowing)
        # collect_encode_stats, so the counts come from its accessor.
        sess = KVCacheSession(n_layers, KVPolicy(fmt), max_tokens=64,
                              sink_tokens=2, dispatch=dispatch, verify=True)
        for layer, k, v in blocks:
            sess.append(layer, k, v)
        out = [sess.read(layer) for layer in range(n_layers)]
        fused_encodes = sess.encode_stage_stats()["fused_encodes"]
        sess.close()
        return out, fused_encodes

    fused_out, fused_encodes = run_session("fast")
    # One encode per append, packed from plan codes: K and V ride it
    # stacked.
    assert fused_encodes == len(blocks), \
        f"{fmt}: session appends did not pack from plan codes"
    reference_out, reference_encodes = run_session("reference")
    assert reference_encodes == len(blocks)
    for layer, ((kf, vf), (ku, vu)) in enumerate(zip(fused_out,
                                                     reference_out)):
        assert kf.tobytes() == ku.tobytes(), \
            f"{fmt}: layer {layer} K blob diverged fused vs reference"
        assert vf.tobytes() == vu.tobytes(), \
            f"{fmt}: layer {layer} V blob diverged fused vs reference"
