"""Tests for the hybrid M2XFP format and its Sec. 5.2 memory layout.

The Sec. 5.2 layout is the codec's Elem-EM / Sg-EM container, so these
tests hold the served containers to the layout as the paper states it:
two FP4 codes per byte (low nibble first, sign in bit 3), one E8M0 byte
(exponent + 127) per group, four 2-bit metadata fields per byte (low
bits first); and they hold the accelerator's memory model to the
container's bytes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel import DispatchUnit, MemoryLayout
from repro.codec import decode, encode
from repro.core import (M2NVFP4, M2XFP, ElemEE, ElemEM, SgEM, elem_em_decode,
                        elem_em_encode, m2xfp, sg_em_decode, sg_em_encode)
from repro.errors import CodecError, ShapeError
from repro.mx import mxfp4, nvfp4


class TestM2XFP:
    def test_ebw_is_4p5(self):
        assert m2xfp.ebw == 4.5
        assert m2xfp.weight_ebw == 4.5
        assert m2xfp.activation_ebw == 4.5

    def test_default_config_operand_ebws_are_equal(self):
        # The docstring's "both operand paths cost the same" claim, pinned:
        # the max() in ebw is degenerate for the paper's configuration.
        assert m2xfp.weight_ebw == m2xfp.activation_ebw == m2xfp.ebw

    def test_repr_exposes_both_operand_ebws(self):
        r = repr(m2xfp)
        assert "weight=4.5" in r and "activation=4.5" in r

    def test_asymmetric_config_splits_operand_ebws(self):
        fmt = M2XFP(top_k=2)
        assert fmt.activation_ebw > fmt.weight_ebw
        assert fmt.ebw == fmt.activation_ebw
        assert f"weight={fmt.weight_ebw:.4g}" in repr(fmt)

    def test_weight_and_activation_paths_differ(self, heavy_tensor):
        w = m2xfp.quantize_weight(heavy_tensor)
        a = m2xfp.quantize_activation(heavy_tensor)
        assert not np.allclose(w, a)

    def test_both_paths_beat_mxfp4(self, heavy_tensor):
        e_mx = np.mean((mxfp4.quantize(heavy_tensor) - heavy_tensor) ** 2)
        for dq in (m2xfp.quantize_weight(heavy_tensor),
                   m2xfp.quantize_activation(heavy_tensor)):
            assert np.mean((dq - heavy_tensor) ** 2) < e_mx

    def test_default_quantize_is_activation_path(self, heavy_tensor):
        assert np.allclose(m2xfp.quantize(heavy_tensor),
                           m2xfp.quantize_activation(heavy_tensor))

    def test_m2_nvfp4_ebw_is_5(self):
        assert M2NVFP4().ebw == 5.0

    def test_m2_nvfp4_beats_nvfp4(self, heavy_tensor):
        e_nv = np.mean((nvfp4.quantize(heavy_tensor) - heavy_tensor) ** 2)
        m2nv = M2NVFP4()
        e_w = np.mean((m2nv.quantize_weight(heavy_tensor) - heavy_tensor) ** 2)
        e_a = np.mean((m2nv.quantize_activation(heavy_tensor) - heavy_tensor) ** 2)
        assert e_w < e_nv
        assert e_a <= e_nv + 1e-12

    def test_custom_subgroup_sizes(self, heavy_tensor):
        for sub in (4, 16):
            fmt = M2XFP(sub_size=sub)
            assert fmt.quantize_weight(heavy_tensor).shape == heavy_tensor.shape


def _sec52_streams(sign, mag, exps, fields) -> dict:
    """The three Sec. 5.2 streams of an encoding, byte by byte."""
    codes = ((np.asarray(sign) << 3) | np.asarray(mag)).reshape(-1).tolist()
    fields = np.asarray(fields).reshape(-1).tolist()
    return {
        "elements": bytes(lo | hi << 4
                          for lo, hi in zip(codes[0::2], codes[1::2])),
        "scales": bytes(int(e) + 127 for e in exps),
        "meta": bytes(sum(f << 2 * j for j, f in enumerate(fields[i:i + 4]))
                      for i in range(0, len(fields), 4)),
    }


def _oracle(op: str, groups: np.ndarray):
    """``(Sec. 5.2 streams, dequantized groups)`` of the reference
    encoder of m2xfp's ``op`` path."""
    if op == "weight":
        enc = sg_em_encode(groups, sub_size=8)
        fields, dq = enc.sg_codes, sg_em_decode(enc)
    else:
        enc = elem_em_encode(groups, sub_size=8)
        fields, dq = enc.metadata[:, :, 0], elem_em_decode(enc)
    streams = _sec52_streams(enc.sign_codes, enc.mag_codes,
                             enc.scale_exponents, fields)
    return streams, dq


#: A fixed small tensor: two rows of two groups, one row with outliers
#: so the metadata fields take more than one value.
SEC52_X = np.random.default_rng(52).standard_normal((2, 64)) \
    * np.array([[1.0], [3.0]])
SEC52_X[1, ::9] *= 8.0


class TestPacking:
    @pytest.mark.parametrize("op", ["weight", "activation"])
    def test_served_bytes_follow_sec52_layout(self, op):
        pt = encode(m2xfp, SEC52_X, op=op)
        want, dq = _oracle(op, SEC52_X.reshape(-1, 32))
        assert list(pt.streams) == ["elements", "scales", "meta"]
        for name, data in want.items():
            assert pt.stream(name).data == data, name
        assert len(set(want["meta"])) > 1
        assert decode(pt).tobytes() == dq.reshape(SEC52_X.shape).tobytes()

    def test_elem_em_pack_roundtrip(self, rng):
        g = rng.standard_normal((40, 32)) * 3
        pt = encode(ElemEM(), g, op="activation")
        assert pt.bits_per_element == 4.5
        want = elem_em_decode(elem_em_encode(g, sub_size=8))
        assert decode(pt).tobytes() == want.tobytes()

    def test_sg_em_pack_roundtrip(self, rng):
        g = rng.standard_normal((40, 32)) * 3
        pt = encode(SgEM(), g, op="weight")
        assert pt.bits_per_element == 4.5
        want = sg_em_decode(sg_em_encode(g, sub_size=8))
        assert decode(pt).tobytes() == want.tobytes()

    def test_pack_rejects_top2(self, rng):
        with pytest.raises(CodecError):
            encode(ElemEM(top_k=2), rng.standard_normal((4, 32)))

    def test_streams_are_separate(self, rng):
        pt = encode(ElemEM(), rng.standard_normal((10, 32)))
        assert pt.stream("elements").nbytes == 10 * 16  # 128 bits per group
        assert pt.stream("scales").nbytes == 10         # 8 bits per group
        assert pt.stream("meta").nbytes == 10           # 8 bits per group

    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_pack_roundtrip_property(self, seed, n):
        g = np.random.default_rng(seed).standard_normal((n, 32)) * 4
        want = elem_em_decode(elem_em_encode(g, sub_size=8))
        assert decode(encode(ElemEM(), g)).tobytes() == want.tobytes()


class TestMemoryLayout:
    def test_dispatch_alignment(self, rng):
        x = rng.standard_normal((6, 32))
        for fmt, op in ((ElemEM(), "activation"), (SgEM(), "weight"),
                        (m2xfp, "activation"), (m2xfp, "weight")):
            pt = encode(fmt, x, op=op)
            records = list(DispatchUnit(MemoryLayout(pt)).stream())
            assert len(records) == 6
            assert all(r.element_bytes.size == 16 and r.meta_bytes.size == 1
                       for r in records)
            # The records, in address order, are the streams' bytes.
            assert b"".join(r.element_bytes.tobytes() for r in records) \
                == pt.stream("elements").data
            assert bytes(r.scale_byte for r in records) \
                == pt.stream("scales").data
            assert b"".join(r.meta_bytes.tobytes() for r in records) \
                == pt.stream("meta").data

    def test_record_bounds(self, rng):
        layout = MemoryLayout(encode(ElemEM(), rng.standard_normal((2, 32))))
        with pytest.raises(ShapeError):
            layout.record(5)

    @pytest.mark.parametrize("op", ["weight", "activation"])
    def test_records_carry_every_metadata_byte(self, rng, op):
        # Sub-size 4: eight 2-bit fields, two metadata bytes per group.
        pt = encode(M2XFP(sub_size=4), rng.standard_normal((3, 64)) * 3,
                    op=op)
        records = list(DispatchUnit(MemoryLayout(pt)).stream())
        assert all(r.meta_bytes.size == 2 for r in records)
        assert b"".join(r.meta_bytes.tobytes() for r in records) \
            == pt.stream("meta").data

    @pytest.mark.parametrize("fmt, op", [
        (M2XFP(sub_size=16), "weight"),       # 4 metadata bits per group
        (M2XFP(sub_size=16), "activation"),
        (ElemEE(), "activation"),             # a fourth stream, refined
        (mxfp4, "activation"),                # no metadata stream
        (M2NVFP4(), "activation"),            # FP8 scales, a tensor scale
    ], ids=["m2xfp-s16-weight", "m2xfp-s16-activation", "elem-ee", "mxfp4",
            "m2-nvfp4"])
    def test_layout_refuses_other_containers(self, rng, fmt, op):
        pt = encode(fmt, rng.standard_normal((2, 64)), op=op)
        with pytest.raises(ShapeError):
            MemoryLayout(pt)
