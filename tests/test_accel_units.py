"""Bit-exactness tests for the accelerator's functional units."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel import (FP4_TO_UINT_LUT, DispatchUnit, MemoryLayout,
                         PETile, PETileInputs, QuantizationEngine,
                         Top1DecodeUnit, comparator_tree_top1, from_fixed,
                         lut_key, to_fixed)
from repro.codec import decode, encode
from repro.core import elem_em_encode, elem_em_quantize_groups, m2xfp
from repro.errors import FormatError, ShapeError


class TestFixedPoint:
    def test_exact_roundtrip(self):
        vals = np.array([0.5, -1.5, 3.0, 6.0])
        assert np.array_equal(from_fixed(to_fixed(vals, 1), 1), vals)

    def test_rejects_inexact(self):
        with pytest.raises(FormatError):
            to_fixed(np.array([0.3]), 1)


class TestDecodeUnit:
    def test_lut_maps_sign_magnitude(self):
        # +v and -v share the same magnitude key.
        for mag in range(8):
            assert FP4_TO_UINT_LUT[mag] == FP4_TO_UINT_LUT[mag | 0x8]

    def test_tree_matches_argmax_lowest_index(self, rng):
        keys = rng.integers(0, 8, (500, 8))
        got = comparator_tree_top1(keys)
        want = np.argmax(keys, axis=1)  # numpy argmax takes first maximum
        assert np.array_equal(got, want)

    def test_all_equal_gives_index_zero(self):
        assert comparator_tree_top1(np.full((1, 8), 3))[0] == 0

    def test_unit_selects_by_magnitude_not_sign(self):
        unit = Top1DecodeUnit()
        codes = np.array([[0x1, 0x2, 0xF, 0x3, 0x0, 0x0, 0x0, 0x0]])
        # 0xF is -6.0: largest magnitude despite the sign bit.
        assert unit.top1(codes)[0] == 2

    def test_matches_encoder_top_choice(self, rng):
        g = rng.standard_normal((100, 32)) * 2
        enc = elem_em_encode(g, sub_size=8)
        packed = (enc.sign_codes << 3) | enc.mag_codes
        unit = Top1DecodeUnit()
        for row in range(100):
            for sub in range(4):
                codes = packed[row, sub * 8:(sub + 1) * 8]
                mag_sub = enc.mag_codes[row, sub * 8:(sub + 1) * 8]
                assert unit.top1(codes[None, :])[0] == np.argmax(mag_sub)

    def test_bad_inputs(self):
        with pytest.raises(ShapeError):
            lut_key(np.array([16]))
        with pytest.raises(ShapeError):
            comparator_tree_top1(np.zeros((1, 4)))

    def test_cycles(self):
        assert Top1DecodeUnit().cycles(10) == 10


class TestPETile:
    def _random_inputs(self, rng):
        x_codes = rng.integers(0, 16, 8)
        # Valid metadata: encode a real group so meta is consistent.
        return PETileInputs(
            w_codes=rng.integers(0, 16, 8), x_codes=x_codes,
            x_meta=int(rng.integers(0, 4)), sg_code=int(rng.integers(0, 4)),
            w_exp=int(rng.integers(-10, 10)), x_exp=int(rng.integers(-10, 10)))

    def test_bit_exact_vs_reference(self, rng):
        pe = PETile()
        for _ in range(300):
            inp = self._random_inputs(rng)
            assert pe.multiply_accumulate(inp) == pe.reference(inp)

    def test_zero_inputs(self):
        pe = PETile()
        inp = PETileInputs(np.zeros(8, int), np.zeros(8, int), 1, 0, 0, 0)
        assert pe.multiply_accumulate(inp) == pe.reference(inp)

    def test_shape_validation(self):
        pe = PETile()
        with pytest.raises(ShapeError):
            pe.multiply_accumulate(PETileInputs(np.zeros(4, int),
                                                np.zeros(8, int), 0, 0, 0, 0))

    def test_subgroup_scale_shift_add(self):
        pe = PETile()
        base = PETileInputs(np.array([2] * 8), np.array([2] * 8), 1, 0, 0, 0)
        scaled = PETileInputs(np.array([2] * 8), np.array([2] * 8), 1, 3, 0, 0)
        assert pe.multiply_accumulate(scaled) == pytest.approx(
            pe.multiply_accumulate(base) * 1.75)

    def test_exponent_alignment(self):
        pe = PETile()
        a = PETileInputs(np.array([2] * 8), np.array([2] * 8), 1, 0, 0, 0)
        b = PETileInputs(np.array([2] * 8), np.array([2] * 8), 1, 0, 3, -1)
        assert pe.multiply_accumulate(b) == pe.multiply_accumulate(a) * 4.0

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=100, deadline=None)
    def test_exactness_property(self, seed):
        rng = np.random.default_rng(seed)
        pe = PETile()
        inp = self._random_inputs(rng)
        assert pe.multiply_accumulate(inp) == pe.reference(inp)


class TestQuantEngine:
    def test_matches_algorithm1(self, rng):
        g = rng.standard_normal((50, 32)) * 3
        engine = QuantizationEngine()
        from repro.core import elem_em_decode
        assert np.array_equal(elem_em_decode(engine.encode(g)),
                              elem_em_quantize_groups(g, sub_size=8))

    def test_packed_output_cost(self, rng):
        packed = QuantizationEngine().encode_packed(rng.standard_normal((8, 32)))
        assert packed.bits_per_element == 4.5

    def test_pipeline_timing(self):
        engine = QuantizationEngine()
        assert engine.cycles(0) == 0
        assert engine.cycles(1) == 2
        assert engine.cycles(100) == 101

    def test_streaming_throughput_check(self):
        engine = QuantizationEngine()
        assert not engine.stalls_systolic_array(1.0)
        assert engine.stalls_systolic_array(1.5)

    def test_group_sub_validation(self):
        with pytest.raises(ShapeError):
            QuantizationEngine(group_size=32, sub_size=5)


def _subgroup_fields(record):
    """Per 8-lane subgroup of a dispatch record: ``(FP4 codes, 2-bit
    metadata field)``, unpacked from the record's bytes as the Sec. 5.2
    layout states it (low nibble first; four fields a byte, low bits
    first)."""
    nibbles = np.empty(record.element_bytes.size * 2, dtype=np.int64)
    nibbles[0::2] = record.element_bytes & 0xF
    nibbles[1::2] = record.element_bytes >> 4
    for j in range(nibbles.size // 8):
        crumb = (int(record.meta_bytes[j // 4]) >> 2 * (j % 4)) & 0x3
        yield nibbles[8 * j:8 * (j + 1)], crumb


@pytest.mark.parametrize("k", [32, 64, 96, 128])
@pytest.mark.parametrize("scale", [1e-30, 1e-3, 1.0, 1e3, 1e30])
def test_pe_computes_on_served_bytes(k, scale):
    """The Fig. 11 PE, fed the dispatch unit's records of served m2xfp
    weight and activation containers, computes the dot product of the
    decoded tensors exactly."""
    rng = np.random.default_rng(k)
    pe = PETile()
    for _ in range(10):
        w = rng.standard_normal((1, k)) * rng.lognormal(0, 2, (1, k)) * scale
        x = rng.standard_normal((1, k)) * rng.lognormal(0, 2, (1, k)) * scale
        pw, px = encode(m2xfp, w, op="weight"), encode(m2xfp, x)
        got = Fraction(0)
        for rw, rx in zip(DispatchUnit(MemoryLayout(pw)).stream(),
                          DispatchUnit(MemoryLayout(px)).stream()):
            for (w_codes, sg), (x_codes, meta) in zip(_subgroup_fields(rw),
                                                      _subgroup_fields(rx)):
                got += Fraction(pe.multiply_accumulate(PETileInputs(
                    w_codes, x_codes, x_meta=meta, sg_code=sg,
                    w_exp=rw.scale_byte - 127, x_exp=rx.scale_byte - 127)))
        want = sum(Fraction(a) * Fraction(b)
                   for a, b in zip(decode(pw).ravel(), decode(px).ravel()))
        assert got == want
