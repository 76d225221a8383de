"""Tests for the MX format family (MXFP, NVFP4, SMX, MSFP, group-FP4)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formats import FP4_E2M1
from repro.mx import (MSFP12, MXFP4, MXFP6_E2M3, MXFP8_E4M3, MXINT8, NVFP4,
                      SMX4, SMX6, SMX9, GroupFP4, MaxPreserving, mxfp4, nvfp4,
                      smx4)


class TestMXFP4:
    def test_ebw(self):
        assert mxfp4.ebw == 4.25
        assert MXFP4(group_size=16).ebw == 4.5

    def test_values_on_scaled_grid(self, rng):
        x = rng.standard_normal((4, 64)) * 5
        res = MXFP4().quantize_detailed(x)
        groups = res.dequantized.reshape(-1, 32)
        for g, s in zip(groups, res.scales):
            assert all(abs(v) / s in FP4_E2M1.grid for v in g)

    def test_idempotent(self, rng):
        x = rng.standard_normal((8, 32))
        q1 = mxfp4.quantize(x)
        assert np.allclose(mxfp4.quantize(q1), q1)

    def test_zero_tensor(self):
        assert np.all(mxfp4.quantize(np.zeros((2, 32))) == 0)

    def test_shape_preserved(self, rng):
        x = rng.standard_normal((3, 5, 50))
        assert mxfp4.quantize(x).shape == x.shape

    def test_quantization_reduces_with_bits(self, heavy_tensor):
        e4 = np.mean((MXFP4().quantize(heavy_tensor) - heavy_tensor) ** 2)
        e6 = np.mean((MXFP6_E2M3().quantize(heavy_tensor) - heavy_tensor) ** 2)
        e8 = np.mean((MXFP8_E4M3().quantize(heavy_tensor) - heavy_tensor) ** 2)
        assert e8 < e6 < e4

    def test_mxint8_high_fidelity(self, heavy_tensor):
        err = np.mean((MXINT8().quantize(heavy_tensor) - heavy_tensor) ** 2)
        rel = err / np.mean(heavy_tensor ** 2)
        assert rel < 1e-3


class TestNVFP4:
    def test_ebw(self):
        assert nvfp4.ebw == 4.5

    def test_beats_mxfp4_on_outliers(self, heavy_tensor):
        e_mx = np.mean((mxfp4.quantize(heavy_tensor) - heavy_tensor) ** 2)
        e_nv = np.mean((nvfp4.quantize(heavy_tensor) - heavy_tensor) ** 2)
        assert e_nv < e_mx

    def test_zero_tensor(self):
        assert np.all(NVFP4().quantize(np.zeros((2, 16))) == 0)

    def test_calibrated_scale_clips_spikes(self, rng):
        x = rng.standard_normal((4, 16))
        spike = x.copy()
        spike[0, 0] = 1000.0
        # Calibrated with a too-small tensor amax: the spike must clip hard.
        dq = NVFP4().quantize_activation_calibrated(spike, tensor_amax=5.0)
        assert abs(dq[0, 0]) < 1000.0

    def test_tensor_scale_reported(self, rng):
        res = NVFP4().quantize_detailed(rng.standard_normal((2, 16)))
        assert res.details["tensor_scale"] > 0


class TestSMX:
    def test_ebw_is_4(self):
        assert smx4.ebw == 4.0

    def test_smx_family_fidelity_order(self, heavy_tensor):
        errs = [np.mean((f().quantize(heavy_tensor) - heavy_tensor) ** 2)
                for f in (SMX4, SMX6, SMX9)]
        assert errs[2] < errs[1] < errs[0]

    def test_smx4_worst_4bit_format(self, heavy_tensor):
        e_smx = np.mean((smx4.quantize(heavy_tensor) - heavy_tensor) ** 2)
        e_mx = np.mean((mxfp4.quantize(heavy_tensor) - heavy_tensor) ** 2)
        assert e_smx > e_mx

    def test_micro_exponent_refines_small_pairs(self):
        # One big pair, one tiny pair: the tiny pair gets the halved scale.
        g = np.array([[8.0, 7.0] + [0.2, 0.1] + [0.0] * 12])
        res = SMX4().quantize_groups(g)
        micro = res.details["micro_exponents"][0]
        assert micro[1] >= micro[0]


@pytest.mark.parametrize("name", ["smx4", "smx6", "smx9", "msfp12", "msfp16"])
@pytest.mark.parametrize("op", ["weight", "activation"])
@pytest.mark.parametrize("mode", ["fast", "reference"])
def test_bottom_of_subnormal_range_stays_finite(name, op, mode):
    """A group whose max sits at the bottom of the subnormal range (its
    ``amax / imax`` underflows to 0) keeps a 2**-1074 scale: the output
    is finite and, on these multiples of 2**-1074, exact. Before, the
    exponent was -inf and 14 of the 64 outputs were NaN."""
    from repro.kernels import fast_kernels, reference_kernels
    from repro.runner.formats import make_format
    x = np.zeros((1, 64))
    x[0, 0], x[0, 2] = 1.5e-323, -5e-324
    pin = fast_kernels if mode == "fast" else reference_kernels
    with pin(), np.errstate(divide="raise", invalid="raise"):
        y = getattr(make_format(name), f"quantize_{op}")(x)
    assert np.isfinite(y).all()
    assert y.tobytes() == x.tobytes()


class TestOtherFormats:
    def test_msfp12_ebw(self):
        assert MSFP12().ebw == 4.5

    def test_group_fp4_maps_max_exactly(self):
        g = np.zeros((1, 32))
        g[0, 5] = 3.17
        dq = GroupFP4().quantize(g)
        # The group max maps to the FP4 max times the FP16 scale (~amax).
        assert abs(dq[0, 5] - 3.17) / 3.17 < 2e-3

    def test_max_preserving_keeps_max(self, rng):
        x = rng.standard_normal((4, 64)) * 4
        dq = MaxPreserving(MXFP4()).quantize(x)
        groups = x.reshape(-1, 32)
        dq_groups = dq.reshape(-1, 32)
        idx = np.argmax(np.abs(groups), axis=1)
        rows = np.arange(groups.shape[0])
        assert np.allclose(dq_groups[rows, idx], groups[rows, idx], rtol=1e-3)

    def test_max_preserving_lowers_error(self, heavy_tensor):
        plain = np.mean((mxfp4.quantize(heavy_tensor) - heavy_tensor) ** 2)
        kept = np.mean((MaxPreserving(MXFP4()).quantize(heavy_tensor)
                        - heavy_tensor) ** 2)
        assert kept < plain

    def test_max_preserving_wraps_nvfp4(self, heavy_tensor):
        dq = MaxPreserving(NVFP4()).quantize(heavy_tensor)
        assert dq.shape == heavy_tensor.shape

    @given(st.integers(2, 6))
    @settings(max_examples=10, deadline=None)
    def test_formats_accept_any_row_count(self, n):
        x = np.random.default_rng(n).standard_normal((n, 32))
        for fmt in (MXFP4(), NVFP4(), SMX4(), GroupFP4()):
            assert fmt.quantize(x).shape == x.shape
