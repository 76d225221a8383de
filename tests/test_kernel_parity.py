"""Fast-vs-reference parity: every format, adversarial tensors.

The fast path — each tensor format's compiled plan behind
``quantize_weight`` / ``quantize_activation``, and the boundary-cache
kernels of :mod:`repro.kernels` for scalar encodes — must be
*bit-identical* to the reference selected by
``REPRO_REFERENCE_KERNELS=1`` (no plans, the dispatch-free oracle in
:mod:`repro.core`, :mod:`repro.mx` and :mod:`repro.formats`) — not
merely close. This module sweeps every registered scalar and tensor
format over tensors built to stress the places where float paths
usually diverge: all zeros, exact rounding ties, denormal-range
magnitudes, saturating (inf-free) extremes, and outlier-structured data.
"""

import numpy as np
import pytest

from repro.algos import (BlockDialect, MicroScopiQ, MXAnt, MXMAnt, MXOliVe)
from repro.core import ElemEE, ElemEM, M2NVFP4, M2XFP, SgEE, SgEM
from repro.formats import SCALAR_FORMATS
from repro.formats.floatspec import quantize_to_grid_reference
from repro.kernels import fast_kernels, reference_kernels, rtne_boundaries
from repro.mx import (MSFP12, MXFP4, MXFP6_E2M3, MXFP8_E4M3, MXINT8,
                      MaxPreserving, NVFP4, SMX4)

SPECS = sorted(SCALAR_FORMATS)

TENSOR_FORMATS = {
    "mxfp4": lambda: MXFP4(),
    "mxfp4-ceil": lambda: MXFP4(scale_rule="ceil"),
    "mxfp4-rtn1": lambda: MXFP4(scale_rule="rtn1"),
    "mxfp4-rtn2": lambda: MXFP4(scale_rule="rtn2"),
    "mxfp6-e2m3": lambda: MXFP6_E2M3(),
    "mxfp8-e4m3": lambda: MXFP8_E4M3(),
    "mxint8": lambda: MXINT8(),
    "nvfp4": lambda: NVFP4(),
    "smx4": lambda: SMX4(),
    "msfp12": lambda: MSFP12(),
    "max-preserving": lambda: MaxPreserving(MXFP4()),
    "mx-ant": lambda: MXAnt(),
    "mx-m-ant": lambda: MXMAnt(),
    "mx-olive": lambda: MXOliVe(),
    "microscopiq": lambda: MicroScopiQ(),
    "blockdialect": lambda: BlockDialect(),
    "sg-em-adaptive": lambda: SgEM(adaptive=True),
    "sg-em-fixed": lambda: SgEM(adaptive=False),
    "sg-em-ceil": lambda: SgEM(scale_rule="ceil"),
    "sg-em-rtn1": lambda: SgEM(scale_rule="rtn1"),
    "sg-em-rtn2": lambda: SgEM(scale_rule="rtn2"),
    "sg-ee-adaptive": lambda: SgEE(adaptive=True),
    "sg-ee-fixed": lambda: SgEE(adaptive=False),
    "sg-ee-1b": lambda: SgEE(meta_bits=1, adaptive=True),
    "elem-em-top1": lambda: ElemEM(top_k=1),
    "elem-em-top2": lambda: ElemEM(top_k=2),
    "elem-em-ceil": lambda: ElemEM(scale_rule="ceil"),
    "elem-ee": lambda: ElemEE(),
    "m2xfp": lambda: M2XFP(),
    "m2xfp-fixed": lambda: M2XFP(adaptive=False),
    "m2-nvfp4": lambda: M2NVFP4(),
    "m2-nvfp4-fixed": lambda: M2NVFP4(adaptive=False),
}


def _adversarial_tensors():
    """Named (inf/NaN-free) tensors stressing rounding and saturation."""
    rng = np.random.default_rng(20260728)
    shape = (48, 64)
    gauss = rng.standard_normal(shape)
    heavy = gauss * np.exp(2.0 * rng.standard_normal(shape))
    heavy[0] = 0.0                      # an all-zero group among real data
    # Exact FP4/FP6 decision-boundary midpoints across power-of-two scales
    # exercise the ties where RTNE-in-code-space must pick the even code.
    ties = rng.choice([0.0, -0.0, 0.25, 0.5, 0.625, 0.75, 1.25, -1.25,
                       2.5, 3.5, -3.5, 5.0, 6.0, -6.0], size=shape)
    ties = ties * np.exp2(rng.integers(-12, 12, shape).astype(np.float64))
    return {
        "zeros": np.zeros(shape),
        "gauss": gauss,
        "outliers": heavy,
        "ties": ties,
        "denormal-range": gauss * 1e-300,
        "extremes": gauss * 1e300,
    }


TENSORS = _adversarial_tensors()


@pytest.mark.parametrize("tensor_name", sorted(TENSORS))
@pytest.mark.parametrize("spec_name", SPECS)
def test_scalar_encode_parity(spec_name, tensor_name):
    spec = SCALAR_FORMATS[spec_name]
    x = TENSORS[tensor_name]
    ref_codes = quantize_to_grid_reference(np.abs(x), spec.grid)
    with reference_kernels():
        ref_sign, ref_enc = spec.encode(x)
        ref_q = spec.quantize(x)
    with fast_kernels():
        fast_sign, fast_enc = spec.encode(x)
        fast_q = spec.quantize(x)
    assert np.array_equal(ref_enc, ref_codes)
    assert np.array_equal(fast_enc, ref_codes)
    assert np.array_equal(fast_sign, ref_sign)
    assert fast_q.tobytes() == ref_q.tobytes()


@pytest.mark.parametrize("tensor_name", sorted(TENSORS))
@pytest.mark.parametrize("fmt_name", sorted(TENSOR_FORMATS))
def test_tensor_format_parity(fmt_name, tensor_name):
    fmt = TENSOR_FORMATS[fmt_name]()
    x = TENSORS[tensor_name]
    with np.errstate(over="ignore"):
        with reference_kernels():
            ref_w = fmt.quantize_weight(x, axis=-1)
            ref_a = fmt.quantize_activation(x, axis=-1)
        with fast_kernels():
            fast_w = fmt.quantize_weight(x, axis=-1)
            fast_a = fmt.quantize_activation(x, axis=-1)
    assert fast_w.tobytes() == ref_w.tobytes(), "weight path diverged"
    assert fast_a.tobytes() == ref_a.tobytes(), "activation path diverged"


def test_non_dyadic_grids_fall_back_to_reference():
    """BlockDialect's dialect levels round their midpoints — the boundary
    kernel must refuse them so GridSpec.quantize stays bit-identical."""
    from repro.algos.blockdialect import DIALECTS
    from repro.kernels import boundaries_are_exact
    rng = np.random.default_rng(5)
    for spec in DIALECTS:
        assert not boundaries_are_exact(spec.grid)
        mids = 0.5 * (spec.grid[:-1] + spec.grid[1:])
        # Probe exactly on and one ulp around every midpoint, plus noise.
        x = np.concatenate([mids, np.nextafter(mids, 0), np.nextafter(mids, np.inf),
                            rng.uniform(0, spec.max_value, 512)])
        x = np.concatenate([x, -x])
        with reference_kernels():
            ref = spec.quantize(x)
        with fast_kernels():
            fast = spec.quantize(x)
        assert fast.tobytes() == ref.tobytes(), spec.name


def test_mini_float_boundaries_qualify_as_exact():
    from repro.kernels import boundaries_are_exact
    for spec in SCALAR_FORMATS.values():
        assert boundaries_are_exact(spec.grid), spec.name
        assert spec.boundaries is not None


def test_weight_cache_keeps_dispatch_modes_apart(rt_small):
    """The reference escape hatch must never be served fast-path cache."""
    from repro.models.quantized import QuantizedLM
    fmt = M2XFP()
    with fast_kernels():
        fast_lm = QuantizedLM(rt_small.model, fmt)
    with reference_kernels():
        ref_lm = QuantizedLM(rt_small.model, fmt)
    for key, fast_w in fast_lm._weights.items():
        ref_w = ref_lm._weights[key]
        assert fast_w is not ref_w, key          # distinct cache entries
        assert np.array_equal(fast_w, ref_w)     # ...but identical bits


def test_boundaries_are_exact_midpoints():
    spec = SCALAR_FORMATS["fp4_e2m1"]
    mids = 0.5 * (spec.grid[:-1] + spec.grid[1:])
    bounds = rtne_boundaries(spec.grid)
    even_lo = np.arange(mids.shape[0]) % 2 == 0
    assert np.all(bounds[even_lo] == mids[even_lo])
    assert np.all(bounds[~even_lo] < mids[~even_lo])
    # A value exactly on a midpoint lands on the even code on both paths.
    codes = np.searchsorted(bounds, mids, side="left")
    assert np.all(codes % 2 == 0)
