"""Golden-vector conformance: pinned encodings for every format.

``tests/golden/quant_vectors.json`` (written by
``scripts/regen_golden_vectors.py --regen``) commits adversarial inputs
together with their exact expected codes and decoded bit patterns. This
suite recomputes everything from the committed *inputs* and compares
bit-for-bit, under both kernel dispatch modes — any silent encoding
drift (a rounding change, a scale-rule tweak, a kernel bug) fails tier-1
with the first diverging value.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import elem_em_encode, sg_em_encode
from repro.formats.registry import SCALAR_FORMATS
from repro.kernels import fast_kernels, reference_kernels
from repro.runner.formats import make_format

GOLDEN_PATH = Path(__file__).parent / "golden" / "quant_vectors.json"


@pytest.fixture(scope="module")
def golden() -> dict:
    assert GOLDEN_PATH.exists(), \
        "golden vectors missing; run scripts/regen_golden_vectors.py --regen"
    with open(GOLDEN_PATH) as f:
        return json.load(f)


DISPATCH = {"fast": fast_kernels, "reference": reference_kernels}


@pytest.fixture(params=sorted(DISPATCH))
def dispatch(request):
    with DISPATCH[request.param]():
        yield request.param


def _unhex(values, shape=None) -> np.ndarray:
    a = np.array([float.fromhex(v) for v in values], dtype=np.float64)
    return a.reshape(shape) if shape is not None else a


def _assert_hex_equal(actual: np.ndarray, expected_hex: list, what: str):
    actual = np.asarray(actual, dtype=np.float64).ravel()
    expected = _unhex(expected_hex)
    # Bit-exact comparison, treating -0.0 != 0.0 as a real difference.
    mismatch = actual.tobytes() != expected.tobytes()
    if mismatch:
        idx = np.flatnonzero(~(actual == expected) |
                             (np.signbit(actual) != np.signbit(expected)))
        i = int(idx[0]) if idx.size else 0
        raise AssertionError(
            f"{what}: first mismatch at flat index {i}: "
            f"got {actual[i]!r} ({float(actual[i]).hex()}), "
            f"expected {expected[i]!r} ({float(expected[i]).hex()})")


def test_golden_file_committed(golden):
    assert set(golden) >= {"scalar", "tensor", "metadata"}
    assert golden["scalar"] and golden["tensor"] and golden["metadata"]


@pytest.mark.parametrize("spec_name", sorted(SCALAR_FORMATS))
def test_scalar_codes_pinned(golden, spec_name, dispatch):
    case = golden["scalar"][spec_name]
    spec = SCALAR_FORMATS[spec_name]
    x = _unhex(case["input_hex"])
    sign, mag = spec.encode(x)
    assert sign.ravel().tolist() == case["sign"], f"{spec_name}: sign drift"
    assert mag.ravel().tolist() == case["mag"], f"{spec_name}: code drift"
    _assert_hex_equal(spec.decode(sign, mag), case["decoded_hex"],
                      f"{spec_name} decode")


def test_tensor_formats_pinned(golden, dispatch):
    for name, case in sorted(golden["tensor"].items()):
        fmt = make_format(name)
        x = _unhex(case["input_hex"], tuple(case["shape"]))
        _assert_hex_equal(fmt.quantize_weight(x, axis=-1),
                          case["weight_hex"], f"{name} weight path")
        _assert_hex_equal(fmt.quantize_activation(x, axis=-1),
                          case["activation_hex"], f"{name} activation path")


def test_elem_em_metadata_pinned(golden, dispatch):
    case = golden["metadata"]["elem_em"]
    g = _unhex(case["input_hex"], tuple(case["shape"]))
    enc = elem_em_encode(g, sub_size=case["sub_size"], top_k=case["top_k"],
                         scale_rule=case["scale_rule"])
    assert enc.sign_codes.ravel().tolist() == case["sign"]
    assert enc.mag_codes.ravel().tolist() == case["mag"]
    assert enc.scale_exponents.ravel().tolist() == case["scale_exponents"]
    assert enc.metadata.ravel().tolist() == case["meta"], \
        "Elem-EM 2-bit metadata drift"


def test_sg_em_metadata_pinned(golden, dispatch):
    case = golden["metadata"]["sg_em"]
    g = _unhex(case["input_hex"], tuple(case["shape"]))
    enc = sg_em_encode(g, sub_size=case["sub_size"],
                       adaptive=case["adaptive"],
                       scale_rule=case["scale_rule"])
    assert enc.sign_codes.ravel().tolist() == case["sign"]
    assert enc.mag_codes.ravel().tolist() == case["mag"]
    assert enc.scale_exponents.ravel().tolist() == case["scale_exponents"]
    assert enc.sg_codes.ravel().tolist() == case["sg_codes"], \
        "Sg-EM 2-bit multiplier code drift"
