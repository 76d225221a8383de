"""Quickstart: quantize a tensor with M2XFP and compare against MXFP4/NVFP4.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import M2XFP, MXFP4, NVFP4
from repro.codec import encode
from repro.models.tensors import OutlierSpec, outlier_matrix


def main() -> None:
    rng = np.random.default_rng(0)
    # An LLM-like weight matrix: light-tailed bulk + rare extreme channels.
    w = outlier_matrix(256, 512, OutlierSpec(outlier_rate=0.01,
                                             outlier_scale=16.0), rng)

    print("format          EBW   relative MSE")
    for fmt in (MXFP4(), NVFP4(), M2XFP()):
        dq = fmt.quantize_weight(w, axis=-1)
        mse = np.mean((dq - w) ** 2) / np.mean(w ** 2)
        print(f"{fmt.name:14s} {fmt.ebw:5.3f}   {mse:.5f}")

    # The activation path is Algorithm 1: online, bit-exact, packable
    # into the Sec. 5.2 layout (FP4 codes, E8M0 scales, 2-bit metadata).
    acts = rng.standard_normal((4, 32)) * 3
    packed = encode(M2XFP(), acts, op="activation")
    print(f"\npacked activation tensor: {packed.payload_bytes} bytes "
          f"({packed.bits_per_element} bits/element)")
    print(f"metadata stream: {packed.stream('meta').data.hex()}")


if __name__ == "__main__":
    main()
