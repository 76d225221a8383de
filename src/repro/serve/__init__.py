"""Quantization serving layer (the deployment-shaped front end).

One class, :class:`QuantService`: each request is one tensor quantized
on the calling thread (bit-identical to the format's own quantizer),
weight requests are memoized, and ``packed=True`` returns
true-bit-width :class:`repro.codec.PackedTensor` containers with
measured-vs-nominal footprint reporting.

Example::

    from repro.serve import QuantService
    with QuantService("m2xfp", packed=True) as svc:
        pt = svc.quantize(weights, op="weight")
        print(svc.stats()["measured_bits_per_element"])
"""

from .service import QuantService

__all__ = ["QuantService"]
