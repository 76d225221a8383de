"""Packed-tensor codec: catalog formats serialized at true bit widths.

The rest of the library *simulates* low-bit quantization (dequantized
float64 arrays); this package makes the storage story real. A
:class:`PackedTensor` holds the element codes, the per-group scale codes
and the metadata fields of any catalog format as densely packed
bitstreams behind a self-describing header, and round-trips **bit-exactly**
through the same kernel-dispatched quantizers the experiments use.

Example::

    import numpy as np
    from repro.codec import encode, decode
    from repro.runner.formats import make_format

    fmt = make_format("m2xfp")
    w = np.random.default_rng(0).standard_normal((64, 128))
    pt = encode(fmt, w, op="weight")
    assert decode(pt).tobytes() == fmt.quantize_weight(w).tobytes()
    print(pt.bits_per_element)          # ~4.5 measured, vs fmt.weight_ebw
    blob = pt.to_bytes()                # ships as one contiguous buffer
"""

from .bitstream import bits_needed, pack_bits, packed_nbytes, unpack_bits
from .codecs import (codec_for, collect_encode_stats, decode, drop_rows,
                     encode, join_rows, slice_rows, supports)
from .container import CONTAINER_VERSION, MAGIC, PackedTensor, Stream

__all__ = [
    "encode", "decode", "join_rows", "slice_rows", "drop_rows", "codec_for",
    "supports", "collect_encode_stats",
    "PackedTensor", "Stream", "MAGIC", "CONTAINER_VERSION",
    "pack_bits", "unpack_bits", "packed_nbytes", "bits_needed",
]
