"""repro: a full reproduction of "M2XFP: A Metadata-Augmented Microscaling
Data Format for Efficient Low-bit Quantization" (ASPLOS 2026).

Public API highlights:

* :mod:`repro.formats` — mini-float / integer scalar formats, E8M0 scales;
* :mod:`repro.mx` — MXFP4/6/8, NVFP4, SMX, MSFP and the scale rules;
* :mod:`repro.core` — the M2XFP contribution (Elem-EM, Sg-EM, hybrid format,
  EBW accounting);
* :mod:`repro.dse` — the encoding design space exploration;
* :mod:`repro.models` / :mod:`repro.eval` — the synthetic LLM substrate and
  the perplexity / task-accuracy harness;
* :mod:`repro.algos` — baseline algorithms (ANT, M-ANT, OliVe, MicroScopiQ,
  BlockDialect, QuaRot/DuQuant, MR-GPTQ);
* :mod:`repro.accel` — the accelerator model (bit-accurate PE, decode unit,
  quantization engine, cycle/energy/area models);
* :mod:`repro.experiments` — one runner per paper table/figure;
* :mod:`repro.kernels` — fast quantization kernels with bit-identical
  fast/reference dispatch;
* :mod:`repro.runner` — the sharded, cached experiment runner and the
  format catalog (``python -m repro``);
* :mod:`repro.codec` — packed-tensor codec: any catalog format serialized
  to true-bit-width bytes with bit-exact decode;
* :mod:`repro.serve` — the quantization service (one arm per format).

See README.md for the architecture map and DESIGN.md for the rationale.
"""

from .core import M2NVFP4, M2XFP, ElemEM, SgEM, m2_nvfp4, m2xfp
from .errors import ConfigError, FormatError, ReproError, ShapeError
from .mx import MXFP4, NVFP4, SMX4, TensorFormat, mxfp4, nvfp4, smx4

__version__ = "1.0.0"

__all__ = [
    "M2XFP", "M2NVFP4", "ElemEM", "SgEM", "m2xfp", "m2_nvfp4",
    "MXFP4", "NVFP4", "SMX4", "mxfp4", "nvfp4", "smx4", "TensorFormat",
    "ReproError", "FormatError", "ShapeError", "ConfigError",
    "__version__",
]
