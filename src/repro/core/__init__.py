"""The paper's primary contribution: metadata-augmented MX quantization."""

from .ebw import ebw
from .elem_ee import ElemEE, elem_ee_quantize_groups
from .elem_em import (ElemEM, ElemEMEncoding, elem_em_decode, elem_em_encode,
                      elem_em_quantize_groups)
from .m2xfp import M2NVFP4, M2XFP, m2_nvfp4, m2xfp
from .sg_ee import SgEE, SgEEEncoding, sg_ee_decode, sg_ee_encode, sg_ee_quantize_groups
from .sg_em import (SG_EM_MULTIPLIERS, SgEM, SgEMEncoding, sg_em_decode,
                    sg_em_encode, sg_em_quantize_groups)

__all__ = [
    "ElemEM", "ElemEMEncoding", "elem_em_encode", "elem_em_decode",
    "elem_em_quantize_groups",
    "SgEM", "SgEMEncoding", "sg_em_encode", "sg_em_decode",
    "sg_em_quantize_groups", "SG_EM_MULTIPLIERS",
    "SgEE", "SgEEEncoding", "sg_ee_encode", "sg_ee_decode",
    "sg_ee_quantize_groups",
    "ElemEE", "elem_ee_quantize_groups",
    "M2XFP", "M2NVFP4", "m2xfp", "m2_nvfp4",
    "ebw",
]
