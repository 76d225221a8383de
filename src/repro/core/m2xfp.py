"""The M2XFP hybrid format (Sec. 4.3) and its NVFP4 extension (Tbl. 6).

M2XFP assigns different metadata strategies to the two GEMM operands:

* **weights** (static, quantized offline): Sg-EM — 2-bit subgroup scale
  refinement with the adaptive shared-scale search of Eq. 4;
* **activations** (dynamic, quantized online): Elem-EM top-1 — 2 bits of
  extra FP6 mantissa for the largest element of each subgroup, encoded with
  the bias-clamp trick of Algorithm 1.

With the paper's configuration (group 32, subgroup 8) both sides cost
0.25 metadata bits per element, for an effective 4.5-bit format.

``M2NVFP4`` applies the same two strategies on top of NVFP4's two-level
(E4M3 group x FP32 tensor) scaling, reproducing Tbl. 6.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from ..formats.floatspec import quantize_to_grid
from ..formats.grouping import from_groups, to_groups
from ..formats.registry import FP4_E2M1, FP6_E2M3
from ..mx.base import TensorFormat
from ..mx.nvfp import NVFP4
from .elem_em import META_BITS_PER_VALUE, ElemEM
from .sg_em import SG_EM_MULTIPLIERS, SgEM

__all__ = ["M2XFP", "M2NVFP4", "m2xfp", "m2_nvfp4"]


class M2XFP(TensorFormat):
    """Hybrid metadata-augmented MX format: Sg-EM weights, Elem-EM activations."""

    def __init__(self, group_size: int = 32, sub_size: int = 8, top_k: int = 1,
                 adaptive: bool = True, scale_rule: str = "floor") -> None:
        self.group_size = int(group_size)
        self.sub_size = int(sub_size)
        self.weight_format = SgEM(group_size, sub_size, adaptive=adaptive,
                                  scale_rule=scale_rule)
        self.activation_format = ElemEM(group_size, sub_size, top_k=top_k,
                                        scale_rule=scale_rule)
        self.name = f"m2xfp-g{group_size}s{sub_size}"

    @property
    def ebw(self) -> float:
        """Storage cost of the more expensive operand path.

        With the paper's default configuration (group 32, subgroup 8,
        top-1) the Sg-EM weight path and the Elem-EM activation path both
        cost 4.5 bits, so the ``max`` is degenerate; asymmetric
        configurations (e.g. ``top_k=2``) make the two diverge, which is
        why :attr:`weight_ebw` and :attr:`activation_ebw` are reported
        separately in ``__repr__`` and the experiment notes.
        """
        return max(self.weight_format.ebw, self.activation_format.ebw)

    @property
    def weight_ebw(self) -> float:
        return self.weight_format.ebw

    @property
    def activation_ebw(self) -> float:
        return self.activation_format.ebw

    def __repr__(self) -> str:
        return (f"<{type(self).__name__} {self.name} ebw={self.ebw:.4g} "
                f"(weight={self.weight_ebw:.4g}, "
                f"activation={self.activation_ebw:.4g})>")

    def quantize(self, x: np.ndarray, axis: int = -1) -> np.ndarray:
        """Default to the online (activation) path."""
        return self.activation_format.quantize(x, axis=axis)

    def quantize_weight(self, w: np.ndarray, axis: int = -1) -> np.ndarray:
        # Via the operand format's entry point so the plan cache applies.
        return self.weight_format.quantize_weight(w, axis=axis)

    def quantize_activation(self, x: np.ndarray, axis: int = -1) -> np.ndarray:
        return self.activation_format.quantize_activation(x, axis=axis)


def _fp6_top1_refine(scaled: np.ndarray, sub_size: int) -> np.ndarray:
    """Elem-EM top-1 refinement in already-scaled space (code-exact)."""
    n, k = scaled.shape
    n_sub = k // sub_size
    sign, mag = FP4_E2M1.encode(scaled)
    dq = FP4_E2M1.decode(sign, mag)

    mag_sub = mag.reshape(n, n_sub, sub_size)
    top_idx = np.argmax(mag_sub, axis=2)[:, :, None]
    abs_sub = np.abs(scaled).reshape(n, n_sub, sub_size)
    top_abs = np.take_along_axis(abs_sub, top_idx, axis=2)
    fp6 = quantize_to_grid(top_abs, FP6_E2M3.grid)
    fp4_top = np.take_along_axis(mag_sub, top_idx, axis=2)
    lo = fp4_top << META_BITS_PER_VALUE
    meta = np.clip(fp6 + 1, lo, lo + 3) - lo
    decoded = np.clip((lo | meta) - 1, 0, FP6_E2M3.code_count - 1)
    refined = FP6_E2M3.grid[decoded]
    sign_sub = sign.reshape(n, n_sub, sub_size)
    top_sign = np.take_along_axis(sign_sub, top_idx, axis=2)
    out = dq.reshape(n, n_sub, sub_size).copy()
    np.put_along_axis(out, top_idx, np.where(top_sign != 0, -refined, refined), axis=2)
    return out.reshape(n, k)


class M2NVFP4(TensorFormat):
    """M2XFP's metadata strategies applied over NVFP4 scaling.

    Group 16 with subgroup 4 gives 2 metadata bits per 4 elements, so the
    effective bit width rises from NVFP4's 4.5 to 5.0 — matching the cost
    the paper reports for this extension.
    """

    def __init__(self, group_size: int = 16, sub_size: int = 4,
                 adaptive: bool = True) -> None:
        if group_size % sub_size != 0:
            raise ShapeError("group size must be a multiple of the subgroup size")
        self.group_size = int(group_size)
        self.sub_size = int(sub_size)
        self.adaptive = bool(adaptive)
        self.base = NVFP4(group_size)
        self.name = f"m2-nvfp4-g{group_size}s{sub_size}"

    @property
    def meta_bits_per_group(self) -> int:
        """2 bits per subgroup on either operand path."""
        return 2 * (self.group_size // self.sub_size)

    @property
    def ebw(self) -> float:
        return self.base.ebw + self.meta_bits_per_group / self.group_size

    def _scaled_groups(self, x: np.ndarray, axis: int):
        groups, view = to_groups(x, self.group_size, axis=axis)
        detail = self.base.quantize_detailed(groups, axis=-1)
        scales = np.where(detail.scales > 0, detail.scales, 1.0)
        return groups, view, scales

    def quantize_activation(self, x: np.ndarray, axis: int = -1) -> np.ndarray:
        """Elem-EM top-1 over the NVFP4 scale (plan-routed, like
        :meth:`TensorFormat.quantize_activation`; this body is the
        reference)."""
        from ..plan import lookup_plan
        plan = lookup_plan(self, "activation", x, axis)
        if plan is not None:
            return plan.run(x)
        groups, view, scales = self._scaled_groups(x, axis)
        dq = _fp6_top1_refine(groups / scales[:, None], self.sub_size)
        return from_groups(dq * scales[:, None], view)

    def quantize_weight(self, w: np.ndarray, axis: int = -1) -> np.ndarray:
        """Sg-EM multiplier search (plus exponent bias) over the NVFP4
        scale (plan-routed; this body is the reference)."""
        from ..plan import lookup_plan
        plan = lookup_plan(self, "weight", w, axis)
        if plan is not None:
            return plan.run(w)
        groups, view, scales = self._scaled_groups(w, axis)
        n, k = groups.shape
        n_sub = k // self.sub_size
        subs = groups.reshape(n, n_sub, self.sub_size)
        biases = (0.5, 1.0, 2.0) if self.adaptive else (1.0,)
        best_err = np.full(n, np.inf)
        best_dq = np.zeros_like(subs)
        for bias in biases:
            sub_err = np.full((n, n_sub), np.inf)
            sub_dq = np.zeros_like(subs)
            for mult in SG_EM_MULTIPLIERS:
                s = (scales * bias)[:, None, None] * mult
                q = FP4_E2M1.quantize(subs / s) * s
                with np.errstate(over="ignore"):  # inf error: never taken
                    err = np.sum((q - subs) ** 2, axis=2)
                better = err < sub_err
                sub_err = np.where(better, err, sub_err)
                sub_dq = np.where(better[:, :, None], q, sub_dq)
            group_err = np.sum(sub_err, axis=1)
            improved = group_err < best_err
            best_err = np.where(improved, group_err, best_err)
            best_dq = np.where(improved[:, None, None], sub_dq, best_dq)
        return from_groups(best_dq.reshape(n, k), view)

    def quantize(self, x: np.ndarray, axis: int = -1) -> np.ndarray:
        return self.quantize_activation(x, axis=axis)


#: The paper's standard M2XFP configuration (group 32, subgroup 8, top-1).
m2xfp = M2XFP()

#: The Tbl. 6 extension of NVFP4 with M2XFP metadata.
m2_nvfp4 = M2NVFP4()
