"""Per-format-family plan compilers.

Each compiler takes ``(fmt, op, geometry)`` and returns a fused
``run(x) -> dequantized`` closure — or ``None`` when the configuration
is out of its scope (the cache then records "no plan" and the entry
point stays on the legacy path). Closures capture everything the legacy
path re-derives per call: reshape geometry, boundary/threshold arrays,
candidate scale grids, subgroup index bases, resolved element kinds.
They perform *exactly* the reference arithmetic (same single-rounding
operations, same comparison and tie order, same trailing-axis
reductions), so their outputs are bit-identical to the kernel-dispatched
legacy paths — asserted format-by-format in ``tests/test_plan.py`` and
by the golden-vector conformance suite.

The families with a matching codec stream layout additionally compile a
``run_codes(x) -> CodeSpaceResult`` sibling: the same search, but
returning the element/scale/metadata *codes* the codec would re-derive
from floats, in the codec's stream order, with the dequantized tensor
left lazy (see :mod:`repro.plan.codespace` and DESIGN.md §11). The
codec's fused ``encode`` path packs these arrays directly.

Registered families (exact instance type):

* ``BlockFormat`` — MXFP4/6/8, MXINT8: fused scale + element encode.
* ``MXAnt`` / ``MXMAnt`` — per-group adaptive-type candidate loops
  (no code-space sibling: the codec has no per-group-type layout).
* ``SgEM`` — the Sg-EM (bias x multiplier) search, running-best form.
* ``SgEE`` — fixed decrements and the adaptive (bias x decrement) search.
* ``ElemEM`` (top-1) / ``ElemEE`` — fused top-element refinement.
* ``M2XFP`` — delegates to the operand-path formats above.
"""

from __future__ import annotations

import numpy as np

from ..algos.ant import ANT_TYPES, MXAnt
from ..algos.mant import MANT_TYPES, MXMAnt
from ..core.elem_em import META_BITS_PER_VALUE, ElemEM
from ..core.elem_ee import ElemEE
from ..core.m2xfp import M2XFP
from ..core.sg_em import ADAPTIVE_BIASES, SG_EM_MULTIPLIERS, SgEM
from ..core.sg_ee import SgEE, _fixed_decrements
from ..formats.e8m0 import clamp_exponent
from ..formats.floatspec import FloatSpec
from ..formats.intspec import GridSpec, IntSpec
from ..formats.registry import FP4_E2M1
from ..kernels.elem import elem_ee_select
from ..kernels.search import (candidate_search, gather_candidate_codes,
                              hierarchical_select)
from ..mx.base import BlockFormat
from ..mx.scale_rules import shared_scale_exponent
from .codespace import CodeSpaceResult, CodeStream
from .geometry import GroupGeometry
from .ops import (fp4_codes, fp4_half_ints, fp6_window_codes,
                  small_grid_encoder, subgroup_top1, tree_amax, validate_amax)

__all__ = ["EXECUTOR_COMPILERS", "compile_executor"]


def _exp2(e: np.ndarray) -> np.ndarray:
    """``2**e`` for integer exponent arrays (always exact)."""
    return np.exp2(e.astype(np.float64))


# ----------------------------------------------------------------------
# BlockFormat: plain group-wise element quantization
# ----------------------------------------------------------------------
def _compile_block(fmt: BlockFormat, op: str, geom: GroupGeometry):
    elem, rule = fmt.element, fmt.scale_rule

    if isinstance(elem, FloatSpec) and elem is FP4_E2M1:
        def run(x: np.ndarray) -> np.ndarray:
            groups = geom.pack(x)
            ax = np.abs(groups)
            amax = tree_amax(ax)
            validate_amax(amax)
            e = shared_scale_exponent(amax, elem, rule)
            ax *= _exp2(-e)[:, None]
            v = fp4_half_ints(fp4_codes(ax)).astype(np.float64)
            v *= _exp2(e - 1)[:, None]
            return geom.unpack(np.copysign(v, groups))

        def run_codes(x: np.ndarray) -> CodeSpaceResult:
            groups = geom.pack(x)
            ax = np.abs(groups)
            amax = tree_amax(ax)
            validate_amax(amax)
            e = shared_scale_exponent(amax, elem, rule)
            ax *= _exp2(-e)[:, None]
            c = fp4_codes(ax)
            elems = np.signbit(groups).astype(np.int64) << 3
            elems |= c

            def dequantize() -> np.ndarray:
                v = fp4_half_ints(c).astype(np.float64)
                v *= _exp2(e - 1)[:, None]
                return geom.unpack(np.copysign(v, groups))
            return CodeSpaceResult(
                (CodeStream("scales", e + 127, 8),
                 CodeStream("elements", elems, 4)), dequantize)
        return run, run_codes

    if isinstance(elem, FloatSpec) and elem.boundaries is not None:
        bounds, grid = elem.boundaries, elem.grid
        width = elem.total_bits
        mag_bits = elem.exp_bits + elem.man_bits

        def run(x: np.ndarray) -> np.ndarray:
            groups = geom.pack(x)
            ax = np.abs(groups)
            amax = tree_amax(ax)
            validate_amax(amax)
            e = shared_scale_exponent(amax, elem, rule)
            ax *= _exp2(-e)[:, None]
            v = grid[np.searchsorted(bounds, ax, side="left")]
            v *= _exp2(e)[:, None]
            return geom.unpack(np.copysign(v, groups))

        def run_codes(x: np.ndarray) -> CodeSpaceResult:
            groups = geom.pack(x)
            ax = np.abs(groups)
            amax = tree_amax(ax)
            validate_amax(amax)
            e = shared_scale_exponent(amax, elem, rule)
            ax *= _exp2(-e)[:, None]
            # The magnitude code IS the boundary count, so the same
            # searchsorted that feeds ``run``'s grid gather yields the
            # wire codes directly. (A masked-bit-pattern encode on the
            # float64 representation derives the same codes, but its ~30
            # elementwise passes lose to one binary search in NumPy.)
            idx = np.searchsorted(bounds, ax, side="left")
            elems = np.signbit(groups).astype(np.int64) << mag_bits
            elems |= idx

            def dequantize() -> np.ndarray:
                v = grid[idx]
                v *= _exp2(e)[:, None]
                return geom.unpack(np.copysign(v, groups))
            return CodeSpaceResult(
                (CodeStream("scales", e + 127, 8),
                 CodeStream("elements", elems, width)), dequantize)
        return run, run_codes

    if isinstance(elem, IntSpec):
        def run(x: np.ndarray) -> np.ndarray:
            groups = geom.pack(x)
            amax = tree_amax(np.abs(groups))
            validate_amax(amax)
            e = shared_scale_exponent(amax, elem, rule)
            q = elem.quantize(groups * _exp2(-e)[:, None])
            q *= _exp2(e)[:, None]
            return geom.unpack(q)

        def run_codes(x: np.ndarray) -> CodeSpaceResult:
            groups = geom.pack(x)
            amax = tree_amax(np.abs(groups))
            validate_amax(amax)
            e = shared_scale_exponent(amax, elem, rule)
            q = elem.quantize(groups * _exp2(-e)[:, None])
            elems = np.signbit(q).astype(np.int64) << (elem.bits - 1)
            elems |= np.abs(q).astype(np.int64)

            def dequantize() -> np.ndarray:
                return geom.unpack(q * _exp2(e)[:, None])
            return CodeSpaceResult(
                (CodeStream("scales", e + 127, 8),
                 CodeStream("elements", elems, elem.bits)), dequantize)
        return run, run_codes

    return None


# ----------------------------------------------------------------------
# MX-ANT / MX-M-ANT: adaptive per-group type selection
# ----------------------------------------------------------------------
def _compile_type_adaptive(fmt, op: str, geom: GroupGeometry, types):
    kernels = []
    for typ in types:
        if isinstance(typ, GridSpec):
            kernels.append((typ, small_grid_encoder(typ.grid), typ.grid))
        elif isinstance(typ, IntSpec):
            kernels.append((typ, None, None))
        else:
            return None

    def run(x: np.ndarray) -> np.ndarray:
        groups = geom.pack(x)
        n = groups.shape[0]
        amax = tree_amax(np.abs(groups))
        validate_amax(amax)
        best_err = np.full(n, np.inf)
        best_dq = np.zeros_like(groups)
        pos = amax > 0
        safe_amax = np.where(pos, amax, 1.0)
        for typ, encode, grid in kernels:
            with np.errstate(divide="ignore"):
                e = np.where(pos, np.ceil(np.log2(safe_amax / typ.max_value)),
                             0.0)
            e = np.clip(e, -127, 127)
            scaled = groups * np.exp2(-e)[:, None]
            if encode is None:
                dq = typ.quantize(scaled)
            else:
                dq = np.copysign(grid.take(encode(np.abs(scaled))), scaled)
            dq *= np.exp2(e)[:, None]
            err = np.sum((dq - groups) ** 2, axis=1)
            better = err < best_err
            best_err = np.where(better, err, best_err)
            best_dq = np.where(better[:, None], dq, best_dq)
        return geom.unpack(best_dq)
    return run


def _compile_ant(fmt: MXAnt, op: str, geom: GroupGeometry):
    return _compile_type_adaptive(fmt, op, geom, ANT_TYPES)


def _compile_mant(fmt: MXMAnt, op: str, geom: GroupGeometry):
    return _compile_type_adaptive(fmt, op, geom, MANT_TYPES)


# ----------------------------------------------------------------------
# Sg-EM / Sg-EE: subgroup metadata searches in running-best form
# ----------------------------------------------------------------------
#: Above this many candidate-elements the Sg searches switch from the
#: one-shot broadcast evaluation to the streaming per-candidate loop
#: (whose working set stays a single tensor wide).
_SG_BROADCAST_LIMIT = 1_500_000


def _bisect_threshold(r: float, bound: float) -> float:
    """Smallest float64 ``u`` with ``fl(u / r) > bound`` (bisection).

    ``u -> fl(u / r)`` is monotone and ``fl`` is exact on the probe
    values, so the flip point is a single float pinned by bit-pattern
    bisection — the same technique as
    :func:`repro.kernels.lut.compiled_thresholds`, applied to the
    division the candidate search performs.
    """
    lo = 0.0
    hi = float(np.nextafter(bound * r * 4.0, np.inf))
    while not float(np.float64(hi) / r) > bound:  # pragma: no cover
        hi *= 2.0
    lo_bits = int(np.float64(lo).view(np.uint64))
    hi_bits = int(np.float64(hi).view(np.uint64))
    while hi_bits - lo_bits > 1:
        mid_bits = (lo_bits + hi_bits) // 2
        v = float(np.uint64(mid_bits).view(np.float64))
        if float(np.float64(v) / r) > bound:
            hi_bits = mid_bits
        else:
            lo_bits = mid_bits
    return float(np.uint64(hi_bits).view(np.float64))


#: Safety floor for the u-space error equivalence: with every nonzero
#: magnitude (raw and group-normalized) at least this large and no
#: E8M0 clamping, every intermediate of the error chain is normal in
#: both spaces, so scaling by the group's power of two commutes with
#: every rounding and the u-space argmin equals the reference argmin.
_U_SPACE_MIN = 2.0 ** -400


class _SgUSpace:
    """Compile-time-scaled Sg candidate search (the small-input engine).

    Dividing the data once by ``2^(base_e - 1)`` (exact) turns every
    candidate scale ``2^(base_e + b) * m`` into the *compile-time
    scalar* ``r = 2^(b+1) * m``, so the per-candidate work collapses to
    seven compares against pre-bisected thresholds plus a scalar
    multiply — no per-group candidate arrays at all. Selection runs on
    u-space errors, which equal the reference errors times the group
    constant ``2^(2 base_e - 2)``; in the guarded regime (no E8M0
    clamping, no nonzero magnitude below ``_U_SPACE_MIN``) that scaling
    is an exact order-and-equality-preserving bijection, so the
    hierarchical argmin picks the identical candidate. Calls outside
    the guarded regime take the caller-supplied exact fallback.
    """

    def __init__(self, n_sub: int, sub: int, rule: str, biases, inner,
                 fallback, fallback_codes) -> None:
        self.n_sub, self.sub, self.rule = n_sub, sub, rule
        self.n_bias, self.n_inner = len(biases), len(inner)
        self.biases_arr = np.asarray(biases)
        self.fallback_outer = list(biases).index(0)
        self.fallback = fallback
        self.fallback_codes = fallback_codes
        bounds = FP4_E2M1.boundaries
        self.ratios = []
        thresholds = []
        for b in biases:
            for m, _ in inner:
                r = float(2.0 ** (b + 1) * m)
                self.ratios.append(r)
                thresholds.append([_bisect_threshold(r, float(bd))
                                   for bd in bounds])
        #: (n_cand * 7, 1, 1) stack for one broadcast compare per call.
        self.t_stack = np.asarray(thresholds).reshape(-1, 1, 1)
        self.half_ratios = np.asarray([r * 0.5 for r in self.ratios])

    def _eval(self, groups: np.ndarray):
        """The shared search; None when outside the guarded regime."""
        n = groups.shape[0]
        n_sub, sub = self.n_sub, self.sub
        k = n_sub * sub
        ax = np.abs(groups)
        amax = tree_amax(ax)
        validate_amax(amax)
        base_e = shared_scale_exponent(amax, FP4_E2M1, self.rule)
        if int(base_e.max(initial=0)) > 126 or \
                int(base_e.min(initial=0)) < -126 or \
                float(np.where(ax > 0.0, ax, 1.0).min(initial=1.0)) \
                < _U_SPACE_MIN:
            return None
        u = ax * _exp2(-(base_e - 1))[:, None]
        if float(np.where(u > 0.0, u, 1.0).min(initial=1.0)) < _U_SPACE_MIN:
            return None

        n_cand = self.n_bias * self.n_inner
        # One broadcast compare against all candidates' thresholds, an
        # integer reduction per 7-threshold block (order-free), then the
        # whole error chain as a handful of full-width ops.
        cmp = u.reshape(1, n, k) >= self.t_stack
        codes = np.add.reduce(
            cmp.view(np.int8).reshape(n_cand, 7, n, k), axis=1, dtype=np.int8)
        v2_all = fp4_half_ints(codes)
        qf = v2_all * self.half_ratios[:, None, None]
        qf -= u
        qf *= qf
        q4 = qf.reshape(n_cand, n, n_sub, sub)
        if sub == 8:
            # Adjacent-pair tree — the exact grouping NumPy's pairwise
            # trailing-axis sum uses for length 8 — as three adds.
            while q4.shape[-1] > 1:
                q4 = q4[..., 0::2] + q4[..., 1::2]
            esum = q4[..., 0]
        else:
            esum = q4.sum(axis=-1)
        err = np.ascontiguousarray(np.moveaxis(esum, 0, 2))

        outer, inner_idx, _ = hierarchical_select(
            err, self.n_bias, self.n_inner, fallback_outer=self.fallback_outer)
        cand_idx = (outer[:, None] * self.n_inner + inner_idx).ravel()
        return n, base_e, codes, v2_all, outer, inner_idx, cand_idx

    def __call__(self, groups: np.ndarray) -> np.ndarray:
        sel = self._eval(groups)
        if sel is None:
            return self.fallback(groups)
        n, base_e, _codes, v2_all, _outer, _inner_idx, cand_idx = sel
        n_sub, sub = self.n_sub, self.sub
        win = v2_all.reshape(-1, n * n_sub, sub)[cand_idx,
                                                 np.arange(n * n_sub)]
        s_half = self.half_ratios[cand_idx].reshape(n, n_sub) \
            * _exp2(base_e - 1)[:, None]
        dq = win.reshape(n, n_sub, sub) * s_half[:, :, None]
        return np.copysign(dq.reshape(n, n_sub * sub), groups)

    def codes(self, groups: np.ndarray):
        """Code-space twin of ``__call__``: gathers the winning magnitude
        codes instead of their half-values; dequantization stays lazy."""
        sel = self._eval(groups)
        if sel is None:
            return self.fallback_codes(groups)
        n, base_e, codes, _v2_all, outer, inner_idx, cand_idx = sel
        n_sub, sub = self.n_sub, self.sub
        k = n_sub * sub
        mag = codes.reshape(-1, n * n_sub, sub)[cand_idx,
                                                np.arange(n * n_sub)]
        elems = np.signbit(groups).astype(np.int64) << 3
        elems |= mag.reshape(n, k)
        exps = clamp_exponent(base_e + self.biases_arr[outer])
        s_half = self.half_ratios[cand_idx].reshape(n, n_sub) \
            * _exp2(base_e - 1)[:, None]

        def dequantize() -> np.ndarray:
            dq = fp4_half_ints(mag).reshape(n, n_sub, sub) \
                * s_half[:, :, None]
            return np.copysign(dq.reshape(n, k), groups)
        return elems, exps, inner_idx, dequantize


def _sg_broadcast(n_sub: int, sub: int, rule: str, biases, inner):
    """One-shot (bias x inner) candidate evaluation, small-tensor regime.

    Mirrors the ``candidate_search`` + ``hierarchical_select`` pipeline
    operation for operation — same broadcast divisions, same error
    expression, same trailing-axis sums, the selection function itself —
    with the FP4 grid gather replaced by the exact int8 half-value
    arithmetic. About 25 NumPy calls regardless of input size, which is
    what makes it several times faster than the legacy path on the
    micro-batch activations a serving front end sees.

    Returns the ``(run_groups, codes_groups)`` pair; the codes variant
    gathers the winning magnitude codes at the same indices the value
    variant gathers half-values, so both modes share one evaluation.
    """
    k = n_sub * sub
    n_inner = len(inner)
    biases_arr = np.asarray(biases)
    inner_mults = np.asarray([m for m, _ in inner])
    fallback = list(biases).index(0)

    def evaluate(groups: np.ndarray):
        n = groups.shape[0]
        ax = np.abs(groups)
        amax = tree_amax(ax)
        validate_amax(amax)
        base_e = shared_scale_exponent(amax, FP4_E2M1, rule)

        exps_all = clamp_exponent(base_e[:, None] + biases_arr)
        scales_all = np.exp2(exps_all.astype(np.float64))
        cand = (scales_all[:, :, None] * inner_mults).reshape(n, -1)
        ax4 = ax.reshape(n, n_sub, 1, sub)
        s4 = cand[:, None, :, None]
        scaled = ax4 / s4
        c = fp4_codes(scaled)
        v2 = fp4_half_ints(c)
        q = v2 * (s4 * 0.5)
        q -= ax4
        q *= q
        err = q.sum(axis=3)

        outer, inner_idx, _ = hierarchical_select(err, len(biases), n_inner,
                                                  fallback_outer=fallback)
        cand_idx = outer[:, None] * n_inner + inner_idx
        return n, c, v2, cand, exps_all, outer, inner_idx, cand_idx

    def run_groups(groups: np.ndarray) -> np.ndarray:
        n, _c, v2, cand, _exps, _outer, _inner, cand_idx = evaluate(groups)
        win = v2.reshape(n * n_sub, -1, sub)[np.arange(n * n_sub),
                                             cand_idx.ravel()]
        s_win = np.take_along_axis(cand, cand_idx, axis=1)
        dq = win.reshape(n, n_sub, sub) * (s_win * 0.5)[:, :, None]
        return np.copysign(dq.reshape(n, k), groups)

    def codes_groups(groups: np.ndarray):
        n, c, _v2, cand, exps_all, outer, inner_idx, cand_idx = \
            evaluate(groups)
        mag = c.reshape(n * n_sub, -1, sub)[np.arange(n * n_sub),
                                            cand_idx.ravel()]
        elems = np.signbit(groups).astype(np.int64) << 3
        elems |= mag.reshape(n, k)
        exps = exps_all[np.arange(n), outer]
        s_win = np.take_along_axis(cand, cand_idx, axis=1)

        def dequantize() -> np.ndarray:
            dq = fp4_half_ints(mag).reshape(n, n_sub, sub) \
                * (s_win * 0.5)[:, :, None]
            return np.copysign(dq.reshape(n, k), groups)
        return elems, exps, inner_idx, dequantize

    return run_groups, codes_groups


def _sg_search(n_sub: int, sub: int, rule: str, biases, inner):
    """Shared skeleton of the Sg-EM / Sg-EE adaptive searches.

    ``inner`` is the ordered inner-candidate spec: a list of
    ``(mult, pow2_shift)`` pairs where the candidate scale is
    ``2^e * mult`` (Sg-EM's fractional multipliers, ``pow2_shift`` None)
    or ``2^(e - d)`` (Sg-EE's decrements, ``pow2_shift = d``). Each
    candidate's scaled data is produced by the exact single-rounding
    equivalent of the reference division: a multiply by ``2^(d - e)``
    for power-of-two scales, the division itself otherwise.

    The running strict-``<`` updates reproduce the reference's
    hierarchical argmin (first minimum at both levels); groups whose
    candidates all overflow to non-finite error are re-encoded at the
    fallback (bias 0, first inner) candidate, matching
    ``hierarchical_select``'s ``invalid`` semantics.

    Returns the ``(run_groups, codes_groups)`` pair. The codes variant
    runs the same candidate grid through the chunked
    :func:`~repro.kernels.search.candidate_search` kernel (preallocated
    scratch, boundary-compare code assignment) and gathers the winning
    magnitude codes directly. Every candidate scale is a power of two
    times a small exact multiplier, so the kernel's division matches the
    streaming loop's single-rounding shortcuts bit for bit — selections,
    codes and dequantized values are identical between the two variants
    (asserted across all dispatch modes in ``tests/test_fused_pack.py``).
    """
    k = n_sub * sub
    n_inner = len(inner)
    biases_arr = np.asarray(biases)
    inner_mults = np.asarray([m for m, _ in inner])
    fallback = list(biases).index(0)

    def scaled_for(ax, t_b, e_b, scale_b, mult, shift):
        if shift is not None:
            return t_b if shift == 0 else ax * _exp2(shift - e_b)[:, None]
        return t_b if mult == 1.0 else ax / (scale_b * mult)[:, None]

    def search(groups: np.ndarray) -> np.ndarray:
        n = groups.shape[0]
        ax = np.abs(groups)
        amax = tree_amax(ax)
        validate_amax(amax)
        base_e = shared_scale_exponent(amax, FP4_E2M1, rule)
        shape_sub = (n, n_sub, sub)

        best_err = np.full(n, np.inf)
        best_v2 = np.zeros(shape_sub, dtype=np.int8)
        best_sh = np.zeros((n, n_sub))
        for bias in biases:
            e_b = clamp_exponent(base_e + bias)
            scale_b = _exp2(e_b)
            t_b = ax * _exp2(-e_b)[:, None]
            sub_err = np.full((n, n_sub), np.inf)
            sub_v2 = np.zeros(shape_sub, dtype=np.int8)
            sub_sh = np.zeros((n, n_sub))
            for mult, shift in inner:
                scaled = scaled_for(ax, t_b, e_b, scale_b, mult, shift)
                s_half = scale_b * (mult * 0.5)
                q = fp4_half_ints(fp4_codes(scaled))
                qf = q.astype(np.float64)
                qf *= s_half[:, None]
                qf -= ax
                qf *= qf
                err = qf.reshape(shape_sub).sum(axis=2)
                better = err < sub_err
                sub_err = np.where(better, err, sub_err)
                sub_v2 = np.where(better[:, :, None], q.reshape(shape_sub),
                                  sub_v2)
                sub_sh = np.where(better, s_half[:, None], sub_sh)
            group_err = sub_err.sum(axis=1)
            improved = group_err < best_err
            best_err = np.where(improved, group_err, best_err)
            best_v2 = np.where(improved[:, None, None], sub_v2, best_v2)
            best_sh = np.where(improved[:, None], sub_sh, best_sh)

        invalid = ~np.isfinite(best_err)
        if invalid.any():
            e0 = clamp_exponent(base_e[invalid] + 0)
            t0 = ax[invalid] * _exp2(-e0)[:, None]
            m0, s0 = inner[0]
            scaled0 = t0 if (s0 == 0 or m0 == 1.0) \
                else t0 / (_exp2(e0) * m0)[:, None]
            best_v2[invalid] = fp4_half_ints(fp4_codes(scaled0)) \
                .reshape(-1, n_sub, sub)
            best_sh[invalid] = (_exp2(e0) * (m0 * 0.5))[:, None]

        dq = best_v2.astype(np.float64).reshape(shape_sub)
        dq *= best_sh[:, :, None]
        return np.copysign(dq.reshape(n, k), groups)

    def search_codes(groups: np.ndarray):
        n = groups.shape[0]
        ax = np.abs(groups)
        amax = tree_amax(ax)
        validate_amax(amax)
        base_e = shared_scale_exponent(amax, FP4_E2M1, rule)
        exps_all = clamp_exponent(base_e[:, None] + biases_arr)
        cand = (_exp2(exps_all)[:, :, None] * inner_mults).reshape(n, -1)
        codes, err = candidate_search(groups.reshape(n, n_sub, sub), cand,
                                      FP4_E2M1.grid, FP4_E2M1.boundaries)
        outer, inner_idx, _ = hierarchical_select(err, len(biases), n_inner,
                                                  fallback_outer=fallback)
        mag = gather_candidate_codes(codes, outer, inner_idx, n_inner)
        elems = np.signbit(groups).astype(np.int64) << 3
        elems |= mag.reshape(n, k)
        rows = np.arange(n)
        best_e = exps_all[rows, outer]

        def dequantize() -> np.ndarray:
            # half-value x (scale / 2): the same single rounding as the
            # run variant's ``v2 * (scale_b * (mult * 0.5))``.
            s_half = cand[rows[:, None],
                          outer[:, None] * n_inner + inner_idx] * 0.5
            dq = fp4_half_ints(mag).astype(np.float64)
            dq *= s_half[:, :, None]
            return np.copysign(dq.reshape(n, k), groups)
        return elems, best_e, inner_idx, dequantize

    return search, search_codes


def _pick_sg_variant(geom: GroupGeometry, n_sub: int, sub: int, rule: str,
                     biases, inner):
    """U-space engine for small inputs, streaming loop for large ones.

    The u-space engine's rare out-of-regime calls fall back to the
    broadcast evaluation, which is exact everywhere.
    """
    cand_elems = geom.n_groups * n_sub * sub * len(biases) * len(inner)
    if cand_elems <= _SG_BROADCAST_LIMIT:
        exact_run, exact_codes = _sg_broadcast(n_sub, sub, rule, biases, inner)
        engine = _SgUSpace(n_sub, sub, rule, biases, inner,
                           fallback=exact_run, fallback_codes=exact_codes)
        return engine, engine.codes
    return _sg_search(n_sub, sub, rule, biases, inner)


def _sg_codespace(geom: GroupGeometry, search_codes, meta_width: int):
    """Wrap a Sg ``codes_groups`` closure into the codec's stream layout.

    All three Sg engines return the same ``(elems, exps, meta,
    dequantize)`` quadruple; the stream order (elements, scales, meta)
    and the ``exps + 127`` E8M0 bias match the SgEM/SgEE codecs.
    """
    def run_codes(x: np.ndarray) -> CodeSpaceResult:
        elems, exps, meta, dequantize = search_codes(geom.pack(x))
        return CodeSpaceResult(
            (CodeStream("elements", elems, 4),
             CodeStream("scales", exps + 127, 8),
             CodeStream("meta", meta, meta_width)),
            lambda: geom.unpack(dequantize()))
    return run_codes


def _compile_sg_em(fmt: SgEM, op: str, geom: GroupGeometry):
    n_sub = fmt.group_size // fmt.sub_size
    biases = list(ADAPTIVE_BIASES) if fmt.adaptive else [0]
    # Reference candidate order: bias outer (-1, 0, +1), multiplier inner.
    inner = [(m, None if m != 1.0 else 0) for m in SG_EM_MULTIPLIERS]
    search, search_codes = _pick_sg_variant(geom, n_sub, fmt.sub_size,
                                            fmt.scale_rule, biases, inner)

    def run(x: np.ndarray) -> np.ndarray:
        return geom.unpack(search(geom.pack(x)))
    return run, _sg_codespace(geom, search_codes, 2)


def _compile_sg_ee(fmt: SgEE, op: str, geom: GroupGeometry):
    n_sub = fmt.group_size // fmt.sub_size
    sub = fmt.sub_size
    d_max = (1 << fmt.meta_bits) - 1
    rule = fmt.scale_rule

    if fmt.adaptive:
        inner = [(1.0 / (1 << d), d) for d in range(d_max + 1)]
        search, search_codes = _pick_sg_variant(geom, n_sub, sub, rule,
                                                list(ADAPTIVE_BIASES), inner)

        def run(x: np.ndarray) -> np.ndarray:
            return geom.unpack(search(geom.pack(x)))
        return run, _sg_codespace(geom, search_codes, fmt.meta_bits)

    def _encode(x: np.ndarray):
        groups = geom.pack(x)
        n = groups.shape[0]
        ax = np.abs(groups)
        amax = tree_amax(ax)
        validate_amax(amax)
        e = shared_scale_exponent(amax, FP4_E2M1, rule)
        scale = _exp2(e)
        subs = groups.reshape(n, n_sub, sub)
        decs = _fixed_decrements(subs, scale, d_max)
        # local = 2^e / 2^d: power-of-two, so scaling by its reciprocal
        # is the same correctly-rounded division, bit for bit.
        axs = ax.reshape(n, n_sub, sub) * _exp2(decs - e[:, None])[:, :, None]
        return groups, n, e, decs, fp4_codes(axs)

    def run(x: np.ndarray) -> np.ndarray:
        groups, n, e, decs, c = _encode(x)
        v = fp4_half_ints(c).astype(np.float64)
        v *= _exp2(e[:, None] - decs - 1)[:, :, None]
        return geom.unpack(np.copysign(v.reshape(n, n_sub * sub), groups))

    def run_codes(x: np.ndarray) -> CodeSpaceResult:
        groups, n, e, decs, c = _encode(x)
        elems = np.signbit(groups).astype(np.int64) << 3
        elems |= c.reshape(n, n_sub * sub)

        def dequantize() -> np.ndarray:
            v = fp4_half_ints(c).astype(np.float64)
            v *= _exp2(e[:, None] - decs - 1)[:, :, None]
            return geom.unpack(np.copysign(v.reshape(n, n_sub * sub),
                                           groups))
        return CodeSpaceResult(
            (CodeStream("elements", elems, 4),
             CodeStream("scales", e + 127, 8),
             CodeStream("meta", decs, fmt.meta_bits)), dequantize)
    return run, run_codes


# ----------------------------------------------------------------------
# Elem-EM / Elem-EE: fused top-element refinement
# ----------------------------------------------------------------------
def _compile_elem_em(fmt: ElemEM, op: str, geom: GroupGeometry):
    if fmt.top_k != 1:
        return None
    sub = fmt.sub_size
    n_sub_total = geom.n_groups * (fmt.group_size // sub)
    flat_base = np.arange(n_sub_total) * sub
    rule = fmt.scale_rule

    def _encode(x: np.ndarray):
        groups = geom.pack(x)
        n, k = groups.shape
        ax = np.abs(groups)
        amax = tree_amax(ax)
        validate_amax(amax)
        e = shared_scale_exponent(amax, FP4_E2M1, rule)
        ax *= _exp2(-e)[:, None]
        c = fp4_codes(ax)
        top = subgroup_top1(c.reshape(n, k // sub, sub))
        flat = flat_base + top.ravel()
        meta, refined2 = fp6_window_codes(ax.reshape(-1)[flat],
                                          c.reshape(-1)[flat]
                                          .astype(np.int64))
        return groups, n, e, c, flat, meta, refined2

    def _finish(groups, n, e, c, flat, refined2) -> np.ndarray:
        v = fp4_half_ints(c).astype(np.float64)
        v.reshape(-1)[flat] = refined2
        v *= _exp2(e - 1)[:, None]
        np.copysign(v, groups, out=v)
        return geom.unpack(v)

    def run(x: np.ndarray) -> np.ndarray:
        groups, n, e, c, flat, _meta, refined2 = _encode(x)
        return _finish(groups, n, e, c, flat, refined2)

    def run_codes(x: np.ndarray) -> CodeSpaceResult:
        groups, n, e, c, flat, meta, refined2 = _encode(x)
        elems = np.signbit(groups).astype(np.int64) << 3
        elems |= c
        return CodeSpaceResult(
            (CodeStream("elements", elems, 4),
             CodeStream("scales", e + 127, 8),
             CodeStream("meta", meta, META_BITS_PER_VALUE)),
            lambda: _finish(groups, n, e, c, flat, refined2))
    return run, run_codes


def _compile_elem_ee(fmt: ElemEE, op: str, geom: GroupGeometry):
    sub = fmt.sub_size
    n_sub_total = geom.n_groups * (fmt.group_size // sub)
    flat_base = np.arange(n_sub_total) * sub
    o_max = (1 << fmt.meta_bits) - 1
    rule = fmt.scale_rule

    def _encode(x: np.ndarray):
        groups = geom.pack(x)
        n, k = groups.shape
        ax = np.abs(groups)
        amax = tree_amax(ax)
        validate_amax(amax)
        e = shared_scale_exponent(amax, FP4_E2M1, rule)
        ax *= _exp2(-e)[:, None]
        c = fp4_codes(ax)
        top = subgroup_top1(c.reshape(n, k // sub, sub))
        flat = flat_base + top.ravel()
        top_val = np.copysign(ax.reshape(-1)[flat],
                              np.asarray(groups).reshape(-1)[flat])
        ref_codes, cand, pick = elem_ee_select(top_val, o_max, FP4_E2M1)
        return groups, n, e, c, flat, ref_codes, cand, pick

    def _finish(groups, n, e, c, flat, cand, pick) -> np.ndarray:
        v = fp4_half_ints(c).astype(np.float64)
        best = np.take_along_axis(cand, pick[..., None], axis=-1)[..., 0]
        v.reshape(-1)[flat] = np.abs(best) * 2.0
        v *= _exp2(e - 1)[:, None]
        np.copysign(v, groups, out=v)
        return geom.unpack(v)

    def run(x: np.ndarray) -> np.ndarray:
        groups, n, e, c, flat, _ref, cand, pick = _encode(x)
        return _finish(groups, n, e, c, flat, cand, pick)

    def run_codes(x: np.ndarray) -> CodeSpaceResult:
        groups, n, e, c, flat, ref_codes, cand, pick = _encode(x)
        elems = np.signbit(groups).astype(np.int64) << 3
        elems |= c
        refined = np.take_along_axis(ref_codes, pick[..., None],
                                     axis=-1)[..., 0]
        return CodeSpaceResult(
            (CodeStream("elements", elems, 4),
             CodeStream("scales", e + 127, 8),
             CodeStream("meta", pick, fmt.meta_bits),
             CodeStream("refined", refined, 3)),
            lambda: _finish(groups, n, e, c, flat, cand, pick))
    return run, run_codes


# ----------------------------------------------------------------------
# M2XFP: delegate to the operand-path formats
# ----------------------------------------------------------------------
def _compile_m2xfp(fmt: M2XFP, op: str, geom: GroupGeometry):
    inner = fmt.weight_format if op == "weight" else fmt.activation_format
    return compile_executor(inner, op, geom)


#: Exact instance type -> compiler. Subclasses do not inherit an entry:
#: an unknown subclass may override the semantics the executor fuses.
EXECUTOR_COMPILERS = {
    BlockFormat: _compile_block,
    MXAnt: _compile_ant,
    MXMAnt: _compile_mant,
    SgEM: _compile_sg_em,
    SgEE: _compile_sg_ee,
    ElemEM: _compile_elem_em,
    ElemEE: _compile_elem_ee,
    M2XFP: _compile_m2xfp,
}


def compile_executor(fmt, op: str, geom: GroupGeometry):
    """The ``(run, run_codes)`` pair for ``fmt``/``op``.

    ``run`` is the fused dequantizing closure (or None when the
    configuration is out of scope); ``run_codes`` is the code-space
    sibling, None for the families without a codec stream layout.
    """
    compiler = EXECUTOR_COMPILERS.get(type(fmt))
    if compiler is None:
        return None, None
    compiled = compiler(fmt, op, geom)
    if compiled is None:
        return None, None
    if isinstance(compiled, tuple):
        return compiled
    return compiled, None
