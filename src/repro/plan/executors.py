"""Per-format-family plan compilers.

Each compiler takes ``(fmt, op, geometry)`` and returns a
``(run, run_codes)`` pair, or ``None`` when the configuration is out of
its scope (the cache then records "no plan": the format's entry points
keep their own ``quantize`` and :func:`repro.codec.encode` refuses it).
Closures capture everything a quantize call otherwise re-derives per
call: reshape geometry, boundary/threshold arrays, candidate scale
grids, subgroup index bases, resolved element kinds. They perform
*exactly* the reference arithmetic (same single-rounding operations,
same comparison and tie order, same trailing-axis reductions), so
``run``'s output is bit-identical to the format's own quantize —
asserted format-by-format in ``tests/test_plan.py`` and by the
golden-vector conformance suite.

``run_codes(x) -> CodeSpaceResult`` is the same search returning the
element/scale/metadata *codes* the format stores, in its codec's stream
order, with the dequantized tensor left lazy (see
:mod:`repro.plan.codespace` and DESIGN.md §11). It is the only encoder:
:func:`repro.codec.encode` packs these arrays directly, under either
dispatch mode.

Registered families (exact instance type):

* ``BlockFormat`` — MXFP4/6/8, MXINT8: fused scale + element encode.
* ``GroupFP4`` — FP4 elements under an FP16 group scale ``amax / 6``.
* ``MSFP`` — INT mantissas under the ceil-rule shared exponent.
* ``SMX`` — INT mantissas, E8M0 scale and a 1-bit micro-exponent per
  subgroup.
* ``MXAnt`` / ``MXMAnt`` — per-group adaptive-type candidate loops
  (``run`` only: the codec has no per-group-type layout).
* ``SgEM`` — the Sg-EM (bias x multiplier) search: one row-chunked
  u-space engine, with the ``candidate_search`` kernel as its exact
  fallback.
* ``SgEE`` — fixed decrements, and the adaptive (bias x decrement)
  search on the same engine.
* ``ElemEM`` (top-1) / ``ElemEE`` — fused top-element refinement.
* ``M2XFP`` — delegates to the operand-path formats above.
* ``NVFP4`` — two-level scaling: the E4M3 group scale from the E4M3
  boundaries, a true division by that non-power-of-two scale, FP4
  codes; ``run`` also takes a calibrated ``tensor_amax``. The
  code-space result carries the tensor scale as a header scalar
  (``CodeSpaceResult.extra``). ``run_codes(x, blocks)`` takes one
  tensor scale per each of ``blocks`` equal row blocks, and then
  carries one scale per row: a KV append encodes its stacked K and V
  rows in one call.
* ``M2NVFP4`` — the same scales with Elem-EM top-1 refinement
  (activations) or the bias x multiplier search on the exact
  ``candidate_search`` kernel (weights).
* ``MaxPreserving`` — the inner format's plan, with each group's
  maximum restored as an FP16 value plus its index.
* ``Fp16Format`` — the identity: IEEE float16 words when the tensor is
  exactly fp16-representable, else raw float64 words.
"""

from __future__ import annotations

import numpy as np

from ..algos.ant import ANT_TYPES, MXAnt
from ..algos.mant import MANT_TYPES, MXMAnt
from ..core.elem_em import META_BITS_PER_VALUE, ElemEM
from ..core.elem_ee import ElemEE
from ..core.m2xfp import M2NVFP4, M2XFP
from ..core.sg_em import ADAPTIVE_BIASES, SG_EM_MULTIPLIERS, SgEM
from ..core.sg_ee import SgEE, _fixed_decrements
from ..errors import CodecError
from ..formats.e8m0 import clamp_exponent
from ..formats.floatspec import FloatSpec
from ..formats.intspec import GridSpec, IntSpec
from ..formats.registry import FP4_E2M1, FP8_E4M3, FP16
from ..kernels.search import (_CHUNK_ELEMS, candidate_search,
                              gather_candidate_codes, hierarchical_select)
from ..models.quantized import Fp16Format
from ..mx.base import MIN_POW2_SCALE, BlockFormat
from ..mx.fp_group import GroupFP4
from ..mx.max_preserve import MaxPreserving
from ..mx.msfp import MSFP
from ..mx.nvfp import NVFP4
from ..mx.smx import SMX
from ..mx.scale_rules import shared_scale_exponent
from .codespace import CodeSpaceResult, CodeStream
from .geometry import GroupGeometry
from .ops import (elem_ee_select, fp4_codes, fp4_half_ints, fp6_window_codes,
                  small_grid_encoder, subgroup_top1, tree_amax, validate_amax)

__all__ = ["EXECUTOR_COMPILERS", "compile_executor", "tensor_scoped"]


def _exp2(e: np.ndarray) -> np.ndarray:
    """``2**e`` for integer exponent arrays (always exact)."""
    return np.exp2(e.astype(np.float64))


def _sign_codes(groups: np.ndarray, mag) -> np.ndarray:
    """FP4 element codes ``sign << 3 | magnitude``."""
    elems = np.signbit(groups).astype(np.int64) << 3
    elems |= mag
    return elems


def _int_codes(q: np.ndarray, bits: int) -> np.ndarray:
    """Sign-magnitude codes ``sign << (bits - 1) | |q|`` of the integer
    grid values ``q`` (-0.0 keeps its sign bit)."""
    elems = np.signbit(q).astype(np.int64) << (bits - 1)
    elems |= np.abs(q).astype(np.int64)
    return elems


def _e8m0_codes(e: np.ndarray) -> np.ndarray:
    """E8M0 scale bytes (bias 127) of integer-valued exponents ``e``.

    The container stores E8M0-range scales only, so an exponent outside
    ``[-127, 127]`` (which the formats with an unclamped exponent rule,
    MSFP and SMX, reach on extreme magnitudes) is a :class:`CodecError`.
    """
    ei = e.astype(np.int64)
    if ei.size and (ei.min() < -127 or ei.max() > 127):
        raise CodecError("scale exponent outside the E8M0 range "
                         f"[{ei.min()}, {ei.max()}]; the container stores "
                         "E8M0-range scales only")
    return ei + 127


def _fp4_scaled_finish(geom: GroupGeometry, groups: np.ndarray,
                       safe: np.ndarray, live: np.ndarray,
                       c: np.ndarray) -> np.ndarray:
    """Dequantize FP4 codes ``c`` under the (not power-of-two) group
    scales ``safe``; a group whose scale rounded to 0 (``~live``)
    dequantizes to +0.0."""
    v = fp4_half_ints(c).astype(np.float64)
    v *= 0.5            # the exact FP4 grid values
    v *= safe[:, None]
    np.copysign(v, groups, out=v)
    if not live.all():
        v[~live] = 0.0
    return geom.unpack(v)


# ----------------------------------------------------------------------
# BlockFormat: plain group-wise element quantization
# ----------------------------------------------------------------------
def _compile_block(fmt: BlockFormat, op: str, geom: GroupGeometry):
    elem, rule = fmt.element, fmt.scale_rule

    def _scaled(x: np.ndarray):
        """``(groups, |groups| / 2**e, e)``: the groups under the shared
        scale exponent ``e`` the format's rule picks."""
        groups = geom.pack(x)
        ax = np.abs(groups)
        amax = tree_amax(ax)
        validate_amax(amax)
        e = shared_scale_exponent(amax, elem, rule)
        ax *= _exp2(-e)[:, None]
        return groups, ax, e

    if isinstance(elem, FloatSpec) and elem is FP4_E2M1:
        def _encode(x: np.ndarray):
            groups, ax, e = _scaled(x)
            return groups, e, fp4_codes(ax)

        def _finish(groups, e, c) -> np.ndarray:
            v = fp4_half_ints(c).astype(np.float64)
            v *= _exp2(e - 1)[:, None]
            return geom.unpack(np.copysign(v, groups))

        def run(x: np.ndarray) -> np.ndarray:
            return _finish(*_encode(x))

        def run_codes(x: np.ndarray) -> CodeSpaceResult:
            groups, e, c = _encode(x)
            return CodeSpaceResult(
                (CodeStream("scales", e + 127, 8),
                 CodeStream("elements", _sign_codes(groups, c), 4)),
                lambda: _finish(groups, e, c))
        return run, run_codes

    if isinstance(elem, FloatSpec) and elem.boundaries is not None:
        bounds, grid = elem.boundaries, elem.grid
        width = elem.total_bits
        mag_bits = elem.exp_bits + elem.man_bits

        def _encode(x: np.ndarray):
            # The magnitude code IS the boundary count, so one
            # searchsorted yields both the grid index and the wire code.
            # (A masked-bit-pattern encode on the float64 representation
            # derives the same codes, but its ~30 elementwise passes lose
            # to one binary search in NumPy.)
            groups, ax, e = _scaled(x)
            return groups, e, np.searchsorted(bounds, ax, side="left")

        def _finish(groups, e, idx) -> np.ndarray:
            v = grid[idx]
            v *= _exp2(e)[:, None]
            return geom.unpack(np.copysign(v, groups))

        def run(x: np.ndarray) -> np.ndarray:
            return _finish(*_encode(x))

        def run_codes(x: np.ndarray) -> CodeSpaceResult:
            groups, e, idx = _encode(x)
            elems = np.signbit(groups).astype(np.int64) << mag_bits
            elems |= idx
            return CodeSpaceResult(
                (CodeStream("scales", e + 127, 8),
                 CodeStream("elements", elems, width)),
                lambda: _finish(groups, e, idx))
        return run, run_codes

    if isinstance(elem, IntSpec):
        def _encode(x: np.ndarray):
            groups = geom.pack(x)
            amax = tree_amax(np.abs(groups))
            validate_amax(amax)
            e = shared_scale_exponent(amax, elem, rule)
            return e, elem.quantize(groups * _exp2(-e)[:, None])

        def _finish(e, q) -> np.ndarray:
            q *= _exp2(e)[:, None]
            return geom.unpack(q)

        def run(x: np.ndarray) -> np.ndarray:
            return _finish(*_encode(x))

        def run_codes(x: np.ndarray) -> CodeSpaceResult:
            e, q = _encode(x)
            return CodeSpaceResult(
                (CodeStream("scales", e + 127, 8),
                 CodeStream("elements", _int_codes(q, elem.bits),
                            elem.bits)),
                lambda: _finish(e, q))
        return run, run_codes

    return None


# ----------------------------------------------------------------------
# GroupFP4 / MSFP / SMX: block formats with their own scale rules
# ----------------------------------------------------------------------
def _compile_group_fp4(fmt: GroupFP4, op: str, geom: GroupGeometry):
    emax = fmt.element.max_value
    bounds, grid = FP16.boundaries, FP16.grid

    def _encode(x: np.ndarray):
        """``(groups, scale codes, safe, live, FP4 codes)``: the FP16
        scale ``amax / 6`` as one boundary search, 1.0 where it rounds
        to 0, and a true division by it."""
        groups = geom.pack(x)
        ax = np.abs(groups)
        amax = tree_amax(ax)
        validate_amax(amax)
        s_codes = np.searchsorted(bounds, amax / emax, side="left")
        scales = grid[s_codes]
        live = scales > 0
        safe = np.where(live, scales, 1.0)
        ax /= safe[:, None]
        return groups, s_codes, safe, live, fp4_codes(ax)

    def run(x: np.ndarray) -> np.ndarray:
        groups, _s, safe, live, c = _encode(x)
        return _fp4_scaled_finish(geom, groups, safe, live, c)

    def run_codes(x: np.ndarray) -> CodeSpaceResult:
        groups, s_codes, safe, live, c = _encode(x)
        return CodeSpaceResult(
            (CodeStream("scales", s_codes, FP16.total_bits),
             CodeStream("elements", _sign_codes(groups, c), 4)),
            lambda: _fp4_scaled_finish(geom, groups, safe, live, c))
    return run, run_codes


def _compile_msfp(fmt: MSFP, op: str, geom: GroupGeometry):
    elem = fmt.element
    imax = elem.max_value

    def _exponents(x: np.ndarray):
        """``(groups, e)``: MSFP's ceil-rule exponent, not clamped to
        the E8M0 range, only floored at ``MIN_POW2_SCALE``'s."""
        groups = geom.pack(x)
        amax = tree_amax(np.abs(groups))
        validate_amax(amax)
        pos = amax > 0
        ratio = np.maximum(np.where(pos, amax, 1.0) / imax, MIN_POW2_SCALE)
        e = np.where(pos, np.ceil(np.log2(ratio)), 0.0)
        return groups, e

    def _quantize(groups: np.ndarray, e: np.ndarray):
        """``(q, scales)``: the integer values and ``(n, 1)`` scales. A
        true division: outside the E8M0 range the reciprocal scale can
        overflow, so a multiply would not be exact."""
        scales = np.exp2(e)[:, None]
        return elem.quantize(groups / scales), scales

    def run(x: np.ndarray) -> np.ndarray:
        q, scales = _quantize(*_exponents(x))
        return geom.unpack(q * scales)

    def run_codes(x: np.ndarray) -> CodeSpaceResult:
        groups, e = _exponents(x)
        codes = _e8m0_codes(e)
        q, scales = _quantize(groups, e)
        return CodeSpaceResult(
            (CodeStream("scales", codes, 8),
             CodeStream("elements", _int_codes(q, elem.bits), elem.bits)),
            lambda: geom.unpack(q * scales))
    return run, run_codes


def _compile_smx(fmt: SMX, op: str, geom: GroupGeometry):
    elem = fmt.element
    imax = elem.max_value
    p = 2.0 ** np.floor(np.log2(imax))
    sub = fmt.sub_size
    n_sub = fmt.group_size // sub

    def _exponents(x: np.ndarray):
        """``(groups, e)``: SMX's floor-rule exponent, not clamped to
        the E8M0 range, only floored at ``MIN_POW2_SCALE``'s."""
        groups = geom.pack(x)
        amax = tree_amax(np.abs(groups))
        validate_amax(amax)
        pos = amax > 0
        ratio = np.maximum(np.where(pos, amax, 1.0) / p, MIN_POW2_SCALE)
        e = np.where(pos, np.floor(np.log2(ratio)), 0.0)
        return groups, e

    def _quantize(groups: np.ndarray, e: np.ndarray):
        """``SMX.quantize_groups`` up to its integer values: ``(micro,
        q, local)``."""
        scales = np.exp2(e)
        pairs = groups.reshape(-1, n_sub, sub)
        pair_max = np.max(np.abs(pairs), axis=2)
        micro = ((pair_max <= scales[:, None] * imax / 2.0)
                 & (scales > MIN_POW2_SCALE)[:, None]).astype(np.float64)
        local = scales[:, None] / np.exp2(micro)
        return micro, elem.quantize(pairs / local[:, :, None]), local

    def _finish(q: np.ndarray, local: np.ndarray) -> np.ndarray:
        return geom.unpack((q * local[:, :, None]).reshape(-1, n_sub * sub))

    def run(x: np.ndarray) -> np.ndarray:
        _micro, q, local = _quantize(*_exponents(x))
        return _finish(q, local)

    def run_codes(x: np.ndarray) -> CodeSpaceResult:
        groups, e = _exponents(x)
        codes = _e8m0_codes(e)
        micro, q, local = _quantize(groups, e)
        return CodeSpaceResult(
            (CodeStream("scales", codes, 8),
             CodeStream("meta", micro.astype(np.int64), 1),
             CodeStream("elements", _int_codes(q, elem.bits), elem.bits)),
            lambda: _finish(q, local))
    return run, run_codes


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
# Sg-EM / Sg-EE: one row-chunked u-space subgroup search
# ----------------------------------------------------------------------
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
    """The Sg (bias x inner multiplier) candidate search.

    ``mults`` are the inner candidates' scale multipliers: Sg-EM's
    fractional multipliers, or ``2^-d`` for Sg-EE's decrements; the
    candidate scale is ``2^(base_e + b) * m``.

    Dividing the data once by ``2^(base_e - 1)`` (exact) turns every
    candidate scale into the *compile-time scalar* ``r = 2^(b+1) * m``,
    so the per-candidate work collapses to seven compares against
    pre-bisected thresholds plus a scalar multiply — no per-group
    candidate arrays at all. Selection runs on u-space errors, which
    equal the reference errors times the group constant
    ``2^(2 base_e - 2)``; in the guarded regime (no E8M0 clamping, no
    nonzero magnitude below ``_U_SPACE_MIN``) that scaling is an exact
    order-and-equality-preserving bijection, so the hierarchical argmin
    picks the identical candidate.

    The regime is decided once per call, over the whole input. Inside
    it, the candidate-heavy part (compares, code reduction, error chain,
    selection, winner gather) runs over row chunks of about
    ``_CHUNK_ELEMS`` candidate-elements, so its working set stays
    cache-sized; every reduction and selection is per group, so no sum
    crosses a chunk boundary and chunking is exact. Calls outside the
    regime take the exact :func:`~repro.kernels.search.candidate_search`
    kernel instead.
    """

    def __init__(self, n_sub: int, sub: int, rule: str, biases,
                 mults) -> None:
        self.n_sub, self.sub, self.rule = n_sub, sub, rule
        self.n_bias, self.n_inner = len(biases), len(mults)
        self.biases_arr = np.asarray(biases)
        self.mults = np.asarray(mults)
        self.fallback_outer = list(biases).index(0)
        ratios = [float(2.0 ** (b + 1) * m) for b in biases for m in mults]
        #: (n_cand * 7, 1, 1) stack for one broadcast compare per chunk.
        self.t_stack = np.asarray(
            [[_bisect_threshold(r, float(bd)) for bd in FP4_E2M1.boundaries]
             for r in ratios]).reshape(-1, 1, 1)
        self.half_ratios = np.asarray([r * 0.5 for r in ratios])

    def _eval(self, groups: np.ndarray):
        """The winners: ``(mag, exps, inner, s_half)``.

        ``mag`` holds the ``(n, n_sub, sub)`` magnitude codes, ``exps``
        the E8M0 scale exponents, ``inner`` the ``(n, n_sub)`` inner
        indices and ``s_half`` half of each subgroup's scale.
        """
        ax = np.abs(groups)
        amax = tree_amax(ax)
        validate_amax(amax)
        base_e = shared_scale_exponent(amax, FP4_E2M1, self.rule)
        u = None
        if int(base_e.max(initial=0)) <= 126 and \
                int(base_e.min(initial=0)) >= -126 and \
                float(np.where(ax > 0.0, ax, 1.0).min(initial=1.0)) \
                >= _U_SPACE_MIN:
            u = ax
            u *= _exp2(-(base_e - 1))[:, None]
            if float(np.where(u > 0.0, u, 1.0).min(initial=1.0)) \
                    < _U_SPACE_MIN:
                u = None
        if u is None:
            mag, outer, inner, s_half = self._exact(groups, base_e)
        else:
            mag, outer, inner, s_half = self._u_search(u, base_e)
        return mag, clamp_exponent(base_e + self.biases_arr[outer]), inner, \
            s_half

    def _u_search(self, u: np.ndarray, base_e: np.ndarray):
        """The in-regime search over row chunks of ``u``."""
        n = u.shape[0]
        n_sub, sub = self.n_sub, self.sub
        k = n_sub * sub
        n_cand = self.n_bias * self.n_inner
        mag = np.empty((n, n_sub, sub), dtype=np.int8)
        outer = np.empty(n, dtype=np.intp)
        inner = np.empty((n, n_sub), dtype=np.intp)
        rows = max(1, _CHUNK_ELEMS // (n_cand * k))
        for lo in range(0, n, rows):
            uc = u[lo:lo + rows]
            r = uc.shape[0]
            # One broadcast compare against all candidates' thresholds,
            # an integer reduction per 7-threshold block (order-free),
            # then the whole error chain as a handful of chunk-wide ops.
            codes = np.add.reduce(
                (uc >= self.t_stack).view(np.int8).reshape(n_cand, 7, r, k),
                axis=1, dtype=np.int8)
            qf = fp4_half_ints(codes) * self.half_ratios[:, None, None]
            qf -= uc
            qf *= qf
            q4 = qf.reshape(n_cand, r, n_sub, sub)
            if sub == 8:
                # Adjacent-pair tree — the exact grouping NumPy's
                # pairwise trailing-axis sum uses for length 8 — as
                # three adds.
                while q4.shape[-1] > 1:
                    q4 = q4[..., 0::2] + q4[..., 1::2]
                esum = q4[..., 0]
            else:
                esum = q4.sum(axis=-1)
            err = np.ascontiguousarray(np.moveaxis(esum, 0, 2))
            o, i, _ = hierarchical_select(err, self.n_bias, self.n_inner,
                                          fallback_outer=self.fallback_outer)
            c = (o[:, None] * self.n_inner + i).ravel()
            mag[lo:lo + r] = codes.reshape(n_cand, r * n_sub, sub)[
                c, np.arange(r * n_sub)].reshape(r, n_sub, sub)
            outer[lo:lo + r], inner[lo:lo + r] = o, i
        cand_idx = outer[:, None] * self.n_inner + inner
        s_half = self.half_ratios[cand_idx] * _exp2(base_e - 1)[:, None]
        return mag, outer, inner, s_half

    def _exact(self, groups: np.ndarray, base_e: np.ndarray):
        """Out-of-regime fallback: the exact ``candidate_search`` kernel
        over per-group candidate scales, E8M0 clamping included."""
        n = groups.shape[0]
        exps_all = clamp_exponent(base_e[:, None] + self.biases_arr)
        cand = (_exp2(exps_all)[:, :, None] * self.mults).reshape(n, -1)
        codes, err = candidate_search(groups.reshape(n, self.n_sub, self.sub),
                                      cand, FP4_E2M1.grid, FP4_E2M1.boundaries)
        outer, inner, _ = hierarchical_select(
            err, self.n_bias, self.n_inner, fallback_outer=self.fallback_outer)
        mag = gather_candidate_codes(codes, outer, inner, self.n_inner)
        s_half = cand[np.arange(n)[:, None],
                      outer[:, None] * self.n_inner + inner] * 0.5
        return mag, outer, inner, s_half

    def _dequantize(self, groups, mag, s_half) -> np.ndarray:
        # half-value x (scale / 2): one rounding, as in the reference's
        # grid value x scale.
        dq = fp4_half_ints(mag) * s_half[:, :, None]
        return np.copysign(dq.reshape(groups.shape), groups)

    def __call__(self, groups: np.ndarray) -> np.ndarray:
        mag, _exps, _inner, s_half = self._eval(groups)
        return self._dequantize(groups, mag, s_half)

    def codes(self, groups: np.ndarray):
        """Code-space twin of ``__call__``: ``(elems, exps, inner,
        dequantize)`` with the dequantization left lazy."""
        mag, exps, inner, s_half = self._eval(groups)
        elems = _sign_codes(groups, mag.reshape(groups.shape))
        return elems, exps, inner, \
            lambda: self._dequantize(groups, mag, s_half)


def _sg_executor(geom: GroupGeometry, engine: _SgUSpace, meta_width: int):
    """The ``(run, run_codes)`` pair over one Sg search engine.

    The code-space stream order (elements, scales, meta) and the
    ``exps + 127`` E8M0 bias match the SgEM/SgEE codecs.
    """
    def run(x: np.ndarray) -> np.ndarray:
        return geom.unpack(engine(geom.pack(x)))

    def run_codes(x: np.ndarray) -> CodeSpaceResult:
        elems, exps, meta, dequantize = engine.codes(geom.pack(x))
        return CodeSpaceResult(
            (CodeStream("elements", elems, 4),
             CodeStream("scales", exps + 127, 8),
             CodeStream("meta", meta, meta_width)),
            lambda: geom.unpack(dequantize()))
    return run, run_codes


def _compile_sg_em(fmt: SgEM, op: str, geom: GroupGeometry):
    biases = list(ADAPTIVE_BIASES) if fmt.adaptive else [0]
    # Reference candidate order: bias outer (-1, 0, +1), multiplier inner.
    engine = _SgUSpace(fmt.group_size // fmt.sub_size, fmt.sub_size,
                       fmt.scale_rule, biases, SG_EM_MULTIPLIERS)
    return _sg_executor(geom, engine, 2)


def _compile_sg_ee(fmt: SgEE, op: str, geom: GroupGeometry):
    n_sub = fmt.group_size // fmt.sub_size
    sub = fmt.sub_size
    d_max = (1 << fmt.meta_bits) - 1
    rule = fmt.scale_rule

    if fmt.adaptive:
        engine = _SgUSpace(n_sub, sub, rule, list(ADAPTIVE_BIASES),
                           [1.0 / (1 << d) for d in range(d_max + 1)])
        return _sg_executor(geom, engine, fmt.meta_bits)

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
        elems = _sign_codes(groups, c.reshape(n, n_sub * sub))

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
        elems = _sign_codes(groups, c)
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
        ref_codes, cand, pick = elem_ee_select(top_val, o_max)
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
        elems = _sign_codes(groups, c)
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
# NVFP4 / M2-NVFP4: two-level (E4M3 group x FP32 tensor) scaling
# ----------------------------------------------------------------------
def tensor_scoped(fmt) -> bool:
    """Whether ``fmt`` scales by a tensor-level amax: the NVFP4 family,
    or a MaxPreserving wrapper of it. Its ``run_codes(x, blocks)`` then
    takes the number of equal leading-axis row blocks that each get
    their own tensor scale (see :func:`_nvfp4_scaler`)."""
    if isinstance(fmt, (NVFP4, M2NVFP4)):
        return True
    if isinstance(fmt, MaxPreserving):
        return tensor_scoped(fmt.inner)
    return False


def _nvfp4_scaler(base: NVFP4):
    """NVFP4's two-level scale derivation over ``|groups|``, one tensor
    scale per row block.

    Returns ``scale(ax, blocks=1, tensor_amax=None) -> (tamax, ts,
    s8_codes, scales)``. The groups split into ``blocks`` equal runs
    (the row blocks of a tensor grouped on its last axis); each block's
    tensor amax ``tamax`` is its groups' maximum, or the calibrated
    ``tensor_amax`` (one block), and ``ts`` its tensor scale (float64
    arrays of ``blocks``). Per group come the E4M3 scale code and the
    raw group scale ``s8 * ts``. A block whose tensor scale is 0 — a
    zero block, or one whose tensor scale underflows (every ``|x|``
    below about 1.3e-320) — has code 0 and scale 0 in every group.
    Finiteness is validated first, as ``to_groups`` does, even when a
    calibrated ``tensor_amax`` is given. The arithmetic is
    ``NVFP4.quantize_detailed``'s operation for operation, block by
    block: the same tensor scale, the same ``amax / (M * ts)`` division,
    and the E4M3 quantize as one boundary search with the sign
    re-applied.
    """
    emax = base.element.max_value
    denom = emax * base.scale_format.max_value
    bounds, grid = base.scale_format.boundaries, base.scale_format.grid

    def scale(ax: np.ndarray, blocks: int = 1,
              tensor_amax: float | None = None):
        amax = tree_amax(ax)
        validate_amax(amax)
        if tensor_amax is None:
            tamax = amax.reshape(blocks, -1).max(axis=1, initial=0.0)
        else:
            tamax = np.array([float(tensor_amax)])
        ts = tamax / denom
        per = amax.size // blocks
        ts_g = ts[0] if blocks == 1 else np.repeat(ts, per)
        if ts.all():
            ideal = amax / (emax * ts_g)
            codes = np.searchsorted(bounds, np.abs(ideal), side="left")
            return tamax, ts, codes, np.copysign(grid[codes], ideal) * ts_g
        live = np.repeat(ts > 0, per)
        ideal = amax / (emax * np.where(live, ts_g, 1.0))
        codes = np.where(
            live, np.searchsorted(bounds, np.abs(ideal), side="left"), 0)
        return tamax, ts, codes, \
            np.where(live, np.copysign(grid[codes], ideal) * ts_g, 0.0)
    return scale


def _nvfp4_result(geom: GroupGeometry, ts: np.ndarray, s8_codes,
                  streams: tuple, dequantize):
    """A code-space result in the NVFP4-family codec layout: the scale
    stream first (absent when every tensor scale is 0). One block's
    tensor scale is a ``float.hex()`` header scalar; several blocks give
    each row its block's scale, as a float64 array (the form
    :func:`repro.codec.join_rows` runs hold)."""
    if ts.any():
        streams = (CodeStream("scales", s8_codes, 8),) + streams
    tensor_scale = float(ts[0]).hex() if ts.size == 1 \
        else np.repeat(ts, geom.shape[0] // ts.size)
    return CodeSpaceResult(streams, dequantize,
                           extra={"tensor_scale": tensor_scale})


def _compile_nvfp4(fmt: NVFP4, op: str, geom: GroupGeometry):
    if fmt.element is not FP4_E2M1 or fmt.scale_format is not FP8_E4M3:
        return None
    scale = _nvfp4_scaler(fmt)

    def _encode(groups: np.ndarray, blocks: int = 1, tensor_amax=None):
        """``(tamax, ts, s8_codes, safe, live, codes)``; a group is live
        while its scale is not 0."""
        ax = np.abs(groups)
        tamax, ts, s8_codes, scales = scale(ax, blocks, tensor_amax)
        live = scales > 0
        safe = np.where(live, scales, 1.0)
        # A true division: the group scale is not a power of two.
        ax /= safe[:, None]
        return tamax, ts, s8_codes, safe, live, fp4_codes(ax)

    def run(x: np.ndarray, tensor_amax: float | None = None) -> np.ndarray:
        groups = geom.pack(x)
        tamax, _ts, _s8, safe, live, c = _encode(groups, 1, tensor_amax)
        if not tamax[0]:        # zero tensor: the input, unchanged
            return geom.unpack(groups)
        return _fp4_scaled_finish(geom, groups, safe, live, c)

    def run_codes(x: np.ndarray, blocks: int = 1) -> CodeSpaceResult:
        groups = geom.pack(x)
        tamax, ts, s8_codes, safe, live, c = _encode(groups, blocks)
        elems = _sign_codes(groups, c)
        if not ts.all():
            per = len(groups) // blocks
            # A zero block keeps its signed zeros (all its codes are
            # sign bits); an underflowed one is +0.0 throughout.
            elems[np.repeat((tamax > 0) & (ts == 0), per)] = 0
            live = live | np.repeat(tamax == 0, per)
        return _nvfp4_result(
            geom, ts, s8_codes, (CodeStream("elements", elems, 4),),
            lambda: _fp4_scaled_finish(geom, groups, safe, live, c))
    return run, run_codes


def _compile_m2nvfp4(fmt: M2NVFP4, op: str, geom: GroupGeometry):
    base = fmt.base
    if base.element is not FP4_E2M1 or base.scale_format is not FP8_E4M3 \
            or base.group_size != fmt.group_size:
        return None
    scale = _nvfp4_scaler(base)
    sub = fmt.sub_size
    n_sub = fmt.group_size // sub

    def _scales(groups: np.ndarray, blocks: int):
        """``(|groups|, ts, s8_codes, safe)``: ``M2NVFP4._scaled_groups``'
        scales per row block, 1.0 where one is 0 (a zero or underflowed
        block, or a group scale that rounds to 0)."""
        ax = np.abs(groups)
        _tamax, ts, s8_codes, scales = scale(ax, blocks)
        return ax, ts, s8_codes, np.where(scales > 0, scales, 1.0)

    if op == "activation":
        flat_base = np.arange(geom.n_groups * n_sub) * sub

        def _encode(x: np.ndarray, blocks: int = 1):
            groups = geom.pack(x)
            ax, ts, s8_codes, safe = _scales(groups, blocks)
            ax /= safe[:, None]
            c = fp4_codes(ax)
            top = subgroup_top1(c.reshape(-1, n_sub, sub))
            flat = flat_base + top.ravel()
            meta, refined2 = fp6_window_codes(ax.reshape(-1)[flat],
                                              c.reshape(-1)[flat]
                                              .astype(np.int64))
            return groups, ts, s8_codes, safe, c, flat, meta, refined2

        def _finish(groups, safe, c, flat, refined2) -> np.ndarray:
            v = fp4_half_ints(c).astype(np.float64)
            v.reshape(-1)[flat] = refined2
            v *= 0.5        # exact: FP4 and FP6 grid values
            v *= safe[:, None]
            np.copysign(v, groups, out=v)
            return geom.unpack(v)

        def run(x: np.ndarray) -> np.ndarray:
            groups, _ts, _s8, safe, c, flat, _meta, refined2 = _encode(x)
            return _finish(groups, safe, c, flat, refined2)

        def run_codes(x: np.ndarray, blocks: int = 1) -> CodeSpaceResult:
            groups, ts, s8_codes, safe, c, flat, meta, refined2 = \
                _encode(x, blocks)
            return _nvfp4_result(
                geom, ts, s8_codes,
                (CodeStream("elements", _sign_codes(groups, c), 4),
                 CodeStream("meta", meta, META_BITS_PER_VALUE)),
                lambda: _finish(groups, safe, c, flat, refined2))
        return run, run_codes

    biases = (0.5, 1.0, 2.0) if fmt.adaptive else (1.0,)
    bias_arr = np.asarray(biases)
    mult = np.asarray(SG_EM_MULTIPLIERS)
    n_inner = len(mult)

    def _encode_w(x: np.ndarray, blocks: int = 1):
        groups = geom.pack(x)
        n = groups.shape[0]
        _ax, ts, s8_codes, safe = _scales(groups, blocks)
        subs = groups.reshape(n, n_sub, sub)
        cand = ((safe[:, None] * bias_arr)[:, :, None] * mult).reshape(
            n, len(biases) * n_inner)
        codes, err = candidate_search(subs, cand, FP4_E2M1.grid,
                                      FP4_E2M1.boundaries)
        outer, inner, invalid = hierarchical_select(
            err, len(biases), n_inner, fallback_outer=biases.index(1.0))
        mag = gather_candidate_codes(codes, outer, inner, n_inner)
        return groups, subs, ts, s8_codes, cand, outer, inner, invalid, mag

    def _finish_w(groups, subs, cand, outer, inner, invalid,
                  mag) -> np.ndarray:
        s_sel = np.take_along_axis(cand, outer[:, None] * n_inner + inner,
                                   axis=1)
        q = FP4_E2M1.grid[mag]
        dq = np.where(np.signbit(subs), -q, q) * s_sel[:, :, None]
        if invalid.any():
            # The reference's never-updated accumulator yields zeros.
            dq[invalid] = 0.0
        return geom.unpack(dq.reshape(groups.shape))

    def run_w(x: np.ndarray) -> np.ndarray:
        groups, subs, _ts, _s8, cand, outer, inner, invalid, mag = \
            _encode_w(x)
        return _finish_w(groups, subs, cand, outer, inner, invalid, mag)

    def run_codes_w(x: np.ndarray, blocks: int = 1) -> CodeSpaceResult:
        groups, subs, ts, s8_codes, cand, outer, inner, invalid, mag = \
            _encode_w(x, blocks)
        if invalid.any():
            raise CodecError("M2-NVFP4 weight search produced an invalid "
                             "group; inputs must be finite")
        return _nvfp4_result(
            geom, ts, s8_codes,
            (CodeStream("elements",
                        _sign_codes(groups, mag.reshape(groups.shape)), 4),
             CodeStream("meta", inner, 2), CodeStream("bias", outer, 2)),
            lambda: _finish_w(groups, subs, cand, outer, inner, invalid,
                              mag))
    return run_w, run_codes_w


# ----------------------------------------------------------------------
# M2XFP: delegate to the operand-path formats
# ----------------------------------------------------------------------
def _compile_m2xfp(fmt: M2XFP, op: str, geom: GroupGeometry):
    inner = fmt.weight_format if op == "weight" else fmt.activation_format
    return compile_executor(inner, op, geom)


# ----------------------------------------------------------------------
# MaxPreserving / fp16
# ----------------------------------------------------------------------
def _compile_max_preserving(fmt: MaxPreserving, op: str, geom: GroupGeometry):
    """The inner plan plus each group's first maximum-magnitude element
    as an FP16 code and its index. The inner element code at that
    index is dropped from the element stream (the decoder overwrites
    it anyway), so the footprint matches the nominal EBW."""
    if getattr(fmt.inner, "group_size", None) != fmt.group_size:
        return None
    run_inner, codes_inner = compile_executor(fmt.inner, op, geom)
    if codes_inner is None:
        return None
    k = fmt.group_size
    idx_bits = max(1, int(np.ceil(np.log2(k))))
    rows = np.arange(geom.n_groups)
    bounds, grid = FP16.boundaries, FP16.grid

    def _max(x: np.ndarray):
        """``(index, sign, FP16 magnitude code)`` of each group's max."""
        groups = geom.pack(x)
        idx = np.argmax(np.abs(groups), axis=1)
        top = groups[rows, idx]
        return idx, np.signbit(top), \
            np.searchsorted(bounds, np.abs(top), side="left")

    def _restore(dq: np.ndarray, idx, sign, mag) -> np.ndarray:
        quant = geom.pack(dq)
        vals = grid[mag]
        quant[rows, idx] = np.where(sign, -vals, vals)
        return geom.unpack(quant)

    def run(x: np.ndarray) -> np.ndarray:
        dq = run_inner(x)
        return _restore(dq, *_max(x))

    def run_codes(x: np.ndarray, *blocks) -> CodeSpaceResult:
        cs = codes_inner(x, *blocks)
        idx, sign, mag = _max(x)
        streams = [s for s in cs.streams if s.name != "elements"]
        elems = next(s for s in cs.streams if s.name == "elements")
        kept = np.delete(np.asarray(elems.values).reshape(-1), rows * k + idx)
        streams += [CodeStream("max_idx", idx, idx_bits),
                    CodeStream("max_val",
                               (sign.astype(np.int64) << 15) | mag, 16),
                    CodeStream("elements", kept, elems.width)]
        return CodeSpaceResult(
            streams, lambda: _restore(cs.dequantized, idx, sign, mag),
            extra={**cs.extra, "dropped_max": True})
    return run, run_codes


def _compile_fp16(fmt: Fp16Format, op: str, geom: GroupGeometry):
    def run(x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=np.float64)

    def run_codes(x: np.ndarray) -> CodeSpaceResult:
        x = np.asarray(x, dtype=np.float64)
        y16 = x.astype("<f2")
        if y16.astype(np.float64).tobytes() == x.tobytes():
            words, width, storage = y16.view("<u2"), 16, "f16"
        else:
            # Not fp16-representable: the catalog Fp16Format is an
            # identity function, so raw float64 is the only exact store.
            words, width, storage = x.astype("<f8").view("<u8"), 64, "f64"
        return CodeSpaceResult(
            (CodeStream("elements", words.reshape(-1), width),),
            lambda: x, extra={"storage": storage})
    return run, run_codes


#: Exact instance type -> compiler. Subclasses do not inherit an entry:
#: an unknown subclass may override the semantics the executor fuses.
EXECUTOR_COMPILERS = {
    BlockFormat: _compile_block,
    GroupFP4: _compile_group_fp4,
    MSFP: _compile_msfp,
    SMX: _compile_smx,
    MXAnt: _compile_ant,
    MXMAnt: _compile_mant,
    SgEM: _compile_sg_em,
    SgEE: _compile_sg_ee,
    ElemEM: _compile_elem_em,
    ElemEE: _compile_elem_ee,
    M2XFP: _compile_m2xfp,
    NVFP4: _compile_nvfp4,
    M2NVFP4: _compile_m2nvfp4,
    MaxPreserving: _compile_max_preserving,
    Fp16Format: _compile_fp16,
}


def compile_executor(fmt, op: str, geom: GroupGeometry):
    """The ``(run, run_codes)`` pair for ``fmt``/``op``.

    Both are None when the configuration is out of every compiler's
    scope; ``run_codes`` alone is None for the families without a codec
    stream layout (``MXAnt`` / ``MXMAnt``).
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
