"""Fake-quantized model wrapper: W4A4 (or any format) on every projection.

Weights are quantized once at construction with the format's offline path;
activations are quantized per call with the online path, along the GEMM
reduction axis, exactly as the accelerator would see them. A
``weight_override`` dict lets calibration-based algorithms (MR-GPTQ) supply
their own pre-quantized weights for specific projections.

Offline weight quantization is memoized per model instance, keyed by
``(format fingerprint, projection)``: the evaluation tables (Tbl. 2/3/4)
rebuild ``QuantizedLM`` wrappers around the *same* cached runtime model
for every format arm, and the adaptive weight searches are by far the
most expensive step of construction. Overridden projections always bypass
the cache.

``REPRO_PACKED_WEIGHTS=1`` stores quantized weights as true-bit-width
:class:`repro.codec.PackedTensor` containers instead of dequantized
float64 arrays — the memory-footprint story the paper's EBW accounting
promises — decoding (bit-exactly) on each projection use. Opt-in: it
trades decode time for a ~10x smaller resident weight set; see
:meth:`QuantizedLM.weight_footprint` and the README's environment-knob
table.
"""

from __future__ import annotations

import os

import numpy as np

from ..mx.base import TensorFormat
from .transformer import LinearFn, TransformerLM

__all__ = ["QuantizedLM", "Fp16Format"]

#: Environment variable selecting packed (true-bit-width) weight storage.
PACKED_WEIGHTS_ENV = "REPRO_PACKED_WEIGHTS"


class Fp16Format(TensorFormat):
    """Identity transfer function — the FP16 reference row of every table."""

    name = "fp16"

    @property
    def ebw(self) -> float:
        return 16.0

    def quantize(self, x: np.ndarray, axis: int = -1) -> np.ndarray:
        return np.asarray(x, dtype=np.float64)


class QuantizedLM:
    """A :class:`TransformerLM` with a quantization format applied.

    Formats exposing ``quantize_activation_calibrated`` (NVFP4's two-level
    scaling) get per-projection tensor scales measured on a calibration
    forward pass, matching how static tensor scales are deployed; all other
    formats quantize activations fully online.
    """

    def __init__(self, model: TransformerLM, fmt: TensorFormat,
                 weight_override: dict[str, np.ndarray] | None = None,
                 quantize_activations: bool = True,
                 calibration_tokens: np.ndarray | None = None) -> None:
        self.model = model
        self.fmt = fmt
        self.quantize_activations = bool(quantize_activations)
        override = weight_override or {}
        # Every environment lookup is resolved here, once per instance:
        # the projection path (``_projection_hook``/``forward``) performs
        # zero ``os.environ`` reads — a regression test in
        # ``tests/test_plan.py`` monkeypatches the environment mapping
        # to prove it.
        from ..kernels.dispatch import use_reference
        self._reference = use_reference()
        from ..plan import get_plan
        self._get_plan = get_plan
        self._act_plans: dict = {}
        self.packed_weights = False
        self._decode = None
        if os.environ.get(PACKED_WEIGHTS_ENV, "0") == "1":
            from ..codec import supports
            # Formats without a codec keep dense storage silently: the
            # knob is a storage-mode preference, not a hard requirement.
            self.packed_weights = supports(fmt)
        if self.packed_weights:
            from ..codec import decode
            self._decode = decode
        cache = None
        fmt_key = fmt.weight_cache_key
        if fmt_key is not None:
            # The dispatch mode is part of the key: fast and reference
            # kernels are bit-identical by contract, but a cross-check of
            # that very contract must not be fed cached results from the
            # other mode. Packed containers get their own namespace so
            # dense arms never see containers (and vice versa).
            fmt_key = (fmt_key, self._reference, self.packed_weights)
            cache = model.__dict__.setdefault("_quant_weight_cache", {})

        def quantize(w):
            if self.packed_weights:
                from ..codec import encode
                return encode(fmt, w, op="weight", axis=-1)
            return fmt.quantize_weight(w, axis=-1)

        self._weights: dict[str, np.ndarray] = {}
        for li, layer in enumerate(model.layers):
            for name in ("wq", "wk", "wv", "wo", "w_gate", "w_up", "w_down"):
                key = f"l{li}.{name}"
                if key in override:
                    self._weights[key] = np.asarray(override[key], dtype=np.float64)
                elif cache is not None:
                    entry = (fmt_key, key)
                    if entry not in cache:
                        cache[entry] = quantize(layer[name])
                    self._weights[key] = cache[entry]
                else:
                    self._weights[key] = quantize(layer[name])
        self._act_amax: dict[str, float] = {}
        if calibration_tokens is not None and hasattr(fmt, "quantize_activation_calibrated"):
            self._calibrate_activations(np.atleast_2d(calibration_tokens))

    def _calibrate_activations(self, tokens: np.ndarray) -> None:
        amax: dict[str, float] = {}

        def record(name: str, x: np.ndarray, w: np.ndarray) -> np.ndarray:
            amax[name] = max(amax.get(name, 0.0), float(np.max(np.abs(x))))
            return x @ w.T

        self.model.forward(tokens, linear_fn=record)
        self._act_amax = amax

    def _weight(self, name: str) -> np.ndarray:
        """The dequantized weight matrix (decoding packed storage)."""
        w = self._weights[name]
        if isinstance(w, np.ndarray):
            return w
        return self._decode(w, fmt=self.fmt)

    def weight_footprint(self) -> dict:
        """Resident weight storage, measured.

        ``total_bytes`` counts packed containers at their serialized size
        (header included) and dense projections at float64 size;
        ``dense_float64_bytes`` is what the same weights cost without
        ``REPRO_PACKED_WEIGHTS=1``.
        """
        total = 0
        dense = 0
        elements = 0
        for w in self._weights.values():
            if isinstance(w, np.ndarray):
                total += w.nbytes
                elements += w.size
                dense += w.size * 8
            else:
                total += w.total_bytes
                elements += w.n_elements
                dense += w.n_elements * 8
        return {"packed": self.packed_weights, "total_bytes": total,
                "dense_float64_bytes": dense, "elements": elements,
                "bits_per_element": total * 8 / max(1, elements)}

    def _quantize_activation(self, x: np.ndarray,
                             amax: float | None = None) -> np.ndarray:
        """Activation quantization (no per-call env reads).

        A calibrated projection (``amax`` given) uses the format's static
        tensor scale. Otherwise plans are fetched once per shape with the
        dispatch mode resolved at construction and held on the instance,
        so repeated forwards hit a plain dict; non-plannable formats (or
        reference dispatch) use the format entry point, which re-reads
        the environment.
        """
        if amax is not None:
            return self.fmt.quantize_activation_calibrated(x, amax, axis=-1)
        if not self._reference:
            plan = self._act_plans.get(x.shape, False)
            if plan is False:
                plan = self._get_plan(self.fmt, "activation", x.shape, -1)
                self._act_plans[x.shape] = plan
            if plan is not None:
                return plan.run(x)
        return self.fmt.quantize_activation(x, axis=-1)

    def _projection_hook(self) -> LinearFn:
        """A fresh ``linear_fn`` for one forward pass.

        Q/K/V read one normed tensor and gate/up read another, so the
        hook keeps the last ``(input, amax, quantized)`` triple and reuses
        the quantized copy when the same input object comes back with the
        same calibration ``amax``. That is exact: activation quantization
        is a pure function of ``(x, amax)`` and the forward never mutates
        a projection input. The triple lives in this closure only, so it
        is freed when the pass returns and no two passes (or threads)
        ever share it.
        """
        if not self.quantize_activations:
            return lambda name, x, w: x @ self._weight(name).T
        act_amax = self._act_amax
        held: tuple | None = None

        def linear(name: str, x: np.ndarray, w: np.ndarray) -> np.ndarray:
            nonlocal held
            amax = act_amax.get(name)
            if held is None or held[0] is not x or held[1] != amax:
                held = (x, amax, self._quantize_activation(x, amax))
            return held[2] @ self._weight(name).T

        return linear

    def forward(self, tokens: np.ndarray) -> np.ndarray:
        """Quantized logits."""
        return self.model.forward(tokens, linear_fn=self._projection_hook())

    def nll(self, tokens: np.ndarray) -> float:
        """Quantized next-token NLL."""
        return self.model.nll(tokens, linear_fn=self._projection_hook())

    def perplexity(self, tokens: np.ndarray) -> float:
        """Quantized perplexity."""
        return self.model.perplexity(tokens, linear_fn=self._projection_hook())
