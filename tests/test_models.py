"""Tests for the synthetic transformer substrate and profiles."""

import weakref

import numpy as np
import pytest

from repro.kernels.dispatch import reference_kernels
from repro.models import (PROFILES, Fp16Format, OutlierSpec, QuantizedLM,
                          TransformerConfig, TransformerLM, channel_scales,
                          get_profile, load_runtime, outlier_matrix)
from repro.models.layers import causal_attention
from repro.models.quantized import PACKED_WEIGHTS_ENV
from repro.errors import ConfigError
from repro.runner.formats import FORMAT_REGISTRY, make_format


class TestGenerators:
    def test_channel_scales_have_outliers(self, rng):
        spec = OutlierSpec(outlier_rate=0.05, outlier_scale=10.0)
        s = channel_scales(200, spec, rng)
        assert s.max() / np.median(s) > 5

    def test_outlier_matrix_shape_and_scaling(self, rng):
        w = outlier_matrix(64, 128, OutlierSpec(), rng)
        assert w.shape == (64, 128)
        assert 0.1 < np.std(w) < 10

    def test_shared_in_scales(self, rng):
        spec = OutlierSpec(outlier_rate=0.02, outlier_scale=20.0)
        scales = channel_scales(128, spec, rng)
        w1 = outlier_matrix(64, 128, spec, rng, scales)
        w2 = outlier_matrix(64, 128, spec, rng, scales)
        c1 = np.mean(np.abs(w1), axis=0)
        c2 = np.mean(np.abs(w2), axis=0)
        assert np.corrcoef(c1, c2)[0, 1] > 0.5  # same outlier channels


class TestTransformer:
    def _tiny(self):
        return TransformerLM(TransformerConfig(vocab_size=64, d_model=32,
                                               n_layers=1, n_heads=2, d_ff=48,
                                               seed=3))

    def test_forward_shape(self):
        model = self._tiny()
        logits = model.forward(np.zeros((2, 10), dtype=int))
        assert logits.shape == (2, 10, 64)

    def test_nll_finite_positive(self):
        model = self._tiny()
        tokens = np.random.default_rng(0).integers(0, 64, (2, 12))
        nll = model.nll(tokens)
        assert np.isfinite(nll) and nll > 0

    def test_sampling_deterministic(self):
        model = self._tiny()
        t1 = model.sample(2, 10, np.random.default_rng(7))
        t2 = model.sample(2, 10, np.random.default_rng(7))
        assert np.array_equal(t1, t2)

    def test_continue_sequences(self):
        model = self._tiny()
        prefix = np.zeros((3, 5), dtype=int)
        cont = model.continue_sequences(prefix, 4, np.random.default_rng(1))
        assert cont.shape == (3, 4)
        assert np.all((cont >= 0) & (cont < 64))

    def test_incremental_matches_batch_distribution(self):
        # The KV-cache step must produce the same logits as a full forward.
        model = self._tiny()
        tokens = np.random.default_rng(2).integers(0, 64, (1, 8))
        full = model.forward(tokens)[0, -1]
        caches = [{"k": np.zeros((1, 2, 0, 16)), "v": np.zeros((1, 2, 0, 16))}
                  for _ in model.layers]
        step = None
        for t in range(8):
            step = model._step(tokens[:, t], t, caches)
        assert np.allclose(step[0], full, atol=1e-9)

    @pytest.mark.parametrize("tq, tk", [(9, 9), (3, 11), (1, 7), (1, 1)])
    def test_attention_matches_einsum_formulation(self, tq, tk):
        """BLAS attention differs from the einsum loop only in float
        summation order: prefill, decode-aligned blocks and one query."""
        r = np.random.default_rng(tq * 100 + tk)
        q = r.standard_normal((2, 3, tq, 16))
        k = r.standard_normal((2, 3, tk, 16))
        v = r.standard_normal((2, 3, tk, 16))
        scores = np.einsum("bhqd,bhkd->bhqk", q, k) / np.sqrt(16)
        mask = (np.arange(tq)[:, None] + (tk - tq)) < np.arange(tk)[None, :]
        scores = np.where(mask, -1e30, scores)
        p = np.exp(scores - scores.max(axis=-1, keepdims=True))
        p /= p.sum(axis=-1, keepdims=True)
        want = np.einsum("bhqk,bhkd->bhqd", p, v)
        got = causal_attention(q, k, v)
        np.testing.assert_allclose(got, want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max())

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TransformerConfig(d_model=30, n_heads=4)

    def test_branch_scale_controls_sensitivity(self):
        cfg_hi = TransformerConfig(seed=3, branch_scale=0.8)
        cfg_lo = TransformerConfig(seed=3, branch_scale=0.1)
        tokens = np.random.default_rng(0).integers(0, 256, (1, 16))
        from repro.mx import mxfp4
        deltas = []
        for cfg in (cfg_hi, cfg_lo):
            model = TransformerLM(cfg)
            ref = model.forward(tokens)
            q = QuantizedLM(model, mxfp4).forward(tokens)
            deltas.append(np.mean((q - ref) ** 2) / np.mean(ref ** 2))
        assert deltas[0] > deltas[1]


class TestProfiles:
    def test_all_paper_models_present(self):
        expected = {"llama2-7b", "llama3-8b", "llama3-70b", "opt-6.7b",
                    "mistral-7b", "falcon-7b", "r1-qwen-1.5b", "r1-qwen-7b"}
        assert set(PROFILES) == expected

    def test_unknown_profile(self):
        with pytest.raises(ConfigError):
            get_profile("gpt-4")

    def test_calibration_hits_target(self, rt_small):
        target = rt_small.profile.target_ppl
        assert abs(rt_small.fp16_ppl - target) / target < 0.10

    def test_runtime_cached(self, rt_small):
        from repro.models import load_runtime
        again = load_runtime("llama2-7b", n_seq=6, seq_len=48)
        assert again is rt_small

    def test_calib_tokens_held_out(self, rt_small):
        assert rt_small.calib_tokens is not None
        assert rt_small.calib_tokens.shape[1] == rt_small.tokens.shape[1]


class TestQuantizedLM:
    def test_identity_format_matches_fp16(self, rt_small):
        qlm = QuantizedLM(rt_small.model, Fp16Format())
        assert qlm.perplexity(rt_small.tokens) == pytest.approx(
            rt_small.fp16_ppl, rel=1e-9)

    def test_quantization_degrades(self, rt_small):
        from repro.mx import mxfp4
        qlm = QuantizedLM(rt_small.model, mxfp4)
        assert qlm.perplexity(rt_small.tokens) > rt_small.fp16_ppl

    def test_weight_override_respected(self, rt_small):
        from repro.mx import mxfp4
        zero = {f"l{li}.{n}": np.zeros_like(layer[n])
                for li, layer in enumerate(rt_small.model.layers)
                for n in ("wq", "wk", "wv", "wo", "w_gate", "w_up", "w_down")}
        qlm = QuantizedLM(rt_small.model, mxfp4, weight_override=zero)
        # With all projections zeroed the model is far worse than plain quant.
        assert qlm.perplexity(rt_small.tokens) > \
            QuantizedLM(rt_small.model, mxfp4).perplexity(rt_small.tokens)

    def test_weights_only_mode(self, rt_small):
        from repro.mx import mxfp4
        w_only = QuantizedLM(rt_small.model, mxfp4, quantize_activations=False)
        full = QuantizedLM(rt_small.model, mxfp4)
        assert w_only.perplexity(rt_small.tokens) <= \
            full.perplexity(rt_small.tokens) + 1e-9

    def test_nvfp4_calibration_path_used(self, rt_small):
        from repro.mx import nvfp4
        qlm = QuantizedLM(rt_small.model, nvfp4,
                          calibration_tokens=rt_small.calib_tokens)
        assert len(qlm._act_amax) == 7 * len(rt_small.model.layers)


def _no_reuse_hook(qlm):
    """A projection hook that quantizes every projection input afresh."""
    def linear(name, x, w):
        xq = qlm._quantize_activation(x, qlm._act_amax.get(name))
        return xq @ qlm._weight(name).T
    return linear


def _count_quantizations(qlm, monkeypatch):
    seen = []
    inner = qlm._quantize_activation

    def counting(x, amax=None):
        seen.append(weakref.ref(x))
        return inner(x, amax)

    monkeypatch.setattr(qlm, "_quantize_activation", counting)
    return seen


class TestProjectionReuse:
    """Q/K/V and gate/up share one quantized copy of their input."""

    @pytest.fixture(scope="class")
    def rt(self):
        return load_runtime("llama2-7b", n_seq=2, seq_len=24)

    def _assert_reuse_exact(self, qlm, tokens):
        want = qlm.model.forward(tokens, linear_fn=_no_reuse_hook(qlm))
        assert qlm.forward(tokens).tobytes() == want.tobytes()

    @pytest.mark.parametrize("fmt", ["m2xfp", "nvfp4"])
    def test_one_quantization_per_distinct_input(self, rt, fmt,
                                                 monkeypatch):
        qlm = QuantizedLM(rt.model, make_format(fmt),
                          calibration_tokens=rt.calib_tokens)
        seen = _count_quantizations(qlm, monkeypatch)
        qlm.forward(rt.tokens[:, :16])
        # a (Q, K, V), ctx (O), a (gate, up), gate * up (down).
        assert len(seen) == 4 * len(rt.model.layers)

    @pytest.mark.parametrize("name", sorted(FORMAT_REGISTRY))
    def test_logits_identical_to_no_reuse(self, rt, name):
        # nvfp4 takes the calibrated (static tensor scale) path here.
        qlm = QuantizedLM(rt.model, make_format(name),
                          calibration_tokens=rt.calib_tokens)
        self._assert_reuse_exact(qlm, rt.tokens[:, :16])

    @pytest.mark.parametrize("name", ["m2xfp", "sg-em", "nvfp4", "fp4"])
    def test_reference_kernels_identical(self, rt, name):
        with reference_kernels():
            qlm = QuantizedLM(rt.model, make_format(name),
                              calibration_tokens=rt.calib_tokens)
            self._assert_reuse_exact(qlm, rt.tokens[:, :16])

    @pytest.mark.parametrize("name", ["m2xfp", "nvfp4", "m2-nvfp4"])
    def test_packed_weights_identical(self, rt, name, monkeypatch):
        monkeypatch.setenv(PACKED_WEIGHTS_ENV, "1")
        qlm = QuantizedLM(rt.model, make_format(name),
                          calibration_tokens=rt.calib_tokens)
        assert qlm.packed_weights
        self._assert_reuse_exact(qlm, rt.tokens[:, :16])

    def test_new_amax_requantizes_same_input(self, rt, monkeypatch):
        qlm = QuantizedLM(rt.model, make_format("nvfp4"),
                          calibration_tokens=rt.calib_tokens)
        qlm._act_amax = {"l0.wq": 4.0, "l0.wk": 4.0, "l0.wv": 8.0}
        seen = _count_quantizations(qlm, monkeypatch)
        hook = qlm._projection_hook()
        x = rt.model.embedding[rt.tokens[:, :16]]
        for name in ("l0.wq", "l0.wk", "l0.wv"):
            hook(name, x, None)
        assert len(seen) == 2

    def test_projection_inputs_freed_after_perplexity(self, rt,
                                                      monkeypatch):
        qlm = QuantizedLM(rt.model, make_format("m2xfp"))
        seen = _count_quantizations(qlm, monkeypatch)
        qlm.perplexity(rt.tokens[:, :16])
        assert seen and all(ref() is None for ref in seen)
