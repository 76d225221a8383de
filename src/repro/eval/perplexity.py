"""Perplexity evaluation of quantized models (the Tbl. 3 / 6 / 8 metric).

Both entry points route through the single-pass evaluation engine
(:mod:`repro.eval.engine`): runtimes load once, ``QuantizedLM`` arms
and their perplexities are shared across every caller in the process.
"""

from __future__ import annotations

from ..models.profiles import ProfileRuntime
from ..mx.base import TensorFormat
from .engine import default_engine

__all__ = ["quantized_perplexity", "perplexity_table"]


def quantized_perplexity(runtime: ProfileRuntime, fmt: TensorFormat) -> float:
    """Wikitext-style perplexity of ``fmt`` applied W&A on a profile."""
    return default_engine().perplexity(runtime, fmt)


def perplexity_table(profile_keys: list[str], formats: dict[str, TensorFormat],
                     n_seq: int | None = None,
                     seq_len: int | None = None) -> dict[str, dict[str, float]]:
    """Perplexity grid: ``{format_name: {profile_key: ppl}}``.

    Always includes an ``fp16`` row as the reference.
    """
    return default_engine().perplexity_grid(list(profile_keys), formats,
                                            n_seq=n_seq, seq_len=seq_len)
