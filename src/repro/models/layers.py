"""NumPy building blocks of the decoder-only transformer substrate."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["rms_norm", "silu", "softmax", "rope_tables", "apply_rope",
           "causal_attention"]


def rms_norm(x: np.ndarray, gain: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Root-mean-square layer norm (LLaMA-style, no bias)."""
    rms = np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + eps)
    return x / rms * gain


def silu(x: np.ndarray) -> np.ndarray:
    """SiLU / swish activation used by SwiGLU MLPs."""
    return x / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax.

    The exp and divide reuse the shifted buffer in place — the same
    float operations as the textbook three-liner, bit for bit, without
    two extra tensor-sized temporaries (the attention-score arrays this
    runs over are the largest allocations in a forward pass).
    """
    z = x - np.max(x, axis=axis, keepdims=True)
    np.exp(z, out=z)
    s = np.sum(z, axis=axis, keepdims=True)
    np.divide(z, s, out=z)
    return z


def rope_tables(seq_len: int, head_dim: int, theta: float = 10000.0,
                offset: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Rotary-embedding cos/sin tables for positions [offset, offset+seq).

    Cached per signature (decode loops request one position per step,
    thousands of times); the returned arrays are read-only.
    """
    return _rope_tables_cached(int(seq_len), int(head_dim), float(theta),
                               int(offset))


@lru_cache(maxsize=4096)
def _rope_tables_cached(seq_len: int, head_dim: int, theta: float,
                        offset: int) -> tuple[np.ndarray, np.ndarray]:
    half = head_dim // 2
    freqs = theta ** (-np.arange(half) / half)
    pos = np.arange(offset, offset + seq_len)[:, None] * freqs[None, :]
    cos, sin = np.cos(pos), np.sin(pos)
    cos.setflags(write=False)
    sin.setflags(write=False)
    return cos, sin


def apply_rope(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Rotate the head dimension of ``(..., seq, head_dim)`` tensors."""
    half = x.shape[-1] // 2
    x1, x2 = x[..., :half], x[..., half:]
    return np.concatenate([x1 * cos - x2 * sin, x1 * sin + x2 * cos], axis=-1)


def causal_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                     causal: bool = True) -> np.ndarray:
    """Scaled dot-product attention over ``(B, H, T, dh)`` tensors.

    When ``q`` is shorter than ``k`` (incremental decoding), the causal
    mask aligns the query block to the end of the key sequence. Both
    contractions are batched ``matmul`` calls, so they run on BLAS; the
    float summation order is BLAS's, not a naive loop's.
    """
    dh = q.shape[-1]
    scores = q @ k.swapaxes(-1, -2)
    scores /= np.sqrt(dh)
    if causal:
        tq, tk = q.shape[-2], k.shape[-2]
        if tq > 1 or tk > tq:
            qi = np.arange(tq)[:, None] + (tk - tq)
            mask = qi < np.arange(tk)[None, :]
            if mask.any():
                # In-place masked fill: same values as the np.where
                # copy, without another score-sized temporary.
                np.copyto(scores, -1e30, where=mask)
    return softmax(scores) @ v
