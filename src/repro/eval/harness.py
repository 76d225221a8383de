"""Grid runners shared by the experiment scripts.

``accuracy_table`` routes through the single-pass evaluation engine
(:mod:`repro.eval.engine`) — one runtime load, one task-item build and
one ``QuantizedLM`` per format arm for the whole grid.
"""

from __future__ import annotations

from ..mx.base import TensorFormat
from .engine import default_engine
from .tasks import TaskSpec

__all__ = ["accuracy_table", "average_accuracy_loss"]


def accuracy_table(profile_key: str, tasks: dict[str, TaskSpec],
                   fp16_targets: dict[str, float],
                   formats: dict[str, TensorFormat],
                   n_seq: int | None = None,
                   seq_len: int | None = None) -> dict[str, dict[str, float]]:
    """Accuracy grid ``{format: {task: percent}}`` incl. the fp16 row."""
    return default_engine().accuracy_grid(profile_key, tasks, fp16_targets,
                                          formats, n_seq=n_seq,
                                          seq_len=seq_len)


def average_accuracy_loss(table: dict[str, dict[str, float]], fmt_name: str) -> float:
    """Mean accuracy drop of a format vs the fp16 row (percentage points)."""
    fp16 = table["fp16"]
    fmt = table[fmt_name]
    return sum(fp16[t] - fmt[t] for t in fp16) / len(fp16)
