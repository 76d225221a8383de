"""Evaluation harness: perplexity, output MSE, synthetic task accuracy.

The grid entry points run through the single-pass multi-format engine
in :mod:`repro.eval.engine`.
"""

from .engine import EvalEngine, default_engine
from .harness import accuracy_table, average_accuracy_loss
from .mse import model_output_mse, tensor_mse
from .perplexity import perplexity_table, quantized_perplexity
from .tasks import (REASONING_TASKS, ZERO_SHOT_TASKS, TaskItems, TaskSpec,
                    accuracy, build_task_items, evaluate_format_on_task,
                    score_items)

__all__ = [
    "EvalEngine", "default_engine",
    "quantized_perplexity", "perplexity_table",
    "model_output_mse", "tensor_mse",
    "TaskSpec", "TaskItems", "ZERO_SHOT_TASKS", "REASONING_TASKS",
    "build_task_items", "score_items", "accuracy", "evaluate_format_on_task",
    "accuracy_table", "average_accuracy_loss",
]
