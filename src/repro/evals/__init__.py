"""Accuracy reference tables and the accuracy-efficiency frontier (paper §8)."""

from repro.evals.accuracy import (
    LLM_TASK_ACCURACY,
    LM_EVAL_TASKS,
    VLM_EVAL_TASKS,
    VLM_TASK_ACCURACY,
    average_accuracy,
    predicted_accuracy,
    task_accuracy,
)
from repro.evals.harness import FrontierPoint, accuracy_efficiency_frontier

__all__ = [
    "LLM_TASK_ACCURACY",
    "LM_EVAL_TASKS",
    "VLM_EVAL_TASKS",
    "VLM_TASK_ACCURACY",
    "average_accuracy",
    "predicted_accuracy",
    "task_accuracy",
    "FrontierPoint",
    "accuracy_efficiency_frontier",
]
