"""Stateless tensor ops behind the router and the MoE layer.

All functions are vectorized, operate on the trailing axes, and avoid
unnecessary copies (views + in-place where safe), per the HPC guide idioms.
"""

from __future__ import annotations

import numpy as np

__all__ = ["softmax", "silu", "swiglu", "top_k_indices"]


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``."""
    x = np.asarray(x, dtype=np.float32)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def silu(x: np.ndarray) -> np.ndarray:
    """SiLU / swish activation: ``x * sigmoid(x)``.

    Uses the tanh form of the sigmoid, which never overflows.
    """
    x = np.asarray(x, dtype=np.float32)
    return x * 0.5 * (1.0 + np.tanh(0.5 * x))


def swiglu(gate: np.ndarray, up: np.ndarray) -> np.ndarray:
    """Gated activation used by SwiGLU FFNs: ``silu(gate) * up``."""
    return silu(gate) * np.asarray(up, dtype=np.float32)


def top_k_indices(x: np.ndarray, k: int, axis: int = -1) -> np.ndarray:
    """Indices of the ``k`` largest entries along ``axis``, sorted by
    descending value (deterministic tie-break by lower index, matching the
    behaviour of framework top-k kernels)."""
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    n = x.shape[axis]
    if k > n:
        raise ValueError(f"k={k} exceeds axis length {n}")
    # argpartition for O(n), then sort the k winners by value
    part = np.argpartition(-x, k - 1, axis=axis)
    topk = np.take(part, np.arange(k), axis=axis)
    vals = np.take_along_axis(x, topk, axis=axis)
    order = np.argsort(-vals, axis=axis, kind="stable")
    return np.take_along_axis(topk, order, axis=axis)
