"""Expert capacity limits and token dropping (Switch-Transformer style).

Production MoE systems bound each expert's per-batch load with a *capacity
factor*: expert ``e`` may process at most

    capacity = ceil(capacity_factor * num_tokens * top_k / num_experts)

tokens; the lowest-priority overflow tokens are dropped (their expert slot
contributes nothing and the residual passes through).  This is the
mechanism behind the paper's load-imbalance discussion: a skewed router
either drops tokens (capacity-limited systems) or stalls the hot expert's
device (capacity-free systems like vLLM).

:func:`apply_capacity` turns a routing decision into a capacity-limited
one, reporting exactly which (token, slot) assignments were dropped, and
:func:`drop_statistics` summarises drop rates for a router + workload.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.moe.router import RoutingResult, TopKRouter

__all__ = ["CapacityResult", "expert_capacity", "apply_capacity", "drop_statistics"]


def expert_capacity(num_tokens: int, num_experts: int, top_k: int,
                    capacity_factor: float) -> int:
    """Per-expert token budget for one batch."""
    if num_tokens <= 0 or num_experts <= 0 or top_k <= 0:
        raise ValueError("num_tokens, num_experts and top_k must be positive")
    if capacity_factor <= 0:
        raise ValueError("capacity_factor must be positive")
    return max(1, math.ceil(capacity_factor * num_tokens * top_k / num_experts))


@dataclass(frozen=True)
class CapacityResult:
    """A routing decision after capacity enforcement."""

    routing: RoutingResult
    kept_mask: np.ndarray
    """(num_tokens, top_k) bool: which assignments survived."""
    capacity: int

    @property
    def num_dropped(self) -> int:
        return int((~self.kept_mask).sum())

    @property
    def drop_rate(self) -> float:
        return self.num_dropped / self.kept_mask.size

    def dropped_tokens(self) -> np.ndarray:
        """Tokens that lost *all* their expert slots (pure residual)."""
        return np.nonzero(~self.kept_mask.any(axis=1))[0]


def apply_capacity(routing: RoutingResult, capacity: int) -> CapacityResult:
    """Enforce a per-expert capacity on a routing decision.

    Assignments are prioritised by router weight (highest first), matching
    the standard implementation; ties break by token order for determinism.

    Filling experts greedily in that priority order keeps an assignment
    exactly when fewer than ``capacity`` assignments to its expert come
    before it, so the mask is computed from each assignment's rank within
    its expert: a stable sort by expert of the priority order.
    """
    if capacity <= 0:
        raise ValueError("capacity must be positive")
    n, k = routing.indices.shape
    order = np.argsort(-routing.weights.ravel(), kind="stable")
    experts = routing.indices.ravel()[order]
    grouped = np.argsort(experts, kind="stable")
    counts = np.bincount(experts, minlength=routing.num_experts)
    starts = np.cumsum(counts) - counts
    rank = np.arange(n * k) - starts[experts[grouped]]
    kept = np.zeros(n * k, dtype=bool)
    kept[order[grouped[rank < capacity]]] = True
    return CapacityResult(routing=routing, kept_mask=kept.reshape(n, k),
                          capacity=capacity)


def drop_statistics(
    router: TopKRouter,
    hidden: np.ndarray,
    capacity_factor: float,
) -> dict[str, float]:
    """Route ``hidden`` and report drop statistics at ``capacity_factor``.

    Returns ``drop_rate`` (fraction of assignments dropped),
    ``token_drop_rate`` (tokens with every slot dropped) and the capacity.
    """
    routing = router.route(hidden)
    cap = expert_capacity(routing.num_tokens, routing.num_experts,
                          routing.top_k, capacity_factor)
    result = apply_capacity(routing, cap)
    return {
        "capacity": float(cap),
        "drop_rate": result.drop_rate,
        "token_drop_rate": len(result.dropped_tokens()) / routing.num_tokens,
    }
