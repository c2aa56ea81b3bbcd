"""The MoE layer: routing + expert execution + combine.

Two execution paths are provided, mirroring the paper's §7.2 (Fused MoE):

* ``mode="fused"`` — tokens are sorted by expert once and each expert
  processes one contiguous slab; routing, dispatch and combine happen in a
  single pass over the data (the NumPy analogue of a fused grouped-GEMM
  kernel).  Kernel-launch count is O(1) per layer.
* ``mode="unfused"`` — the naive implementation: for every expert, a mask
  is built over *all* tokens, tokens are gathered, processed and scattered
  back in separate steps, with intermediate buffers in between.  Kernel
  launch count is O(num_experts).

Both paths compute the same function; a test asserts elementwise agreement.
The simulated ``kernel_launches`` counter feeds the fused-vs-unfused
performance comparison (Fig. 14).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.models.config import MoEConfig
from repro.moe.experts import ExpertFFN
from repro.moe.router import RoutingResult, TopKRouter
from repro.tensor.dtypes import DType, FP32

__all__ = ["MoELayerOutput", "MoELayer"]

_MODES = ("fused", "unfused")


@dataclass
class MoELayerOutput:
    """Result of one MoE layer forward."""

    hidden: np.ndarray
    routing: RoutingResult
    kernel_launches: int


class MoELayer:
    """Router + routed experts (+ optional always-on shared experts)."""

    def __init__(
        self,
        hidden_size: int,
        cfg: MoEConfig,
        rng: np.random.Generator | None = None,
        expert_bias_std: float = 0.0,
        weight_dtype: DType | str = FP32,
    ) -> None:
        rng = rng or np.random.default_rng(0)
        self.hidden_size = hidden_size
        self.cfg = cfg
        self.router = TopKRouter(
            hidden_size,
            cfg.num_experts,
            cfg.top_k,
            renormalize=cfg.renormalize,
            expert_bias_std=expert_bias_std,
            rng=rng,
        )
        self.experts = [
            ExpertFFN(hidden_size, cfg.expert_ffn_dim, rng, cfg.gated, weight_dtype)
            for _ in range(cfg.num_experts)
        ]
        self.shared_experts = [
            ExpertFFN(hidden_size, cfg.shared_expert_ffn_dim, rng, cfg.gated, weight_dtype)
            for _ in range(cfg.num_shared_experts)
        ]

    @property
    def num_params(self) -> int:
        n = self.router.weight.size + sum(e.num_params for e in self.experts)
        n += sum(e.num_params for e in self.shared_experts)
        return n

    def subscribe(self, observer) -> None:
        """Stream this layer's routing decisions to ``observer``.

        Observers see the raw router output (before any capacity-factor
        token dropping), matching what the activation-frequency telemetry
        counts.
        """
        self.router.subscribe(observer)

    def unsubscribe(self, observer) -> None:
        self.router.unsubscribe(observer)

    # ------------------------------------------------------------------ #
    # forward
    # ------------------------------------------------------------------ #

    def __call__(self, x: np.ndarray, mode: str = "fused",
                 capacity_factor: float | None = None) -> MoELayerOutput:
        """Apply the layer to ``(num_tokens, hidden)`` tokens.

        ``capacity_factor`` optionally enforces Switch-style per-expert
        capacity: overflow assignments are dropped (their combine weight is
        zeroed), so hot experts never exceed their budget.
        """
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        x = np.asarray(x, dtype=np.float32)
        if x.ndim != 2 or x.shape[1] != self.hidden_size:
            raise ValueError(f"x must be (num_tokens, {self.hidden_size}), got {x.shape}")
        routing = self.router.route(x)
        if capacity_factor is not None:
            from repro.moe.capacity import apply_capacity, expert_capacity

            cap = expert_capacity(routing.num_tokens, self.cfg.num_experts,
                                  routing.top_k, capacity_factor)
            kept = apply_capacity(routing, cap).kept_mask
            from repro.moe.router import RoutingResult

            routing = RoutingResult(
                indices=routing.indices,
                weights=np.where(kept, routing.weights, 0.0).astype(np.float32),
                probs=routing.probs,
            )
        if mode == "fused":
            out, launches = self._forward_fused(x, routing)
        else:
            out, launches = self._forward_unfused(x, routing)
        for shared in self.shared_experts:
            out = out + shared(x)
            launches += 1 if mode == "fused" else 3
        return MoELayerOutput(hidden=out, routing=routing, kernel_launches=launches)

    def _forward_fused(
        self, x: np.ndarray, routing: RoutingResult
    ) -> tuple[np.ndarray, int]:
        """Sort token-expert pairs by expert; one contiguous slab per expert."""
        n, k = routing.indices.shape
        flat_expert = routing.indices.ravel()  # (n*k,)
        flat_token = np.repeat(np.arange(n), k)
        flat_weight = routing.weights.ravel()

        order = np.argsort(flat_expert, kind="stable")
        sorted_expert = flat_expert[order]
        sorted_token = flat_token[order]
        sorted_weight = flat_weight[order]

        out = np.zeros_like(x)
        # boundaries of each expert's contiguous slab
        boundaries = np.searchsorted(sorted_expert, np.arange(self.cfg.num_experts + 1))
        for e in range(self.cfg.num_experts):
            lo, hi = boundaries[e], boundaries[e + 1]
            if lo == hi:
                continue
            toks = sorted_token[lo:hi]
            y = self.experts[e](x[toks])
            np.add.at(out, toks, y * sorted_weight[lo:hi, None])
        # one routing kernel + one grouped-GEMM pass + one combine
        return out, 3

    def _forward_unfused(
        self, x: np.ndarray, routing: RoutingResult
    ) -> tuple[np.ndarray, int]:
        """Naive per-expert mask/gather/compute/scatter with intermediates."""
        out = np.zeros_like(x)
        launches = 1  # router
        for e in range(self.cfg.num_experts):
            mask = routing.indices == e  # (n, k)
            token_idx, slot_idx = np.nonzero(mask)
            launches += 4  # mask build, gather, expert GEMMs, scatter
            if len(token_idx) == 0:
                continue
            gathered = x[token_idx].copy()  # explicit intermediate buffer
            y = self.experts[e](gathered)
            w = routing.weights[token_idx, slot_idx][:, None]
            np.add.at(out, token_idx, y * w)
        return out, launches
