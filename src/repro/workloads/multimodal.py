"""Multimodal (MME-like) sample streams and the expert-activation study.

The paper's Fig. 15 routes the MME benchmark (2,374 image+question samples)
through DeepSeek-VL2-family models and MolmoE-1B and plots per-(layer,
expert) activation counts.  We reproduce the *mechanism*: a synthetic
stream with MME's token volume is routed through real top-k routers whose
per-expert bias concentration is calibrated to the training regime
(aux-loss-balanced → near-zero bias; unbalanced → wide bias), and the same
activation tracker produces the heatmap.

Routing statistics are invariant to hidden width, so the study runs
routers at a reduced ``hidden_size`` and, optionally, on a token subsample
whose counts are rescaled to the full stream volume.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.models.config import ModelConfig
from repro.moe.router import TopKRouter
from repro.moe.stats import ExpertActivationTracker

__all__ = [
    "MME_NUM_SAMPLES",
    "MMEStream",
    "BALANCED_ROUTER_BIAS_STD",
    "UNBALANCED_ROUTER_BIAS_STD",
    "router_bias_std_for",
    "build_layer_routers",
    "run_activation_study",
]

MME_NUM_SAMPLES = 2374
"""Number of samples in the MME perception+cognition benchmark."""

BALANCED_ROUTER_BIAS_STD = 0.15
"""Router logit-bias spread of an aux-loss-balanced model (DeepSeek family):
produces the paper's 'relatively uniform' heatmap with peak ≈ 2x mean."""

UNBALANCED_ROUTER_BIAS_STD = 0.75
"""Bias spread of a model trained without strong balancing (MolmoE):
produces the paper's sparse heatmap with peak ≈ 5x mean."""

_DRAW_BLOCK_ROWS = 1_024
"""Rows of the float64 block a token chunk is drawn through."""


@dataclass(frozen=True)
class MMEStream:
    """A synthetic stream of image+question samples."""

    num_samples: int = MME_NUM_SAMPLES
    image_tokens: int = 576
    mean_text_tokens: int = 48

    def __post_init__(self) -> None:
        if self.num_samples <= 0:
            raise ValueError("num_samples must be positive")
        if self.image_tokens < 0 or self.mean_text_tokens <= 0:
            raise ValueError("token counts must be positive")

    def sample_lengths(self, rng: np.random.Generator) -> np.ndarray:
        """Per-sample LM token counts (image tokens + ~geometric text)."""
        text = rng.geometric(1.0 / self.mean_text_tokens, size=self.num_samples)
        return self.image_tokens + text

    def total_tokens(self, rng: np.random.Generator) -> int:
        return int(self.sample_lengths(rng).sum())


def router_bias_std_for(model: ModelConfig) -> float:
    """Calibrated router concentration from the model's training regime."""
    if model.moe is None:
        raise ValueError(f"{model.name} has no MoE block")
    return (
        BALANCED_ROUTER_BIAS_STD if model.moe.balanced_routing
        else UNBALANCED_ROUTER_BIAS_STD
    )


def build_layer_routers(
    model: ModelConfig,
    router_hidden: int = 128,
    rng: np.random.Generator | None = None,
) -> list[TopKRouter]:
    """One calibrated router per MoE layer of ``model``.

    Each router gets independent weights and a per-expert bias with the
    spread calibrated to the model's training regime.  Router seeds are
    drawn from ``rng`` one per layer, in layer order — the shared
    construction path of :func:`run_activation_study` and the live-engine
    routing probe (:class:`repro.obs.routing.EngineRoutingProbe`), so both
    see identical routers given identically-advanced generators.
    """
    if model.moe is None:
        raise ValueError(f"{model.name} has no MoE layers")
    rng = rng or np.random.default_rng(0)
    bias_std = router_bias_std_for(model)
    return [
        TopKRouter(
            router_hidden,
            model.moe.num_experts,
            model.moe.top_k,
            renormalize=model.moe.renormalize,
            expert_bias_std=bias_std,
            rng=np.random.default_rng(rng.integers(2**63)),
        )
        for _ in model.moe_layer_indices()
    ]


def _draw_normal_rows(rng: np.random.Generator, out: np.ndarray,
                     block: np.ndarray) -> np.ndarray:
    """Fill float32 ``out`` with ``rng.normal(size=out.shape)`` cast to
    float32, bit for bit and leaving ``rng`` in the same state, without a
    float64 array of ``out``'s size: the values are drawn into the float64
    ``block`` (same column count) a block of rows at a time, in the order
    one draw fills them, and rounded into ``out``."""
    rows = len(block)
    for start in range(0, len(out), rows):
        part = block[: len(out) - start]
        rng.standard_normal(out=part)
        out[start:start + rows] = part
    return out


def run_activation_study(
    model: ModelConfig,
    stream: MMEStream | None = None,
    rng: np.random.Generator | None = None,
    router_hidden: int = 128,
    max_routed_tokens: int = 200_000,
    chunk: int = 16_384,
) -> ExpertActivationTracker:
    """Route an MME-like stream through the model's routers (Fig. 15).

    Each MoE layer gets its own router (independent weights + per-expert
    bias with the calibrated spread).  At most ``max_routed_tokens`` are
    actually routed; counts are rescaled to the full stream volume, which
    preserves the frequency map up to sampling noise.
    """
    if model.moe is None:
        raise ValueError(f"{model.name} has no MoE layers")
    stream = stream or MMEStream()
    rng = rng or np.random.default_rng(0)
    moe_layers = model.moe_layer_indices()
    tracker = ExpertActivationTracker(len(moe_layers), model.moe.num_experts)

    total_tokens = stream.total_tokens(rng)
    routed = min(total_tokens, max_routed_tokens)
    scale = total_tokens / routed

    routers = build_layer_routers(model, router_hidden, rng)

    block = np.empty((_DRAW_BLOCK_ROWS, router_hidden))
    buf = np.empty((min(chunk, routed), router_hidden), dtype=np.float32)
    remaining = routed
    while remaining > 0:
        n = min(chunk, remaining)
        x = _draw_normal_rows(rng, buf[:n], block)
        for slot, router in enumerate(routers):
            counts = router.route_counts(x)
            tracker.record_counts(slot, np.round(counts * scale).astype(np.int64))
        remaining -= n
    tracker.tokens_seen = total_tokens
    return tracker
