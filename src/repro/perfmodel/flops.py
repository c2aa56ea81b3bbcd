"""Per-component FLOP / byte / launch accounting for one inference step.

Each function returns a :class:`ComponentCost` describing one logical
component of a decoder layer (projections, attention core, router, routed
experts, ...) for a step that processes ``m`` new tokens.  The phase model
(:mod:`repro.perfmodel.phases`) converts these into times via the roofline.
The step shape (``m``, ``batch``, ``kv_len``, ``attended_len``) is
Python floats; ``kv_len`` may also be a float64 array of contexts (the
serving engine's decode row), with the same bits per context (see
:mod:`repro.hardware.roofline`).

The routing statistics that shape the MoE cost (expert coverage, EP load
imbalance) live in :mod:`repro.moe.routing_math` and are re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.roofline import _map, _maximum, _minimum
from repro.models.config import AttentionKind, ModelConfig
from repro.models.params import attention_params
from repro.moe.routing_math import (
    expected_expert_coverage,
    expected_group_imbalance,
)
from repro.optim.quantization import QuantConfig

__all__ = [
    "ComponentCost",
    "expected_expert_coverage",
    "expected_group_imbalance",
    "qkvo_cost",
    "attention_core_cost",
    "router_cost",
    "routed_experts_cost",
    "shared_expert_cost",
    "dense_ffn_cost",
    "lm_head_cost",
    "embedding_cost",
]


@dataclass
class ComponentCost:
    """Raw cost of one component of one layer for one step.

    ``gemm_m/n/k`` describe the dominant GEMM shape (for the efficiency
    curve); a component without a meaningful GEMM sets them to 0
    (``gemm_k == 0``) and runs at the hardware's flat peak efficiency.

    Treat instances as immutable.  The class is not frozen because a
    frozen dataclass takes about three times as long to construct, and
    the step model builds seven of these for every step it prices.
    """

    name: str
    flops: float
    weight_bytes: float
    act_bytes: float
    launches: int
    gemm_m: float = 0.0
    gemm_n: float = 0.0
    gemm_k: float = 0.0

    @property
    def bytes(self) -> float:
        return self.weight_bytes + self.act_bytes


# --------------------------------------------------------------------- #
# per-component costs (single device; sharding applied by the phase model)
# --------------------------------------------------------------------- #


def qkvo_cost(model: ModelConfig, m: float, quant: QuantConfig) -> ComponentCost:
    """Q/K/V/O projections of one layer for ``m`` tokens."""
    h = model.hidden_size
    n_params = attention_params(model.attention, h)
    flops = 2.0 * m * n_params
    w_bytes = n_params * quant.weight_bytes
    # in/out activations of the four projections ≈ 4 reads + 4 writes of m*h
    a_bytes = 8.0 * m * h * quant.activation_bytes
    # q/k/v fused into one kernel in modern stacks; o separate; + rope + norm
    return ComponentCost(
        "qkvo", flops, w_bytes, a_bytes, launches=4,
        gemm_m=m, gemm_n=n_params / h, gemm_k=h,
    )


def attention_core_cost(
    model: ModelConfig,
    m: float,
    batch: float,
    kv_len: float,
    quant: QuantConfig,
    attended_len: float | None = None,
    mla_native: bool = False,
) -> ComponentCost:
    """Scaled-dot-product attention over the cached prefix.

    ``m`` new tokens across ``batch`` sequences; the KV read streams
    ``kv_len`` cached positions per sequence, while FLOPs scale with the
    *average attended* length (``(S+1)/2`` under a causal mask during
    prefill — pass it via ``attended_len``; decode attends to everything).
    ``mla_native`` selects compressed-latent caching for MLA models (see
    :meth:`AttentionConfig.kv_entries_per_token`).
    """
    att = model.attention
    if attended_len is None:
        attended_len = kv_len
    # sliding-window attention bounds both the attended span and the
    # rolling KV buffer each sequence keeps resident
    if att.sliding_window > 0:
        kv_len = _minimum(kv_len, float(att.sliding_window))
        attended_len = _minimum(attended_len, float(att.sliding_window))
    if att.kind is AttentionKind.MLA:
        d_qk = att.qk_nope_head_dim + att.qk_rope_head_dim
        d_v = att.v_head_dim
    else:
        d_qk = d_v = att.head_dim
    entries = att.kv_entries_per_token(mla_native)
    flops = 2.0 * m * att.num_heads * attended_len * (d_qk + d_v)
    kv_read = batch * kv_len * entries * quant.kv_bytes
    kv_write = m * entries * quant.kv_bytes
    a_bytes = 2.0 * m * model.hidden_size * quant.activation_bytes
    return ComponentCost(
        "attention", flops, 0.0, kv_read + kv_write + a_bytes, launches=1,
        gemm_m=m, gemm_n=attended_len, gemm_k=d_qk,
    )


def router_cost(model: ModelConfig, m: float, quant: QuantConfig) -> ComponentCost:
    """Gating network of one MoE layer: an ``m × E`` GEMM plus top-k."""
    assert model.moe is not None
    h, e = model.hidden_size, model.moe.num_experts
    flops = 2.0 * m * h * e
    w_bytes = h * e * quant.weight_bytes
    a_bytes = m * (h + e) * quant.activation_bytes
    return ComponentCost("router", flops, w_bytes, a_bytes, launches=2,
                         gemm_m=m, gemm_n=e, gemm_k=h)


def routed_experts_cost(
    model: ModelConfig,
    m: float,
    quant: QuantConfig,
    fused: bool = True,
    num_experts_resident: int | None = None,
    top_k: int | None = None,
) -> ComponentCost:
    """Routed expert FFNs of one MoE layer for ``m`` tokens.

    Compute scales with ``m * top_k``; weight traffic scales with the
    *expected expert coverage* — the distinct experts the batch touches.
    The unfused path pays per-expert kernel launches and re-materialises
    the dispatched activations (extra activation traffic).
    """
    assert model.moe is not None
    moe = model.moe
    e = num_experts_resident if num_experts_resident is not None else moe.num_experts
    k = top_k if top_k is not None else moe.top_k
    h, f = model.hidden_size, moe.expert_ffn_dim
    n_mats = 3 if moe.gated else 2

    per_expert = n_mats * h * f
    coverage = _map(lambda x: expected_expert_coverage(e, min(k, e), x), m)
    flops = 2.0 * m * k * per_expert
    w_bytes = coverage * per_expert * quant.weight_bytes
    # dispatch duplicates each token k times; intermediate is m*k*f
    a_bytes = (2.0 * m * h + 2.0 * m * k * h + 2.0 * m * k * f) * quant.activation_bytes
    if fused:
        launches = 3  # permute + grouped GEMM pass + combine
    else:
        # one gather/GEMM/scatter group per resident expert + combine;
        # dispatched activations are re-materialised, and the per-expert
        # weight streams lose coalescing relative to the grouped kernel
        launches = e + 2
        a_bytes *= 2.0
        w_bytes *= 1.15

    tokens_per_expert = m * k / _maximum(coverage, 1.0)
    return ComponentCost(
        "experts", flops, w_bytes, a_bytes, launches=launches,
        gemm_m=tokens_per_expert, gemm_n=f, gemm_k=h,
    )


def shared_expert_cost(model: ModelConfig, m: float, quant: QuantConfig) -> ComponentCost:
    """Always-active shared experts of one MoE layer (dense FFN cost)."""
    assert model.moe is not None
    moe = model.moe
    if moe.num_shared_experts == 0:
        return ComponentCost("shared", 0.0, 0.0, 0.0, launches=0)
    h = model.hidden_size
    f_total = moe.num_shared_experts * moe.shared_expert_ffn_dim
    n_mats = 3 if moe.gated else 2
    n_params = n_mats * h * f_total
    flops = 2.0 * m * n_params
    w_bytes = n_params * quant.weight_bytes
    a_bytes = (2.0 * m * h + 2.0 * m * f_total) * quant.activation_bytes
    return ComponentCost("shared", flops, w_bytes, a_bytes, launches=n_mats,
                         gemm_m=m, gemm_n=f_total, gemm_k=h)


def dense_ffn_cost(model: ModelConfig, m: float, quant: QuantConfig) -> ComponentCost:
    """Dense (non-MoE) FFN of one layer."""
    h, f = model.hidden_size, model.dense_ffn_dim
    if f == 0:
        return ComponentCost("dense_ffn", 0.0, 0.0, 0.0, launches=0)
    n_params = 3 * h * f
    flops = 2.0 * m * n_params
    w_bytes = n_params * quant.weight_bytes
    a_bytes = (2.0 * m * h + 2.0 * m * f) * quant.activation_bytes
    return ComponentCost("dense_ffn", flops, w_bytes, a_bytes, launches=3,
                         gemm_m=m, gemm_n=f, gemm_k=h)


def lm_head_cost(model: ModelConfig, m_logits: float, quant: QuantConfig) -> ComponentCost:
    """Final vocabulary projection for ``m_logits`` positions (decode: one
    per sequence; prefill: only the last position per sequence)."""
    h, v = model.hidden_size, model.vocab_size
    flops = 2.0 * m_logits * h * v
    w_bytes = h * v * quant.weight_bytes
    a_bytes = m_logits * (h + v) * quant.activation_bytes
    return ComponentCost("lm_head", flops, w_bytes, a_bytes, launches=2,
                         gemm_m=m_logits, gemm_n=v, gemm_k=h)


def embedding_cost(model: ModelConfig, m: float, quant: QuantConfig) -> ComponentCost:
    """Token-embedding gather for ``m`` tokens (pure memory)."""
    h = model.hidden_size
    a_bytes = 2.0 * m * h * quant.activation_bytes
    return ComponentCost("embedding", 0.0, 0.0, a_bytes, launches=1)
