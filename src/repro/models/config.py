"""Architecture configuration dataclasses for MoE LLMs and VLMs.

These mirror the information found in HuggingFace ``config.json`` files for
the models in the paper's Table 1, restricted to the fields that determine
inference cost: layer counts, hidden sizes, attention geometry (MHA / GQA /
MLA), MoE geometry (expert count, top-k, expert FFN width, shared experts),
and the optional vision tower of a VLM.

Everything downstream — parameter accounting (:mod:`repro.models.params`),
the analytical performance model (:mod:`repro.perfmodel`) and the router of
the activation studies (:mod:`repro.moe`) — is driven purely by these
configs, so a new model is added by writing one config entry.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass, field
from typing import Iterator


class AttentionKind(enum.Enum):
    """Flavour of the attention block, which determines KV-cache geometry."""

    MHA = "mha"
    """Classic multi-head attention: one KV head per query head."""

    GQA = "gqa"
    """Grouped-query attention: ``num_kv_heads < num_heads`` shared KV."""

    MLA = "mla"
    """Multi-head latent attention (DeepSeek-V2): KV compressed into a
    low-rank latent plus a small decoupled RoPE key."""


@dataclass(frozen=True)
class AttentionConfig:
    """Geometry of one attention block.

    Parameters
    ----------
    num_heads:
        Number of query heads.
    num_kv_heads:
        Number of key/value heads (== ``num_heads`` for MHA).
    head_dim:
        Per-head dimension of queries (and of keys/values for MHA/GQA).
    kind:
        Attention flavour; selects both the weight shapes and the KV-cache
        layout.
    q_lora_rank, kv_lora_rank, qk_rope_head_dim, qk_nope_head_dim, v_head_dim:
        MLA-only geometry (DeepSeek-V2 style). Ignored for MHA/GQA.
    """

    num_heads: int
    num_kv_heads: int
    head_dim: int
    kind: AttentionKind = AttentionKind.GQA
    sliding_window: int = 0
    """Sliding-window attention span (Mixtral-style); 0 disables.  Bounds
    both the KV positions attended and the rolling KV-cache footprint."""
    # MLA-specific geometry (DeepSeek-V2 family).
    q_lora_rank: int = 0
    kv_lora_rank: int = 0
    qk_rope_head_dim: int = 0
    qk_nope_head_dim: int = 0
    v_head_dim: int = 0

    def __post_init__(self) -> None:
        if self.num_heads <= 0:
            raise ValueError(f"num_heads must be positive, got {self.num_heads}")
        if self.num_kv_heads <= 0:
            raise ValueError(f"num_kv_heads must be positive, got {self.num_kv_heads}")
        if self.num_heads % self.num_kv_heads != 0:
            raise ValueError(
                "num_heads must be a multiple of num_kv_heads, got "
                f"{self.num_heads} / {self.num_kv_heads}"
            )
        if self.kind is AttentionKind.MHA and self.num_kv_heads != self.num_heads:
            raise ValueError("MHA requires num_kv_heads == num_heads")
        if self.kind is AttentionKind.MLA:
            if self.kv_lora_rank <= 0:
                raise ValueError("MLA requires a positive kv_lora_rank")
            if self.qk_rope_head_dim <= 0:
                raise ValueError("MLA requires a positive qk_rope_head_dim")
        if self.sliding_window < 0:
            raise ValueError("sliding_window must be non-negative")

    @property
    def group_size(self) -> int:
        """Query heads per KV head."""
        return self.num_heads // self.num_kv_heads

    def kv_entries_per_token(self, mla_native: bool = False) -> int:
        """Number of scalar KV-cache entries stored per token per layer.

        For MHA/GQA this is ``2 * num_kv_heads * head_dim`` (K and V).  For
        MLA with native kernels (``mla_native=True``) only the compressed
        latent and the decoupled RoPE key are cached — the source of
        DeepSeek-V2's small KV footprint.  Serving stacks without native
        MLA support (the vLLM releases the paper benchmarked) *materialise*
        the decompressed per-head K/V instead, which is the default here.
        """
        if self.kind is AttentionKind.MLA:
            if mla_native:
                return self.kv_lora_rank + self.qk_rope_head_dim
            k_dim = self.qk_nope_head_dim + self.qk_rope_head_dim
            return self.num_kv_heads * (k_dim + self.v_head_dim)
        return 2 * self.num_kv_heads * self.head_dim

    def effective_kv_len(self, context_len: float) -> float:
        """KV positions actually held/attended for a context of
        ``context_len`` tokens (bounded by the sliding window)."""
        if context_len < 0:
            raise ValueError("context_len must be non-negative")
        if self.sliding_window > 0:
            return min(context_len, float(self.sliding_window))
        return context_len


@dataclass(frozen=True)
class MoEConfig:
    """Geometry of one mixture-of-experts FFN block.

    Parameters
    ----------
    num_experts:
        Total routed experts per MoE layer.
    top_k:
        Experts activated per token.
    expert_ffn_dim:
        Intermediate (FFN) width of each routed expert.
    num_shared_experts / shared_expert_ffn_dim:
        DeepSeek/Qwen-style always-active shared experts.  The shared FFN's
        total width is ``num_shared_experts * shared_expert_ffn_dim``.
    gated:
        Whether experts use a gated activation (SwiGLU: 3 matrices) or a
        plain 2-matrix MLP.
    renormalize:
        Whether top-k router probabilities are renormalised to sum to 1.
    balanced_routing:
        Whether the model was trained with an auxiliary load-balancing loss
        (DeepSeek family) — used by the routing-statistics simulation to
        pick a calibrated router concentration (paper Fig. 15).
    """

    num_experts: int
    top_k: int
    expert_ffn_dim: int
    num_shared_experts: int = 0
    shared_expert_ffn_dim: int = 0
    gated: bool = True
    renormalize: bool = True
    balanced_routing: bool = True

    def __post_init__(self) -> None:
        if self.num_experts <= 0:
            raise ValueError(f"num_experts must be positive, got {self.num_experts}")
        if not (1 <= self.top_k <= self.num_experts):
            raise ValueError(
                f"top_k must be in [1, num_experts]; got top_k={self.top_k}, "
                f"num_experts={self.num_experts}"
            )
        if self.expert_ffn_dim <= 0:
            raise ValueError(f"expert_ffn_dim must be positive, got {self.expert_ffn_dim}")
        if self.num_shared_experts < 0:
            raise ValueError("num_shared_experts must be non-negative")
        if self.num_shared_experts > 0 and self.shared_expert_ffn_dim <= 0:
            raise ValueError("shared experts require a positive shared_expert_ffn_dim")

    @property
    def sparsity(self) -> float:
        """Fraction of routed expert parameters active per token."""
        return self.top_k / self.num_experts

    def with_pruned_experts(self, keep: int) -> "MoEConfig":
        """Return a config with only ``keep`` experts (inter-expert pruning)."""
        if not (1 <= keep <= self.num_experts):
            raise ValueError(f"keep must be in [1, {self.num_experts}], got {keep}")
        return dataclasses.replace(
            self, num_experts=keep, top_k=min(self.top_k, keep)
        )

    def with_ffn_dim(self, ffn_dim: int) -> "MoEConfig":
        """Return a config with a reduced expert width (intra-expert pruning)."""
        if ffn_dim <= 0:
            raise ValueError(f"ffn_dim must be positive, got {ffn_dim}")
        return dataclasses.replace(self, expert_ffn_dim=ffn_dim)

    def with_top_k(self, top_k: int) -> "MoEConfig":
        """Return a config with a different number of active experts."""
        if not (1 <= top_k <= self.num_experts):
            raise ValueError(f"top_k must be in [1, {self.num_experts}], got {top_k}")
        return dataclasses.replace(self, top_k=top_k)


@dataclass(frozen=True)
class VisionConfig:
    """A ViT-style vision tower plus projector, as used by DeepSeek-VL2.

    The tower is a dense transformer encoder over image patches; its output
    is projected into the language model's embedding space and prepended to
    the text tokens.  For performance purposes the tower contributes a fixed
    per-image prefill cost and ``image_tokens`` extra context tokens.
    """

    num_layers: int
    hidden_size: int
    ffn_dim: int
    num_heads: int
    image_tokens: int
    patch_size: int = 14
    image_size: int = 384

    def __post_init__(self) -> None:
        for name in ("num_layers", "hidden_size", "ffn_dim", "num_heads", "image_tokens"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class ModelConfig:
    """Complete architecture description of one model in the zoo.

    A model is a stack of ``num_layers`` decoder layers.  Layer ``i`` uses a
    MoE FFN iff ``moe is not None`` and ``i`` is in the MoE schedule
    (``first_k_dense`` leading layers are dense, and ``moe_layer_stride``
    allows interleaved designs such as Llama-4's every-other-layer MoE);
    otherwise it uses a dense FFN of width ``dense_ffn_dim``.
    """

    name: str
    num_layers: int
    hidden_size: int
    vocab_size: int
    attention: AttentionConfig
    dense_ffn_dim: int
    moe: MoEConfig | None = None
    first_k_dense: int = 0
    moe_layer_stride: int = 1
    tie_embeddings: bool = False
    vision: VisionConfig | None = None
    modality: str = "text"
    # Published parameter counts (for cross-checking our accounting against
    # the paper's Table 1); 0 means "not published".
    published_total_params: float = 0.0
    published_active_params: float = 0.0

    def __post_init__(self) -> None:
        if self.num_layers <= 0:
            raise ValueError(f"num_layers must be positive, got {self.num_layers}")
        if self.hidden_size <= 0:
            raise ValueError(f"hidden_size must be positive, got {self.hidden_size}")
        if self.vocab_size <= 0:
            raise ValueError(f"vocab_size must be positive, got {self.vocab_size}")
        if self.dense_ffn_dim < 0:
            raise ValueError("dense_ffn_dim must be non-negative")
        if self.first_k_dense < 0 or self.first_k_dense > self.num_layers:
            raise ValueError(
                f"first_k_dense must be in [0, num_layers]; got {self.first_k_dense}"
            )
        if self.moe_layer_stride <= 0:
            raise ValueError("moe_layer_stride must be positive")
        if self.modality not in ("text", "text+image"):
            raise ValueError(f"unknown modality {self.modality!r}")
        if self.modality == "text+image" and self.vision is None:
            raise ValueError("text+image models must define a vision tower")

    # ------------------------------------------------------------------ #
    # layer schedule
    # ------------------------------------------------------------------ #

    def is_moe_layer(self, layer_idx: int) -> bool:
        """Whether decoder layer ``layer_idx`` uses the MoE FFN."""
        if not (0 <= layer_idx < self.num_layers):
            raise IndexError(f"layer_idx {layer_idx} out of range [0, {self.num_layers})")
        if self.moe is None:
            return False
        if layer_idx < self.first_k_dense:
            return False
        return (layer_idx - self.first_k_dense) % self.moe_layer_stride == 0

    def moe_layer_indices(self) -> list[int]:
        """Indices of all MoE layers."""
        return [i for i in range(self.num_layers) if self.is_moe_layer(i)]

    @property
    def num_moe_layers(self) -> int:
        return len(self.moe_layer_indices())

    @property
    def num_dense_layers(self) -> int:
        return self.num_layers - self.num_moe_layers

    @property
    def is_moe(self) -> bool:
        return self.moe is not None and self.num_moe_layers > 0

    @property
    def is_vlm(self) -> bool:
        return self.vision is not None

    def iter_layers(self) -> Iterator[tuple[int, bool]]:
        """Yield ``(layer_idx, is_moe)`` for every decoder layer."""
        for i in range(self.num_layers):
            yield i, self.is_moe_layer(i)

    # ------------------------------------------------------------------ #
    # derived transforms (used by the hyperparameter sweeps, Figs. 7-9)
    # ------------------------------------------------------------------ #

    def with_moe(self, moe: MoEConfig) -> "ModelConfig":
        """Return a variant of this model with a different MoE block."""
        return dataclasses.replace(self, moe=moe)

    def with_name(self, name: str) -> "ModelConfig":
        return dataclasses.replace(self, name=name)
