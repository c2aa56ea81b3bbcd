"""Expert pruning transforms (paper §6.2).

Two families, matching the paper:

* **Inter-expert pruning** removes whole experts (and their router columns),
  keeping top-k unchanged — less resident memory, same per-token compute.
* **Intra-expert pruning** shrinks every expert's FFN width, keeping the
  expert count — less per-token compute, same routing.

Both are config transforms: the analytical performance model prices the
pruned model (Fig. 11).  The paper's ratios {12.5%, 25%, 50%} are exposed
as ``PAPER_PRUNING_RATIOS``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.models.config import ModelConfig, MoEConfig

__all__ = [
    "PAPER_PRUNING_RATIOS",
    "PruningSpec",
    "inter_expert_prune_config",
    "intra_expert_prune_config",
    "prune_model_config",
]

PAPER_PRUNING_RATIOS = (0.125, 0.25, 0.50)


@dataclass(frozen=True)
class PruningSpec:
    """One pruning configuration: ``kind`` in {"inter", "intra"} and the
    fraction removed."""

    kind: str
    ratio: float

    def __post_init__(self) -> None:
        if self.kind not in ("inter", "intra"):
            raise ValueError(f"kind must be 'inter' or 'intra', got {self.kind!r}")
        if not (0.0 < self.ratio < 1.0):
            raise ValueError(f"ratio must be in (0, 1), got {self.ratio}")

    @property
    def label(self) -> str:
        return f"{self.kind}-{self.ratio * 100:g}%"


def inter_expert_prune_config(moe: MoEConfig, ratio: float) -> MoEConfig:
    """Remove ``ratio`` of the experts (e.g. 0.125 removes 8 of 64)."""
    removed = int(round(moe.num_experts * ratio))
    keep = moe.num_experts - removed
    if keep < 1:
        raise ValueError(f"ratio {ratio} would remove all {moe.num_experts} experts")
    if keep < moe.top_k:
        raise ValueError(
            f"ratio {ratio} leaves {keep} experts < top_k {moe.top_k}"
        )
    return moe.with_pruned_experts(keep)


def intra_expert_prune_config(moe: MoEConfig, ratio: float) -> MoEConfig:
    """Shrink every expert's FFN width by ``ratio`` (0.25 keeps 3/4)."""
    new_dim = max(1, int(round(moe.expert_ffn_dim * (1.0 - ratio))))
    return moe.with_ffn_dim(new_dim)


def prune_model_config(model: ModelConfig, spec: PruningSpec) -> ModelConfig:
    """Apply a pruning spec to a whole model config."""
    if model.moe is None:
        raise ValueError(f"{model.name} has no MoE block to prune")
    if spec.kind == "inter":
        moe = inter_expert_prune_config(model.moe, spec.ratio)
    else:
        moe = intra_expert_prune_config(model.moe, spec.ratio)
    return model.with_moe(moe).with_name(f"{model.name}[{spec.label}]")
