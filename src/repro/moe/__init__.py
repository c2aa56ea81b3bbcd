"""MoE substrate: router, experts, fused/unfused layer, stats, pruning configs."""

from repro.moe.experts import ExpertFFN
from repro.moe.layer import MoELayer, MoELayerOutput
from repro.moe.pruning import (
    PAPER_PRUNING_RATIOS,
    PruningSpec,
    inter_expert_prune_config,
    intra_expert_prune_config,
    prune_model_config,
)
from repro.moe.router import RoutingResult, TopKRouter
from repro.moe.routing_math import expected_expert_coverage, expected_group_imbalance
from repro.moe.stats import BalanceMetrics, ExpertActivationTracker, balance_metrics

__all__ = [
    "ExpertFFN",
    "MoELayer",
    "MoELayerOutput",
    "PAPER_PRUNING_RATIOS",
    "PruningSpec",
    "inter_expert_prune_config",
    "intra_expert_prune_config",
    "prune_model_config",
    "RoutingResult",
    "TopKRouter",
    "expected_expert_coverage",
    "expected_group_imbalance",
    "BalanceMetrics",
    "ExpertActivationTracker",
    "balance_metrics",
]
