"""Tests for repro.moe.pruning (paper §6.2 semantics)."""

from __future__ import annotations

import pytest

from repro.models.config import MoEConfig
from repro.models.params import model_params
from repro.models.zoo import OLMOE_1B_7B
from repro.moe.pruning import (
    PAPER_PRUNING_RATIOS,
    PruningSpec,
    inter_expert_prune_config,
    intra_expert_prune_config,
    prune_model_config,
)


class TestSpec:
    def test_paper_ratios(self):
        assert PAPER_PRUNING_RATIOS == (0.125, 0.25, 0.50)

    def test_label(self):
        assert PruningSpec("inter", 0.125).label == "inter-12.5%"

    def test_validation(self):
        with pytest.raises(ValueError):
            PruningSpec("both", 0.5)
        with pytest.raises(ValueError):
            PruningSpec("inter", 1.0)


class TestConfigTransforms:
    def test_inter_removes_eighth(self):
        """Paper: 12.5% inter pruning removes 1/8 of experts (8 of 64)."""
        moe = MoEConfig(num_experts=64, top_k=8, expert_ffn_dim=128)
        assert inter_expert_prune_config(moe, 0.125).num_experts == 56

    def test_intra_shrinks_quarter(self):
        """Paper: 25% intra pruning reduces FFN dim by 1/4."""
        moe = MoEConfig(num_experts=8, top_k=2, expert_ffn_dim=1024)
        assert intra_expert_prune_config(moe, 0.25).expert_ffn_dim == 768

    def test_inter_keeps_top_k(self):
        moe = MoEConfig(num_experts=64, top_k=8, expert_ffn_dim=128)
        assert inter_expert_prune_config(moe, 0.5).top_k == 8

    def test_inter_cannot_drop_below_top_k(self):
        moe = MoEConfig(num_experts=8, top_k=6, expert_ffn_dim=128)
        with pytest.raises(ValueError, match="top_k"):
            inter_expert_prune_config(moe, 0.5)

    def test_prune_model_config_renames(self):
        pruned = prune_model_config(OLMOE_1B_7B, PruningSpec("inter", 0.25))
        assert "inter-25%" in pruned.name
        assert pruned.moe.num_experts == 48

    def test_prune_dense_model_rejected(self, tiny_dense_model):
        with pytest.raises(ValueError, match="MoE"):
            prune_model_config(tiny_dense_model, PruningSpec("intra", 0.25))

    def test_inter_reduces_total_not_active(self):
        base = model_params(OLMOE_1B_7B)
        pruned_cfg = prune_model_config(OLMOE_1B_7B, PruningSpec("inter", 0.5))
        pruned = model_params(pruned_cfg)
        assert pruned.total < base.total
        # active per token is ~unchanged (same top-k, same expert size;
        # only the router's dropped columns disappear)
        assert pruned.active == pytest.approx(base.active, rel=1e-2)

    def test_intra_reduces_both(self):
        base = model_params(OLMOE_1B_7B)
        pruned = model_params(prune_model_config(OLMOE_1B_7B, PruningSpec("intra", 0.5)))
        assert pruned.total < base.total
        assert pruned.active < base.active
