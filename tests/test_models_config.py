"""Tests for repro.models.config."""

from __future__ import annotations

import pytest

from repro.models.config import (
    AttentionConfig,
    AttentionKind,
    ModelConfig,
    MoEConfig,
    VisionConfig,
)


class TestAttentionConfig:
    def test_gqa_group_size(self):
        cfg = AttentionConfig(num_heads=32, num_kv_heads=8, head_dim=128)
        assert cfg.group_size == 4

    def test_mha_requires_equal_heads(self):
        with pytest.raises(ValueError, match="MHA requires"):
            AttentionConfig(num_heads=8, num_kv_heads=4, head_dim=16,
                            kind=AttentionKind.MHA)

    def test_heads_must_divide(self):
        with pytest.raises(ValueError, match="multiple"):
            AttentionConfig(num_heads=10, num_kv_heads=4, head_dim=16)

    def test_rejects_nonpositive_heads(self):
        with pytest.raises(ValueError):
            AttentionConfig(num_heads=0, num_kv_heads=1, head_dim=16)
        with pytest.raises(ValueError):
            AttentionConfig(num_heads=4, num_kv_heads=-1, head_dim=16)

    def test_mla_requires_lora_rank(self):
        with pytest.raises(ValueError, match="kv_lora_rank"):
            AttentionConfig(num_heads=16, num_kv_heads=16, head_dim=192,
                            kind=AttentionKind.MLA)

    def test_kv_entries_gqa(self):
        cfg = AttentionConfig(num_heads=32, num_kv_heads=8, head_dim=128)
        assert cfg.kv_entries_per_token() == 2 * 8 * 128

    def test_kv_entries_mla_native_is_compressed(self):
        mla = AttentionConfig(
            num_heads=16, num_kv_heads=16, head_dim=192, kind=AttentionKind.MLA,
            kv_lora_rank=512, qk_rope_head_dim=64, qk_nope_head_dim=128,
            v_head_dim=128,
        )
        assert mla.kv_entries_per_token(mla_native=True) == 512 + 64
        gqa = AttentionConfig(num_heads=16, num_kv_heads=16, head_dim=192)
        assert mla.kv_entries_per_token(True) < gqa.kv_entries_per_token()

    def test_kv_entries_mla_materialized_default(self):
        """Without native MLA kernels the decompressed K/V are cached."""
        mla = AttentionConfig(
            num_heads=16, num_kv_heads=16, head_dim=192, kind=AttentionKind.MLA,
            kv_lora_rank=512, qk_rope_head_dim=64, qk_nope_head_dim=128,
            v_head_dim=128,
        )
        assert mla.kv_entries_per_token() == 16 * (192 + 128)
        assert mla.kv_entries_per_token() > mla.kv_entries_per_token(True)


class TestMoEConfig:
    def test_sparsity(self):
        moe = MoEConfig(num_experts=8, top_k=2, expert_ffn_dim=64)
        assert moe.sparsity == pytest.approx(0.25)

    def test_top_k_bounds(self):
        with pytest.raises(ValueError):
            MoEConfig(num_experts=8, top_k=0, expert_ffn_dim=64)
        with pytest.raises(ValueError):
            MoEConfig(num_experts=8, top_k=9, expert_ffn_dim=64)

    def test_shared_expert_requires_dim(self):
        with pytest.raises(ValueError, match="shared"):
            MoEConfig(num_experts=8, top_k=2, expert_ffn_dim=64,
                      num_shared_experts=2)

    def test_with_pruned_experts_caps_top_k(self):
        moe = MoEConfig(num_experts=8, top_k=4, expert_ffn_dim=64)
        pruned = moe.with_pruned_experts(2)
        assert pruned.num_experts == 2
        assert pruned.top_k == 2

    def test_with_pruned_experts_bounds(self):
        moe = MoEConfig(num_experts=8, top_k=2, expert_ffn_dim=64)
        with pytest.raises(ValueError):
            moe.with_pruned_experts(0)
        with pytest.raises(ValueError):
            moe.with_pruned_experts(9)

    def test_with_ffn_dim(self):
        moe = MoEConfig(num_experts=8, top_k=2, expert_ffn_dim=64)
        assert moe.with_ffn_dim(32).expert_ffn_dim == 32
        with pytest.raises(ValueError):
            moe.with_ffn_dim(0)

    def test_with_top_k(self):
        moe = MoEConfig(num_experts=8, top_k=2, expert_ffn_dim=64)
        assert moe.with_top_k(8).top_k == 8
        with pytest.raises(ValueError):
            moe.with_top_k(16)


class TestModelConfig:
    def test_all_layers_moe_by_default(self, tiny_model):
        assert tiny_model.moe_layer_indices() == [0, 1]
        assert tiny_model.num_moe_layers == 2
        assert tiny_model.is_moe

    def test_first_k_dense(self, tiny_moe):
        model = ModelConfig(
            name="m", num_layers=4, hidden_size=64, vocab_size=128,
            attention=AttentionConfig(num_heads=4, num_kv_heads=4, head_dim=16),
            dense_ffn_dim=96, moe=tiny_moe, first_k_dense=1,
        )
        assert not model.is_moe_layer(0)
        assert model.is_moe_layer(1)
        assert model.num_dense_layers == 1

    def test_moe_layer_stride(self, tiny_moe):
        model = ModelConfig(
            name="m", num_layers=4, hidden_size=64, vocab_size=128,
            attention=AttentionConfig(num_heads=4, num_kv_heads=4, head_dim=16),
            dense_ffn_dim=96, moe=tiny_moe, moe_layer_stride=2,
        )
        assert model.moe_layer_indices() == [0, 2]

    def test_dense_model_has_no_moe_layers(self, tiny_dense_model):
        assert not tiny_dense_model.is_moe
        assert tiny_dense_model.moe_layer_indices() == []

    def test_layer_index_bounds(self, tiny_model):
        with pytest.raises(IndexError):
            tiny_model.is_moe_layer(2)
        with pytest.raises(IndexError):
            tiny_model.is_moe_layer(-1)

    def test_vlm_requires_vision(self, tiny_moe):
        with pytest.raises(ValueError, match="vision"):
            ModelConfig(
                name="m", num_layers=2, hidden_size=64, vocab_size=128,
                attention=AttentionConfig(num_heads=4, num_kv_heads=4, head_dim=16),
                dense_ffn_dim=0, moe=tiny_moe, modality="text+image",
            )

    def test_unknown_modality(self, tiny_moe):
        with pytest.raises(ValueError, match="modality"):
            ModelConfig(
                name="m", num_layers=2, hidden_size=64, vocab_size=128,
                attention=AttentionConfig(num_heads=4, num_kv_heads=4, head_dim=16),
                dense_ffn_dim=0, moe=tiny_moe, modality="audio",
            )

    def test_with_moe_replaces_block(self, tiny_model):
        new_moe = MoEConfig(num_experts=4, top_k=1, expert_ffn_dim=16)
        assert tiny_model.with_moe(new_moe).moe.num_experts == 4

    def test_iter_layers(self, tiny_model):
        layers = list(tiny_model.iter_layers())
        assert layers == [(0, True), (1, True)]


class TestVisionConfig:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            VisionConfig(num_layers=0, hidden_size=64, ffn_dim=128,
                         num_heads=4, image_tokens=16)
