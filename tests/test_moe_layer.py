"""Tests for repro.moe.layer (fused/unfused MoE layer)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.models.config import MoEConfig
from repro.moe.layer import MoELayer


@pytest.fixture
def layer(rng, tiny_moe):
    return MoELayer(64, tiny_moe, rng=rng)


class TestForward:
    def test_output_shape(self, layer, rng):
        x = rng.normal(0, 1, (12, 64)).astype(np.float32)
        out = layer(x)
        assert out.hidden.shape == (12, 64)
        assert out.routing.num_tokens == 12

    def test_fused_equals_unfused(self, layer, rng):
        """The two execution paths compute the same function."""
        x = rng.normal(0, 1, (40, 64)).astype(np.float32)
        fused = layer(x, mode="fused")
        unfused = layer(x, mode="unfused")
        assert np.allclose(fused.hidden, unfused.hidden, atol=1e-5)
        assert np.array_equal(fused.routing.indices, unfused.routing.indices)

    def test_fused_fewer_launches(self, layer, rng):
        x = rng.normal(0, 1, (8, 64)).astype(np.float32)
        assert layer(x, "fused").kernel_launches < layer(x, "unfused").kernel_launches

    def test_unknown_mode(self, layer):
        with pytest.raises(ValueError, match="mode"):
            layer(np.zeros((2, 64), np.float32), mode="magic")

    def test_wrong_hidden_size(self, layer):
        with pytest.raises(ValueError):
            layer(np.zeros((2, 63), np.float32))

    def test_single_token(self, layer, rng):
        x = rng.normal(0, 1, (1, 64)).astype(np.float32)
        assert layer(x).hidden.shape == (1, 64)

    def test_output_is_weighted_expert_combination(self, rng):
        """With top_k=1 the output must equal the selected expert's output
        scaled by its (renormalized == 1.0) weight."""
        cfg = MoEConfig(num_experts=4, top_k=1, expert_ffn_dim=16)
        layer = MoELayer(32, cfg, rng=rng)
        x = rng.normal(0, 1, (6, 32)).astype(np.float32)
        out = layer(x)
        for t in range(6):
            e = out.routing.indices[t, 0]
            expected = layer.experts[e](x[t : t + 1])[0]
            assert np.allclose(out.hidden[t], expected, atol=1e-5)


class TestSharedExperts:
    def test_shared_always_applied(self, rng):
        cfg = MoEConfig(num_experts=4, top_k=1, expert_ffn_dim=16,
                        num_shared_experts=2, shared_expert_ffn_dim=8)
        layer = MoELayer(32, cfg, rng=rng)
        x = rng.normal(0, 1, (5, 32)).astype(np.float32)
        out = layer(x)
        routed_only = np.zeros_like(x)
        for t in range(5):
            e = out.routing.indices[t, 0]
            routed_only[t] = layer.experts[e](x[t : t + 1])[0]
        shared = sum(s(x) for s in layer.shared_experts)
        assert np.allclose(out.hidden, routed_only + shared, atol=1e-5)

    def test_num_params_includes_shared(self, rng):
        cfg = MoEConfig(num_experts=4, top_k=1, expert_ffn_dim=16,
                        num_shared_experts=1, shared_expert_ffn_dim=8)
        layer = MoELayer(32, cfg, rng=rng)
        expected = 32 * 4 + 4 * 3 * 32 * 16 + 3 * 32 * 8
        assert layer.num_params == expected
