"""Tests for repro.moe.capacity (expert capacity / token dropping)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.models.config import MoEConfig
from repro.moe.capacity import apply_capacity, drop_statistics, expert_capacity
from repro.moe.layer import MoELayer
from repro.moe.router import RoutingResult, TopKRouter


class TestExpertCapacity:
    def test_formula(self):
        # 64 tokens * top-2 / 8 experts = 16 per expert at factor 1.0
        assert expert_capacity(64, 8, 2, 1.0) == 16
        assert expert_capacity(64, 8, 2, 1.25) == 20

    def test_at_least_one(self):
        assert expert_capacity(1, 64, 1, 0.5) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            expert_capacity(0, 8, 2, 1.0)
        with pytest.raises(ValueError):
            expert_capacity(8, 8, 2, 0.0)


class TestApplyCapacity:
    @pytest.fixture
    def routing(self, rng):
        router = TopKRouter(32, 4, 2, expert_bias_std=1.5, rng=rng)
        x = rng.normal(0, 1, (40, 32)).astype(np.float32)
        return router.route(x)

    def test_capacity_respected(self, routing):
        result = apply_capacity(routing, capacity=5)
        fill = np.zeros(routing.num_experts, dtype=int)
        for t, s in zip(*np.nonzero(result.kept_mask)):
            fill[routing.indices[t, s]] += 1
        assert (fill <= 5).all()

    def test_unlimited_capacity_keeps_all(self, routing):
        result = apply_capacity(routing, capacity=1000)
        assert result.kept_mask.all()
        assert result.num_dropped == 0
        assert result.drop_rate == 0.0

    def test_skewed_router_drops(self, routing):
        result = apply_capacity(routing, capacity=3)
        assert result.num_dropped > 0
        assert 0 < result.drop_rate < 1

    def test_highest_weight_assignments_kept(self, routing):
        """Within one expert, the kept assignments must be the heaviest."""
        result = apply_capacity(routing, capacity=2)
        for e in range(routing.num_experts):
            mask_e = routing.indices == e
            kept_w = routing.weights[mask_e & result.kept_mask]
            dropped_w = routing.weights[mask_e & ~result.kept_mask]
            if len(kept_w) and len(dropped_w):
                assert kept_w.min() >= dropped_w.max() - 1e-6

    def test_dropped_tokens_listed(self, routing):
        result = apply_capacity(routing, capacity=1)
        fully_dropped = result.dropped_tokens()
        for t in fully_dropped:
            assert not result.kept_mask[t].any()

    def test_validation(self, routing):
        with pytest.raises(ValueError):
            apply_capacity(routing, 0)


def _greedy_mask(routing, capacity: int) -> np.ndarray:
    """The greedy fill, one assignment at a time in stable -weight order."""
    n, k = routing.indices.shape
    kept = np.zeros((n, k), dtype=bool)
    fill = np.zeros(routing.num_experts, dtype=np.int64)
    for flat_idx in np.argsort(-routing.weights.ravel(), kind="stable"):
        t, s = divmod(int(flat_idx), k)
        e = routing.indices[t, s]
        if fill[e] < capacity:
            fill[e] += 1
            kept[t, s] = True
    return kept


class TestAgainstGreedyFill:
    """The rank-based mask equals the greedy fill it replaces."""

    @staticmethod
    def _routing(seed: int, tokens: int, experts: int, top_k: int,
                 tied: bool) -> RoutingResult:
        rng = np.random.default_rng(seed)
        indices = np.stack([rng.choice(experts, top_k, replace=False)
                            for _ in range(tokens)])
        weights = rng.random((tokens, top_k)).astype(np.float32)
        if tied:  # a handful of distinct weights: ties everywhere
            weights = np.round(weights * 3) / 3
        probs = np.full((tokens, experts), 1.0 / experts)
        return RoutingResult(indices=indices, weights=weights, probs=probs)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("tied", [False, True])
    @pytest.mark.parametrize("capacity", [1, 2, 5, 40, 10_000])
    def test_mask_equals_greedy_fill(self, seed, tied, capacity):
        experts = (4, 8, 64)[seed % 3]
        routing = self._routing(seed, 40 + 7 * seed, experts,
                                min(2 + seed % 2, experts), tied)
        got = apply_capacity(routing, capacity).kept_mask
        assert got.dtype == bool and got.shape == routing.indices.shape
        assert np.array_equal(got, _greedy_mask(routing, capacity))

    def test_router_output_and_all_tied(self, rng):
        router = TopKRouter(32, 8, 2, expert_bias_std=1.5, rng=rng)
        routing = router.route(rng.normal(0, 1, (300, 32)).astype(np.float32))
        flat = RoutingResult(indices=routing.indices,
                             weights=np.ones_like(routing.weights),
                             probs=routing.probs)
        for r in (routing, flat):
            for capacity in (1, 3, 37, r.num_tokens):
                assert np.array_equal(apply_capacity(r, capacity).kept_mask,
                                      _greedy_mask(r, capacity))
        assert apply_capacity(routing, routing.num_tokens).kept_mask.all()


class TestDropStatistics:
    def test_balanced_router_rarely_drops(self, rng):
        router = TopKRouter(32, 8, 2, rng=rng)
        x = rng.normal(0, 1, (400, 32)).astype(np.float32)
        stats = drop_statistics(router, x, capacity_factor=1.5)
        assert stats["drop_rate"] < 0.05

    def test_skewed_router_drops_more(self, rng):
        balanced = TopKRouter(32, 8, 2, rng=np.random.default_rng(1))
        skewed = TopKRouter(32, 8, 2, expert_bias_std=2.0,
                            rng=np.random.default_rng(1))
        x = rng.normal(0, 1, (400, 32)).astype(np.float32)
        b = drop_statistics(balanced, x, 1.0)
        s = drop_statistics(skewed, x, 1.0)
        assert s["drop_rate"] > b["drop_rate"]

    def test_drop_rate_decreases_with_factor(self, rng):
        router = TopKRouter(32, 8, 2, expert_bias_std=1.0, rng=rng)
        x = rng.normal(0, 1, (400, 32)).astype(np.float32)
        rates = [drop_statistics(router, x, f)["drop_rate"]
                 for f in (0.5, 1.0, 2.0, 4.0)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))
        assert rates[-1] == 0.0


class TestLayerCapacity:
    def test_capacity_changes_output_of_overloaded_layer(self, rng):
        cfg = MoEConfig(num_experts=4, top_k=2, expert_ffn_dim=16)
        layer = MoELayer(32, cfg, rng=rng, expert_bias_std=2.0)
        x = rng.normal(0, 1, (50, 32)).astype(np.float32)
        free = layer(x)
        capped = layer(x, capacity_factor=0.5)
        assert not np.allclose(free.hidden, capped.hidden, atol=1e-5)
        # dropped assignments have zero combine weight
        assert (capped.routing.weights == 0).any()

    def test_generous_capacity_is_identity(self, rng, tiny_moe):
        layer = MoELayer(64, tiny_moe, rng=rng)
        x = rng.normal(0, 1, (20, 64)).astype(np.float32)
        assert np.allclose(layer(x).hidden,
                           layer(x, capacity_factor=100.0).hidden, atol=1e-6)
