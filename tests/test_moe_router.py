"""Tests for repro.moe.router."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.moe.router import TopKRouter


@pytest.fixture
def router(rng):
    return TopKRouter(hidden_size=32, num_experts=8, top_k=2, rng=rng)


class TestRouting:
    def test_result_shapes(self, router, rng):
        x = rng.normal(0, 1, (10, 32)).astype(np.float32)
        r = router.route(x)
        assert r.indices.shape == (10, 2)
        assert r.weights.shape == (10, 2)
        assert r.probs.shape == (10, 8)
        assert r.num_tokens == 10 and r.top_k == 2 and r.num_experts == 8

    def test_indices_distinct_per_token(self, router, rng):
        x = rng.normal(0, 1, (50, 32)).astype(np.float32)
        idx = router.route(x).indices
        assert all(len(set(row.tolist())) == 2 for row in idx)

    def test_weights_renormalized(self, router, rng):
        x = rng.normal(0, 1, (20, 32)).astype(np.float32)
        w = router.route(x).weights
        assert np.allclose(w.sum(axis=-1), 1.0, atol=1e-6)
        assert (w >= 0).all()

    def test_weights_without_renormalize(self, rng):
        router = TopKRouter(32, 8, 2, renormalize=False, rng=rng)
        x = rng.normal(0, 1, (20, 32)).astype(np.float32)
        r = router.route(x)
        # raw softmax mass of the top-2 is < 1
        assert (r.weights.sum(axis=-1) < 1.0).all()
        expected = np.take_along_axis(r.probs, r.indices, axis=-1)
        assert np.allclose(r.weights, expected, atol=1e-6)

    def test_best_expert_first(self, router, rng):
        x = rng.normal(0, 1, (30, 32)).astype(np.float32)
        r = router.route(x)
        assert (r.weights[:, 0] >= r.weights[:, 1] - 1e-6).all()

    def test_deterministic_given_seed(self):
        a = TopKRouter(16, 4, 1, rng=np.random.default_rng(5))
        b = TopKRouter(16, 4, 1, rng=np.random.default_rng(5))
        x = np.random.default_rng(0).normal(0, 1, (8, 16)).astype(np.float32)
        assert np.array_equal(a.route(x).indices, b.route(x).indices)

    def test_input_validation(self, router):
        with pytest.raises(ValueError):
            router.route(np.zeros((4, 31), np.float32))
        with pytest.raises(ValueError):
            TopKRouter(8, 4, 5)
        with pytest.raises(ValueError):
            TopKRouter(8, 4, 2, expert_bias_std=-0.1)


class TestBalanceStatistics:
    def test_balanced_router_near_uniform(self, rng):
        router = TopKRouter(64, 16, 2, rng=rng)
        x = rng.normal(0, 1, (4000, 64)).astype(np.float32)
        r = router.route(x)
        counts = r.expert_counts()
        assert counts.sum() == 4000 * 2
        # every expert used, max/mean below 2
        assert counts.min() > 0
        assert counts.max() / counts.mean() < 2.0

    def test_biased_router_is_skewed(self, rng):
        flat = TopKRouter(64, 16, 2, expert_bias_std=0.0,
                          rng=np.random.default_rng(1))
        skew = TopKRouter(64, 16, 2, expert_bias_std=1.5,
                          rng=np.random.default_rng(1))
        x = rng.normal(0, 1, (4000, 64)).astype(np.float32)
        flat_imb = flat.route(x).expert_counts().max() / (4000 * 2 / 16)
        skew_imb = skew.route(x).expert_counts().max() / (4000 * 2 / 16)
        assert skew_imb > flat_imb * 1.5

    def test_load_balance_loss_near_one_when_balanced(self, rng):
        router = TopKRouter(64, 8, 2, rng=rng)
        x = rng.normal(0, 1, (2000, 64)).astype(np.float32)
        assert router.route(x).load_balance_loss() == pytest.approx(1.0, abs=0.1)

    def test_load_balance_loss_grows_with_bias(self, rng):
        skew = TopKRouter(64, 8, 2, expert_bias_std=2.0, rng=rng)
        x = rng.normal(0, 1, (2000, 64)).astype(np.float32)
        assert skew.route(x).load_balance_loss() > 1.2

    def test_z_loss_positive(self, router, rng):
        x = rng.normal(0, 1, (16, 32)).astype(np.float32)
        assert router.z_loss(x) > 0


class TestDropExperts:
    def test_drop_reduces_experts(self, router, rng):
        pruned = router.drop_experts(np.array([0, 3]))
        assert pruned.num_experts == 6
        x = rng.normal(0, 1, (10, 32)).astype(np.float32)
        assert pruned.route(x).indices.max() < 6

    def test_survivor_weights_preserved(self, router):
        pruned = router.drop_experts(np.array([0]))
        assert np.array_equal(pruned.weight, router.weight[:, 1:])

    def test_cannot_drop_all(self, router):
        with pytest.raises(ValueError):
            router.drop_experts(np.arange(8))

    def test_top_k_capped(self, rng):
        router = TopKRouter(16, 4, 3, rng=rng)
        pruned = router.drop_experts(np.array([0, 1]))
        assert pruned.top_k == 2


# (num_experts, top_k): the Fig. 15 geometries (DeepSeek-VL2-Tiny/Small,
# DeepSeek-VL2, MolmoE-1B), the routing-probe shape, a 160-expert router,
# and the two boundary cases k == E and k == E - 1
_GOLDEN_GEOMETRIES = ((64, 6), (72, 6), (64, 8), (8, 2), (160, 6),
                      (16, 16), (16, 15))
# the balanced and unbalanced calibrated bias spreads of the activation study
_GOLDEN_BIAS_STDS = (0.15, 0.75)
# 3,616 is the remainder chunk of a 20,000-token study in 16,384-token chunks
_GOLDEN_TOKENS = (0, 1, 37, 3_616)
_GOLDEN_COUNTS_DIGEST = "e1ad443a11027f551c0074eebfd03b62c684295f54184cdd49428a9e4537a7fd"


def _golden_batches(router, seed):
    """The ``(router, tokens)`` pairs hashed for one router: Gaussian
    batches at every golden token count, a lattice router whose logits
    tie at the top-k boundary, and one with infinite biases fed a NaN."""
    rng = np.random.default_rng(seed)
    for n in _GOLDEN_TOKENS:
        yield router, rng.normal(size=(n, router.hidden_size)).astype(np.float32)
    lattice = TopKRouter(router.hidden_size, router.num_experts, router.top_k,
                         rng=np.random.default_rng(seed))
    lattice.weight = rng.integers(
        -1, 2, size=lattice.weight.shape).astype(np.float32)
    lattice.bias[:] = 0.0
    yield lattice, rng.integers(
        -1, 2, size=(64, router.hidden_size)).astype(np.float32)
    nonfinite = TopKRouter(router.hidden_size, router.num_experts,
                           router.top_k, rng=np.random.default_rng(seed))
    nonfinite.bias[0] = np.inf
    nonfinite.bias[-1] = -np.inf
    x = rng.normal(size=(16, router.hidden_size)).astype(np.float32)
    x[3, 5] = np.nan
    yield nonfinite, x


def _route_counts_digest() -> str:
    h = hashlib.sha256()
    seed = 0
    for num_experts, top_k in _GOLDEN_GEOMETRIES:
        for bias_std in _GOLDEN_BIAS_STDS:
            seed += 1
            router = TopKRouter(128, num_experts, top_k,
                                expert_bias_std=bias_std,
                                rng=np.random.default_rng(seed))
            for r, x in _golden_batches(router, seed):
                counts = r.route_counts(x)
                h.update(f"{counts.dtype.str}{counts.shape};".encode())
                h.update(counts.tobytes())
    return h.hexdigest()


class TestGoldenRouteCounts:
    def test_route_counts_bytes_match_recorded_digest(self):
        """The bytes of ``route_counts`` over a fixed geometry x bias x
        token-count grid (plus tied and non-finite batches), hashed: any
        change to which experts win, or to the count dtype, fails here.
        Re-record only for an intended routing change."""
        assert _route_counts_digest() == _GOLDEN_COUNTS_DIGEST
