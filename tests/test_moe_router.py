"""Tests for repro.moe.router."""

from __future__ import annotations

import hashlib
import multiprocessing
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import repro.moe.router as router_mod
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


# --------------------------------------------------------------------------- #
# route_counts split across the helper thread
# --------------------------------------------------------------------------- #

_FLOOR = router_mod._SPLIT_MIN_ROWS
_SPLIT_ROWS = (_FLOOR - 1, _FLOOR, _FLOOR + 1, 2 * _FLOOR + 3, 3_616, 16_383)
_SPLIT_GEOMETRIES = ((64, 6), (72, 6), (64, 8), (8, 2))


class _CountingExecutor(ThreadPoolExecutor):
    """The helper's executor, counting the halves handed to it."""

    def __init__(self):
        super().__init__(max_workers=1)
        self.submitted = 0

    def submit(self, *args, **kwargs):
        self.submitted += 1
        return super().submit(*args, **kwargs)


@pytest.fixture
def helper(monkeypatch):
    """Force the two-thread path whatever this host's CPU mask is."""
    pool = _CountingExecutor()
    monkeypatch.setattr(router_mod, "_helper", pool)
    yield pool
    pool.shutdown()


def _assert_split_exact(router, x, helper):
    """Split counts equal a serial count and ``route().expert_counts()``
    as int64 bytes; the helper takes the second half exactly when the
    batch reaches the floor."""
    before = helper.submitted
    split = router.route_counts(x)
    assert helper.submitted - before == (len(x) >= _FLOOR)
    serial = router._counts_of(np.asarray(x, dtype=np.float32))
    full = router.route(x).expert_counts()
    assert split.dtype == np.int64
    assert split.tobytes() == serial.tobytes() == full.tobytes()


def _lattice_router(num_experts, top_k, seed):
    """Integer weights and no bias: integer-valued rows tie often."""
    router = TopKRouter(128, num_experts, top_k,
                        rng=np.random.default_rng(seed))
    router.weight = np.random.default_rng(seed).integers(
        -1, 2, size=router.weight.shape).astype(np.float32)
    router.bias[:] = 0.0
    return router


def _boundary_tied(router, x):
    logits = router.logits(x)
    ranked = np.sort(logits, axis=-1)
    e, k = router.num_experts, router.top_k
    return ranked[:, e - k - 1] == ranked[:, e - k]


class TestSplitRouteCounts:
    @pytest.mark.parametrize("num_experts,top_k", _SPLIT_GEOMETRIES)
    @pytest.mark.parametrize("rows", _SPLIT_ROWS)
    def test_split_matches_serial_and_route(self, helper, num_experts,
                                            top_k, rows):
        router = TopKRouter(128, num_experts, top_k, expert_bias_std=0.75,
                            rng=np.random.default_rng(rows))
        x = np.random.default_rng(num_experts).normal(
            size=(rows, 128)).astype(np.float32)
        _assert_split_exact(router, x, helper)

    @pytest.mark.parametrize("num_experts,top_k", _SPLIT_GEOMETRIES)
    @pytest.mark.parametrize("halves", ("first", "second", "both"))
    def test_ties_and_nans_in_either_half(self, helper, num_experts, top_k,
                                          halves):
        """Boundary ties and NaN rows planted in one half, the other, or
        both: each half recounts its own rows."""
        rows = 2 * _FLOOR + 1
        router = _lattice_router(num_experts, top_k, seed=top_k)
        rng = np.random.default_rng(num_experts)
        x = rng.normal(size=(rows, 128)).astype(np.float32)
        half = rows // 2
        spans = {"first": [(0, half)], "second": [(half, rows)],
                 "both": [(0, half), (half, rows)]}[halves]
        planted = np.zeros(rows, dtype=bool)
        for lo, hi in spans:
            at = rng.choice(np.arange(lo, hi), size=40, replace=False)
            x[at[:30]] = rng.integers(-1, 2, size=(30, 128))
            x[at[30:], 7] = np.nan
            planted[at] = True
        tied = _boundary_tied(router, x)
        nan = np.isnan(x).any(axis=1)
        assert not (tied | nan)[~planted].any()
        for lo, hi in spans:
            assert tied[lo:hi].any() and nan[lo:hi].any()
        _assert_split_exact(router, x, helper)

    def test_invalid_input_raises_on_the_calling_thread(self, helper):
        router = TopKRouter(128, 64, 6, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match=r"x must be \(num_tokens, 128\)"):
            router.route_counts(np.zeros((2 * _FLOOR, 127), np.float32))
        assert helper.submitted == 0

    def test_one_cpu_mask_keeps_the_serial_call(self, monkeypatch):
        monkeypatch.setattr(router_mod, "_helper", None)
        monkeypatch.setattr(router_mod.os, "sched_getaffinity",
                            lambda pid: {0}, raising=False)
        router = TopKRouter(128, 64, 6, rng=np.random.default_rng(0))
        x = np.random.default_rng(1).normal(
            size=(2 * _FLOOR, 128)).astype(np.float32)
        assert router.route_counts(x).tobytes() \
            == router.route(x).expert_counts().tobytes()
        assert router_mod._helper is None

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="needs the fork start method")
    def test_forked_child_routes_after_the_parent_has(self, helper):
        """A child forked after the parent used the helper gets a helper of
        its own (the parent's thread does not exist in the child) and
        returns the parent's counts instead of hanging."""
        router = TopKRouter(128, 64, 6, rng=np.random.default_rng(0))
        x = np.random.default_rng(1).normal(
            size=(2 * _FLOOR, 128)).astype(np.float32)
        parent = router.route_counts(x)
        assert helper.submitted == 1
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        child = ctx.Process(target=_route_in_child,
                            args=(router, x, helper, queue))
        child.start()
        try:
            counts, inherited = queue.get(timeout=60)
        finally:
            child.join(timeout=10)
            if child.is_alive():
                child.kill()
        assert not inherited
        assert counts == parent.tobytes()


def _route_in_child(router, x, parent_helper, queue):
    counts = router.route_counts(x)
    queue.put((counts.tobytes(), router_mod._helper is parent_helper))
