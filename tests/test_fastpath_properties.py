"""Property-based tests: every fast path is bit-identical to the slow path.

The perf-opt layers (step cache, the engine's decode-row array pass) are
exact memo / array implementations — not approximations — so the property under test
is float *equality*, not closeness.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.common import perf_model
from repro.hardware.gpus import H100_SXM
from repro.models.zoo import get_model
from repro.moe.router import TopKRouter
from repro.perfmodel import stepcache
from repro.perfmodel.phases import StepModel

_settings = settings(max_examples=30, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])

_MODELS = ("OLMoE-1B-7B", "Mixtral-8x7B", "DeepSeek-V2-Lite")


class TestStepCacheExactness:
    @given(st.sampled_from(_MODELS), st.integers(1, 128),
           st.integers(1, 4096), st.sampled_from(["prefill", "decode"]))
    @_settings
    def test_cached_equals_uncached(self, model, batch, ctx, phase):
        steps = StepModel(get_model(model), H100_SXM)
        stepcache.configure(enabled=True)
        stepcache.clear()
        try:
            if phase == "prefill":
                warm = steps.prefill_time(batch, ctx)
                hit = steps.prefill_time(batch, ctx)
            else:
                warm = steps.decode_step_time(batch, ctx)
                hit = steps.decode_step_time(batch, ctx)
            stepcache.configure(enabled=False)
            stepcache.clear()
            if phase == "prefill":
                cold = steps.prefill_time(batch, ctx)
            else:
                cold = steps.decode_step_time(batch, ctx)
            assert warm == hit == cold
        finally:
            stepcache.configure(enabled=True)

    @given(st.sampled_from(_MODELS), st.integers(1, 64), st.integers(1, 2048))
    @_settings
    def test_breakdown_components_identical(self, model, batch, ctx):
        steps = StepModel(get_model(model), H100_SXM)
        stepcache.configure(enabled=True)
        stepcache.clear()
        try:
            cached = steps.step_breakdown(batch, batch, ctx, phase="decode")
            uncached = steps._compute_step_breakdown(batch, batch, ctx,
                                                     "decode", None)
            assert cached.components == uncached.components
            assert cached.total == uncached.total
        finally:
            stepcache.configure(enabled=True)


class TestVectorizedExactness:
    @given(st.sampled_from(_MODELS), st.integers(1, 128),
           st.lists(st.integers(1, 4096), min_size=1, max_size=6))
    @_settings
    def test_sweep_equals_scalar_loop(self, model, batch, contexts):
        steps = perf_model(get_model(model)).steps
        row = steps.decode_totals(batch, contexts)
        assert row == [steps.decode_step_time(batch, c) for c in contexts]


class TestRouteCountsExactness:
    """``route().expert_counts()`` still partitions every row with
    ``argpartition``, so it is the oracle for the threshold count."""

    @given(st.integers(2, 24), st.integers(1, 12), st.integers(1, 256),
           st.integers(0, 2**31 - 1))
    @_settings
    def test_counts_equal_full_route(self, num_experts, top_k, tokens, seed):
        top_k = min(top_k, num_experts)
        rng = np.random.default_rng(seed)
        router = TopKRouter(16, num_experts, top_k,
                            rng=np.random.default_rng(seed))
        x = rng.normal(size=(tokens, 16)).astype(np.float32)
        assert np.array_equal(router.route_counts(x),
                              router.route(x).expert_counts())

    @given(st.sampled_from([(72, 6), (64, 8), (8, 2), (16, 16), (16, 15),
                            (1, 1), (2, 1)]),
           st.sampled_from([0.0, 0.15, 0.75]), st.integers(0, 300),
           st.integers(0, 2**31 - 1))
    @_settings
    def test_counts_equal_at_boundary_geometries(self, geometry, bias_std,
                                                 tokens, seed):
        # E = 72 (DeepSeek-VL2), k == E (no boundary) and k == E - 1
        num_experts, top_k = geometry
        rng = np.random.default_rng(seed)
        router = TopKRouter(32, num_experts, top_k, expert_bias_std=bias_std,
                            rng=np.random.default_rng(seed))
        x = rng.normal(size=(tokens, 32)).astype(np.float32)
        counts = router.route_counts(x)
        assert counts.dtype == np.int64 and counts.shape == (num_experts,)
        assert np.array_equal(counts, router.route(x).expert_counts())

    @given(st.integers(0, 2**31 - 1))
    @_settings
    def test_counts_equal_under_ties(self, seed):
        # lattice-valued weights and inputs force exact logit ties at the
        # top-k boundary; those rows are recounted with the argpartition
        # call route() makes, which picks winners row by row, so the
        # winning set must match the oracle even then
        rng = np.random.default_rng(seed)
        router = TopKRouter(8, 16, 4, rng=np.random.default_rng(seed))
        router.weight = rng.integers(-1, 2, size=(8, 16)).astype(np.float32)
        router.bias = np.zeros(16, dtype=np.float32)
        x = rng.integers(-1, 2, size=(64, 8)).astype(np.float32)
        logits = router.logits(x)
        assert np.unique(logits).size < logits.size  # ties really occur
        assert np.array_equal(router.route_counts(x),
                              router.route(x).expert_counts())

    def test_only_tied_rows_fall_back(self, monkeypatch):
        # half the rows tie at the top-2 boundary, half have distinct
        # logits: the threshold count handles the distinct half and only
        # the tied half reaches argpartition
        router = TopKRouter(4, 6, 2, rng=np.random.default_rng(0))
        router.weight = np.eye(4, 6, dtype=np.float32)
        router.bias = np.zeros(6, dtype=np.float32)
        tied = np.array([[3, 1, 1, 0], [0, 2, 2, 2]], dtype=np.float32)
        distinct = np.array([[4, 3, 2, 1], [1, 0, 5, 2]], dtype=np.float32)
        x = np.concatenate([np.tile(tied, (5, 1)), np.tile(distinct, (5, 1))])
        partitioned = []
        argpartition = np.argpartition

        def spy(a, *args, **kwargs):
            partitioned.append(a.shape[0])
            return argpartition(a, *args, **kwargs)

        monkeypatch.setattr(np, "argpartition", spy)
        counts = router.route_counts(x)
        assert partitioned == [10]  # the tied rows only, not all 20
        assert np.array_equal(counts, router.route(x).expert_counts())

    def test_nan_row_matches_full_route(self):
        rng = np.random.default_rng(3)
        router = TopKRouter(16, 64, 6, rng=np.random.default_rng(3))
        x = rng.normal(size=(32, 16)).astype(np.float32)
        x[5, 7] = np.nan  # row 5's logits are all NaN
        assert np.array_equal(router.route_counts(x),
                              router.route(x).expert_counts())
        router.bias[9] = np.nan  # every row has one NaN logit
        assert np.array_equal(router.route_counts(x),
                              router.route(x).expert_counts())

    def test_empty_input(self):
        router = TopKRouter(16, 64, 6, rng=np.random.default_rng(0))
        x = np.zeros((0, 16), dtype=np.float32)
        counts = router.route_counts(x)
        assert counts.dtype == np.int64
        assert np.array_equal(counts, np.zeros(64, dtype=np.int64))
        assert np.array_equal(counts, router.route(x).expert_counts())
