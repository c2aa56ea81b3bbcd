"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.metrics import GenerationShape, itl_eq1, throughput_eq2
from repro.hardware.gpus import H100_SXM
from repro.hardware.roofline import KernelCost, gemm_efficiency, kernel_time
from repro.models.config import MoEConfig
from repro.moe.layer import MoELayer
from repro.moe.router import TopKRouter
from repro.moe.routing_math import expected_expert_coverage, expected_group_imbalance
from repro.optim.speculative import expected_tokens_per_cycle, simulate_accepted_tokens
from repro.serving.kv_cache import PagedKVCache
from repro.tensor.dtypes import quantize_dequantize, quantize_fp8
from repro.tensor.functional import softmax, top_k_indices

_settings = settings(max_examples=50, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


class TestQuantizationProperties:
    @given(st.lists(st.floats(-400, 400, allow_nan=False), min_size=1, max_size=64))
    @_settings
    def test_fp8_idempotent_and_bounded(self, vals):
        x = np.array(vals, dtype=np.float32)
        q = quantize_fp8(x)
        assert np.array_equal(quantize_fp8(q), q)
        assert (np.abs(q) <= 448.0).all()
        # sign preserved
        assert np.array_equal(np.sign(q)[q != 0], np.sign(x)[q != 0])

    @given(st.sampled_from(["fp16", "bf16", "fp8_e4m3", "int8", "int4"]),
           st.integers(1, 200))
    @_settings
    def test_quantize_dequantize_error_bounded(self, dtype, n):
        rng = np.random.default_rng(n)
        x = rng.normal(0, 1, n).astype(np.float32)
        q = quantize_dequantize(x, dtype)
        # worst case (int4): absmax/7 half-step error per element
        bound = np.abs(x).max() / 7 * 0.5 + 1e-3
        assert np.abs(q - x).max() <= bound + np.abs(x).max() / 16


class TestFunctionalProperties:
    @given(st.integers(1, 8), st.integers(1, 32))
    @_settings
    def test_softmax_simplex(self, rows, cols):
        rng = np.random.default_rng(rows * 100 + cols)
        x = rng.normal(0, 10, (rows, cols))
        s = softmax(x)
        assert np.allclose(s.sum(axis=-1), 1.0, atol=1e-5)
        assert (s >= 0).all()

    @given(st.integers(1, 20), st.integers(1, 20))
    @_settings
    def test_top_k_returns_distinct_valid_indices(self, n, seed):
        rng = np.random.default_rng(seed)
        k = rng.integers(1, n + 1)
        x = rng.normal(0, 1, (4, n))
        idx = top_k_indices(x, int(k))
        for row in idx:
            assert len(set(row.tolist())) == k
            assert (row >= 0).all() and (row < n).all()


class TestRouterProperties:
    @given(st.integers(2, 16), st.integers(1, 8), st.integers(1, 40))
    @_settings
    def test_routing_invariants(self, experts, k, tokens):
        k = min(k, experts)
        rng = np.random.default_rng(experts * 1000 + k)
        router = TopKRouter(16, experts, k, rng=rng)
        x = rng.normal(0, 1, (tokens, 16)).astype(np.float32)
        r = router.route(x)
        assert r.indices.shape == (tokens, k)
        assert (r.indices >= 0).all() and (r.indices < experts).all()
        assert np.allclose(r.weights.sum(axis=-1), 1.0, atol=1e-5)
        assert r.expert_counts().sum() == tokens * k

    @given(st.integers(2, 8), st.integers(1, 4), st.integers(1, 24))
    @_settings
    def test_fused_unfused_equivalence(self, experts, k, tokens):
        k = min(k, experts)
        rng = np.random.default_rng(experts * 37 + k)
        layer = MoELayer(
            32, MoEConfig(num_experts=experts, top_k=k, expert_ffn_dim=8),
            rng=rng,
        )
        x = rng.normal(0, 1, (tokens, 32)).astype(np.float32)
        assert np.allclose(
            layer(x, "fused").hidden, layer(x, "unfused").hidden, atol=1e-4
        )


class TestRoutingMathProperties:
    @given(st.integers(1, 128), st.integers(1, 16), st.integers(0, 4096))
    @_settings
    def test_coverage_bounds(self, experts, k, tokens):
        k = min(k, experts)
        cov = expected_expert_coverage(experts, k, tokens)
        assert 0.0 <= cov <= experts
        if tokens >= 1:
            assert cov >= min(k, experts) - 1e-9 or tokens == 0

    @given(st.integers(1, 16), st.integers(0, 100_000))
    @_settings
    def test_imbalance_at_least_one(self, groups, assignments):
        assert expected_group_imbalance(groups, assignments) >= 1.0


class TestSpeculativeProperties:
    @given(st.floats(0.0, 0.95), st.integers(1, 16))
    @_settings
    def test_expected_tokens_bounds(self, alpha, k):
        e = expected_tokens_per_cycle(alpha, k)
        assert 1.0 <= e <= k + 1

    @given(st.floats(0.05, 0.9), st.integers(1, 8))
    @_settings
    def test_simulation_within_bounds(self, alpha, k):
        sim = simulate_accepted_tokens(alpha, k, 200,
                                       rng=np.random.default_rng(int(alpha * 100)))
        assert sim.min() >= 1 and sim.max() <= k + 1


class TestMetricsProperties:
    @given(st.integers(1, 128), st.integers(1, 4096), st.integers(2, 4096),
           st.floats(0.001, 10.0), st.floats(0.0, 100.0))
    @_settings
    def test_metric_formulas_consistent(self, b, i, o, ttft, decode):
        shape = GenerationShape(b, i, o)
        e2e = ttft + decode
        thr = throughput_eq2(shape, e2e)
        assert thr == pytest.approx(b * (i + o) / e2e)
        itl = itl_eq1(shape, ttft, e2e)
        assert itl >= 0
        assert itl * (b * o - 1) == pytest.approx(decode, abs=1e-9)


class TestRooflineProperties:
    @given(st.floats(1, 1e5), st.floats(1, 1e5), st.floats(1, 1e5))
    @_settings
    def test_efficiency_in_unit_interval(self, m, n, k):
        eff = gemm_efficiency(m, n, k, H100_SXM)
        assert 0 < eff <= H100_SXM.max_gemm_efficiency

    @given(st.floats(0, 1e15), st.floats(0, 1e12), st.integers(0, 100))
    @_settings
    def test_kernel_time_monotone_in_cost(self, flops, bytes_, launches):
        base = kernel_time(KernelCost(flops, bytes_, "fp16", launches), H100_SXM)
        more = kernel_time(KernelCost(flops * 2 + 1, bytes_ * 2 + 1, "fp16",
                                      launches + 1), H100_SXM)
        assert more > base or (base == more == 0)


class TestKVCacheProperties:
    @given(st.lists(st.tuples(st.integers(1, 200), st.integers(0, 100)),
                    min_size=1, max_size=20))
    @_settings
    def test_block_conservation(self, ops):
        """Allocate + grow + free any sequence of sequences: blocks are
        conserved and never double-allocated."""
        pool = PagedKVCache(num_blocks=256, block_size=16)
        live: dict[int, int] = {}
        for sid, (prompt, growth) in enumerate(ops):
            if not pool.can_allocate(prompt):
                continue
            pool.allocate(sid, prompt)
            live[sid] = prompt
            for _ in range(growth):
                if pool.can_append_slots(sid, 1):
                    pool.append_slots(sid, 1)
                    live[sid] += 1
        # all block tables disjoint
        seen: set[int] = set()
        for sid in live:
            blocks = pool.block_table(sid)
            assert not (set(blocks) & seen)
            seen.update(blocks)
            assert len(blocks) == -(-live[sid] // 16)
        assert pool.used_blocks == len(seen)
        for sid in list(live):
            pool.free(sid)
        assert pool.free_blocks == 256


class TestPrefixCacheProperties:
    @given(st.lists(
        st.tuples(st.integers(0, 3), st.integers(1, 6), st.booleans()),
        min_size=1, max_size=24,
    ))
    @_settings
    def test_shared_blocks_conserved(self, ops):
        """Arbitrary interleavings of prefix allocations (4 prompt
        families), growth and frees never corrupt refcounts: after freeing
        everything, all blocks return."""
        from repro.serving.prefix_cache import PrefixCachingKVCache

        pool = PrefixCachingKVCache(num_blocks=128, block_size=16)
        live: list[int] = []
        next_id = 0
        for family, blocks_n, do_free in ops:
            hashes = tuple(1000 * family + i for i in range(blocks_n))
            tokens = blocks_n * 16 + 5
            if pool.free_blocks >= pool.blocks_needed(tokens):
                pool.allocate_with_prefix(next_id, tokens, hashes)
                live.append(next_id)
                next_id += 1
            if do_free and live:
                pool.free(live.pop(0))
        for sid in live:
            pool.free(sid)
        assert pool.used_blocks == 0
        assert pool.free_blocks == 128

    @given(st.integers(1, 7), st.integers(1, 7))
    @_settings
    def test_hit_tokens_match_shared_prefix(self, a_blocks, b_blocks):
        from repro.serving.prefix_cache import PrefixCachingKVCache

        pool = PrefixCachingKVCache(num_blocks=64, block_size=16)
        pool.allocate_with_prefix(1, a_blocks * 16, tuple(range(a_blocks)))
        cached = pool.allocate_with_prefix(
            2, b_blocks * 16, tuple(range(b_blocks))
        )
        assert cached == min(a_blocks, b_blocks) * 16
