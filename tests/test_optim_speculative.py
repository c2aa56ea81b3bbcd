"""Tests for repro.optim.speculative (paper §6.3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.hardware.gpus import H100_SXM
from repro.models.zoo import QWEN3_0_6B, QWEN3_1_7B, QWEN3_4B, QWEN3_8B, QWEN3_30B_A3B
from repro.optim.speculative import (
    SpeculativeDecodingModel,
    default_acceptance_rate,
    expected_tokens_per_cycle,
    simulate_accepted_tokens,
)


class TestExpectedTokens:
    def test_closed_form_values(self):
        # alpha=0: only the bonus token
        assert expected_tokens_per_cycle(0.0, 4) == 1.0
        # alpha=0.5, k=1: 1 + 0.5
        assert expected_tokens_per_cycle(0.5, 1) == pytest.approx(1.5)

    def test_monotone_in_alpha_and_k(self):
        assert expected_tokens_per_cycle(0.8, 4) > expected_tokens_per_cycle(0.5, 4)
        assert expected_tokens_per_cycle(0.7, 8) > expected_tokens_per_cycle(0.7, 2)

    def test_bounded_by_k_plus_one(self):
        assert expected_tokens_per_cycle(0.99, 4) < 5.0

    def test_validation(self):
        with pytest.raises(ValueError):
            expected_tokens_per_cycle(1.0, 4)
        with pytest.raises(ValueError):
            expected_tokens_per_cycle(0.5, 0)

    def test_simulation_converges_to_closed_form(self):
        alpha, k = 0.7, 4
        sim = simulate_accepted_tokens(alpha, k, 40_000,
                                       rng=np.random.default_rng(0))
        assert sim.mean() == pytest.approx(expected_tokens_per_cycle(alpha, k),
                                           rel=0.02)
        assert sim.min() >= 1 and sim.max() <= k + 1


class TestAcceptanceRate:
    def test_bigger_drafts_accept_more(self):
        alphas = [default_acceptance_rate(d, QWEN3_30B_A3B)
                  for d in (QWEN3_0_6B, QWEN3_1_7B, QWEN3_4B, QWEN3_8B)]
        assert all(a < b for a, b in zip(alphas, alphas[1:]))
        assert 0.3 <= alphas[0] < alphas[-1] <= 0.92

    def test_longer_context_lowers_acceptance(self):
        short = default_acceptance_rate(QWEN3_1_7B, QWEN3_30B_A3B, 128)
        long = default_acceptance_rate(QWEN3_1_7B, QWEN3_30B_A3B, 2048)
        assert long < short

    def test_context_validation(self):
        with pytest.raises(ValueError):
            default_acceptance_rate(QWEN3_1_7B, QWEN3_30B_A3B, 0)


@pytest.fixture(scope="module")
def spec_17b():
    return SpeculativeDecodingModel(
        QWEN3_30B_A3B, QWEN3_1_7B, H100_SXM, num_draft_tokens=4
    )


class TestThroughputModel:
    def test_cycle_time_positive_and_grows_with_k(self):
        t2 = SpeculativeDecodingModel(QWEN3_30B_A3B, QWEN3_1_7B, H100_SXM,
                                      num_draft_tokens=2).cycle_time(1, 512)
        t8 = SpeculativeDecodingModel(QWEN3_30B_A3B, QWEN3_1_7B, H100_SXM,
                                      num_draft_tokens=8).cycle_time(1, 512)
        assert 0 < t2 < t8

    def test_paper_draft_ordering(self):
        """Fig. 12: the mid-sized 1.7B draft wins; 0.6B and 8B lose."""
        thr = {}
        for draft in (QWEN3_0_6B, QWEN3_1_7B, QWEN3_4B, QWEN3_8B):
            m = SpeculativeDecodingModel(QWEN3_30B_A3B, draft, H100_SXM,
                                         num_draft_tokens=4)
            thr[draft.name] = m.decode_throughput(1, 512)
        assert max(thr, key=thr.get) == "Qwen3-1.7B"
        assert thr["Qwen3-1.7B"] > thr["Qwen3-8B"]
        assert thr["Qwen3-1.7B"] > thr["Qwen3-0.6B"]

    def test_throughput_declines_with_k(self):
        """Fig. 12: more draft tokens -> monotonically lower throughput."""
        rates = [
            SpeculativeDecodingModel(QWEN3_30B_A3B, QWEN3_1_7B, H100_SXM,
                                     num_draft_tokens=k).decode_throughput(1, 512)
            for k in (1, 2, 4, 8)
        ]
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_throughput_declines_with_context(self, spec_17b):
        assert (spec_17b.decode_throughput(1, 128)
                > spec_17b.decode_throughput(1, 2048))

    def test_acceptance_override(self):
        m = SpeculativeDecodingModel(QWEN3_30B_A3B, QWEN3_1_7B, H100_SXM,
                                     num_draft_tokens=2, acceptance_rate=0.9)
        assert m.alpha(4096) == 0.9

    def test_generate_metrics(self, spec_17b):
        metrics = spec_17b.generate(1, 256, 128)
        assert metrics.ttft_s > 0
        assert metrics.e2e_latency_s > metrics.ttft_s
        assert metrics.throughput_tok_s > 0

    def test_bad_k(self):
        with pytest.raises(ValueError):
            SpeculativeDecodingModel(QWEN3_30B_A3B, QWEN3_1_7B, H100_SXM,
                                     num_draft_tokens=0)
