"""Tests for repro.serving.request."""

from __future__ import annotations

import pytest

from repro.serving.request import Request, RequestState, SamplingParams


class TestSamplingParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            SamplingParams(max_tokens=0)


class TestRequest:
    def test_initial_state(self):
        r = Request(request_id=1, prompt_tokens=100,
                    sampling=SamplingParams(max_tokens=50))
        assert r.state is RequestState.WAITING
        assert r.is_prefill_pending
        assert r.remaining_prefill == 100
        assert r.total_length_budget == 150
        assert r.ttft is None and r.e2e_latency is None

    def test_prefill_completion(self):
        r = Request(1, 100, SamplingParams(max_tokens=10))
        r.kv_tokens = 100
        assert not r.is_prefill_pending
        assert r.context_length == 100

    def test_recompute_preemption_refills_generated(self):
        """After a recompute preemption the generated prefix must be
        re-prefilled (vLLM semantics) — except the newest sampled token,
        whose KV slot the next decode step appends (steady state is
        ``kv_tokens == prompt + generated - 1``)."""
        r = Request(1, 100, SamplingParams(max_tokens=50))
        r.kv_tokens = 109
        r.generated_tokens = 10
        r.reset_for_recompute()
        assert r.state is RequestState.PREEMPTED
        assert r.kv_tokens == 0
        assert r.remaining_prefill == 109
        assert r.num_preemptions == 1

    def test_metric_views(self):
        r = Request(1, 10, SamplingParams(max_tokens=5), arrival_time=2.0)
        r.first_token_time = 2.5
        r.finish_time = 4.0
        assert r.ttft == pytest.approx(0.5)
        assert r.e2e_latency == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            Request(1, 0, SamplingParams(max_tokens=5))
        with pytest.raises(ValueError):
            Request(1, 10, SamplingParams(max_tokens=5), arrival_time=-1)
        with pytest.raises(ValueError):
            Request(1, 10, SamplingParams(max_tokens=5), num_images=-1)
