"""Property-based invariant suite: the engine under chaos (and without).

Drives :mod:`repro.faults` end to end: whatever a seeded fault schedule
does to the serving engine, the simulation must keep its invariants —
token conservation, an exactly-partitioned KV pool, monotone simulated
time, and every admitted request ending terminal (finished, retried to
completion, or failed with a reason).  Same-seed chaos runs must replay
bit-identically.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.invariants import drain_checked, run_digest
from repro.faults.harness import ChaosConfig, build_chaos_engine
from repro.faults.schedule import (
    PERMANENT,
    FaultEvent,
    FaultKind,
    FaultSchedule,
)
from repro.hardware.gpus import H100_SXM
from repro.models.zoo import get_model
from repro.perfmodel.inference import InferencePerfModel
from repro.serving.engine import ServingEngine
from repro.serving.request import Request, SamplingParams
from repro.serving.scheduler import SchedulerConfig

MODEL = "OLMoE-1B-7B"


@pytest.fixture(scope="module")
def perf():
    return InferencePerfModel(get_model(MODEL), H100_SXM)


def _healthy_engine(perf, *, num_requests, input_tokens, output_tokens,
                    kv_pool_tokens, chunked, policy):
    engine = ServingEngine(
        perf,
        scheduler_config=SchedulerConfig(
            max_num_seqs=16,
            enable_chunked_prefill=chunked,
            chunk_size=128,
            policy=policy,
        ),
        kv_pool_tokens=kv_pool_tokens,
    )
    for i in range(num_requests):
        engine.submit(Request(
            request_id=i,
            prompt_tokens=input_tokens,
            sampling=SamplingParams(max_tokens=output_tokens),
            arrival_time=i * 0.002,
        ))
    return engine


def _chaos_config(**overrides) -> ChaosConfig:
    """Small, fast chaos deployment (defaults sized for the test suite)."""
    base = dict(num_requests=12, input_tokens=128, output_tokens=24,
                kv_pool_tokens=16_384, horizon_s=4.0)
    base.update(overrides)
    return ChaosConfig(**base)


class TestHealthyProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        num_requests=st.integers(min_value=1, max_value=10),
        input_tokens=st.integers(min_value=16, max_value=384),
        output_tokens=st.integers(min_value=1, max_value=48),
        kv_pool_tokens=st.sampled_from([4096, 8192, 16_384]),
        chunked=st.booleans(),
        policy=st.sampled_from(["prefill_first", "decode_first"]),
    )
    def test_invariants_hold_without_faults(self, perf, num_requests,
                                            input_tokens, output_tokens,
                                            kv_pool_tokens, chunked, policy):
        engine = _healthy_engine(
            perf, num_requests=num_requests, input_tokens=input_tokens,
            output_tokens=output_tokens, kv_pool_tokens=kv_pool_tokens,
            chunked=chunked, policy=policy,
        )
        result = drain_checked(engine)
        assert result.availability == 1.0
        assert result.num_failed == 0


class TestChaosProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        fault_seed=st.integers(min_value=0, max_value=31),
        fault_rate=st.sampled_from([2.0, 4.0, 8.0]),
        policy=st.sampled_from(["retry", "failfast"]),
        replicas=st.sampled_from([1, 2]),
        degrade=st.booleans(),
    )
    def test_invariants_hold_under_chaos(self, fault_seed, fault_rate,
                                         policy, replicas, degrade):
        engine, injector = build_chaos_engine(_chaos_config(
            fault_seed=fault_seed, fault_rate=fault_rate,
            policy=policy, replicas=replicas, degrade=degrade,
        ))
        result = drain_checked(engine)
        counts = injector.counts
        assert counts["requests_killed"] == counts["retries"] + counts["failures"]
        finished = sum(1 for r in result.requests if r.is_finished)
        assert result.availability == finished / result.num_requests
        if policy == "failfast":
            assert result.num_fault_retries == 0

    @pytest.mark.parametrize("fault_seed", [1, 5, 11])
    def test_invariant_suite_across_fault_seeds(self, fault_seed):
        """The ISSUE's acceptance gate: the full invariant suite under at
        least three distinct fault seeds, both recovery policies."""
        for policy in ("retry", "failfast"):
            engine, injector = build_chaos_engine(_chaos_config(
                fault_seed=fault_seed, fault_rate=6.0, policy=policy,
            ))
            result = drain_checked(engine)
            for req in result.requests:
                assert req.is_terminal
                if req.is_failed:
                    assert req.failure_reason

    @pytest.mark.parametrize("fault_seed", [1, 5, 11])
    def test_same_seed_chaos_is_bit_identical(self, fault_seed):
        def digest():
            engine, _ = build_chaos_engine(_chaos_config(
                fault_seed=fault_seed, fault_rate=6.0,
            ))
            return run_digest(engine.run())

        assert digest() == digest()

    def test_different_seeds_diverge(self):
        def digest(seed):
            engine, _ = build_chaos_engine(_chaos_config(
                fault_seed=seed, fault_rate=8.0,
            ))
            return run_digest(engine.run())

        assert digest(3) != digest(4)


class TestDirectedFaultScenarios:
    """Hand-built schedules driving the paths Poisson chaos hits rarely."""

    def test_shard_loss_without_replicas_degrades_topk(self):
        schedule = FaultSchedule(events=(FaultEvent(
            time=0.01, kind=FaultKind.EXPERT_SHARD_LOSS, target=1,
        ),))
        engine, injector = build_chaos_engine(
            _chaos_config(replicas=1, degrade=True), schedule=schedule)
        drain_checked(engine)
        top_k = get_model(MODEL).moe.top_k
        assert injector.health.effective_top_k < top_k
        assert injector.counts["degrades"] >= 1
        assert injector.health.unrecoverable == []

    def test_shard_loss_without_degrade_is_unrecoverable(self):
        schedule = FaultSchedule(events=(FaultEvent(
            time=0.01, kind=FaultKind.EXPERT_SHARD_LOSS, target=1,
        ),))
        engine, injector = build_chaos_engine(
            _chaos_config(replicas=1, degrade=False), schedule=schedule)
        drain_checked(engine)
        assert injector.health.unrecoverable

    def test_shard_loss_with_replicas_keeps_full_topk(self):
        schedule = FaultSchedule(events=(FaultEvent(
            time=0.01, kind=FaultKind.EXPERT_SHARD_LOSS, target=1,
        ),))
        engine, injector = build_chaos_engine(
            _chaos_config(replicas=2), schedule=schedule)
        drain_checked(engine)
        assert injector.health.effective_top_k == get_model(MODEL).moe.top_k
        assert injector.health.unrecoverable == []

    def test_losing_the_only_device_fails_everything_in_flight(self):
        schedule = FaultSchedule(events=(FaultEvent(
            time=0.02, kind=FaultKind.DEVICE_LOSS, target=0,
        ),))
        engine, injector = build_chaos_engine(
            _chaos_config(num_devices=1, ep=1, arrival_interval=0.0),
            schedule=schedule)
        result = drain_checked(engine)
        assert "all devices lost" in injector.health.unrecoverable
        assert result.num_failed > 0
        assert all(r.failure_reason for r in result.requests if r.is_failed)

    def test_permanent_kv_pressure_fails_unschedulable_requests(self):
        """A permanent reservation that leaves the pool too small must fail
        the doomed requests with a reason, not livelock the engine."""
        schedule = FaultSchedule(events=(FaultEvent(
            time=0.001, kind=FaultKind.KV_PRESSURE, magnitude=0.95,
        ),))
        engine, _ = build_chaos_engine(
            _chaos_config(kv_pool_tokens=2048, num_requests=6),
            schedule=schedule)
        result = drain_checked(engine)
        failed = [r for r in result.requests if r.is_failed]
        assert failed
        assert any("insufficient KV capacity" in r.failure_reason
                   for r in failed)

    def test_transient_kv_pressure_heals_and_run_completes(self):
        schedule = FaultSchedule(events=(FaultEvent(
            time=0.001, kind=FaultKind.KV_PRESSURE, magnitude=0.9,
            duration_s=0.2,
        ),))
        engine, injector = build_chaos_engine(
            _chaos_config(kv_pool_tokens=2048, num_requests=6,
                          arrival_interval=0.0),
            schedule=schedule)
        result = drain_checked(engine)
        assert injector.counts["recoveries"] == 1
        assert result.availability == 1.0
        assert engine.kv.reserved_blocks == 0

    def test_retry_budget_exhaustion_fails_with_reason(self):
        """Repeated kills of the same device's requests must exhaust the
        retry budget and fail with the originating fault in the reason."""
        events = tuple(FaultEvent(
            time=0.01 + 0.4 * i, kind=FaultKind.DEVICE_LOSS, target=0,
            duration_s=0.35,
        ) for i in range(8))
        engine, _ = build_chaos_engine(
            _chaos_config(num_requests=8, output_tokens=256,
                          arrival_interval=0.0, fault_rate=0.0),
            schedule=FaultSchedule(events=events))
        result = drain_checked(engine)
        exhausted = [r for r in result.requests
                     if r.is_failed and "retry budget exhausted"
                     in r.failure_reason]
        assert exhausted
        assert all(r.fault_retries == 3 for r in exhausted)
