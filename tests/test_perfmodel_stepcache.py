"""Tests for the exact step-breakdown memo table (repro.perfmodel.stepcache)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.hardware.gpus import H100_SXM
from repro.models.zoo import get_model
from repro.parallel.plan import ParallelPlan
from repro.perfmodel import stepcache
from repro.perfmodel.phases import StepModel
from repro.serving.engine import ServingEngine
from repro.perfmodel.inference import InferencePerfModel
from repro.workloads.generator import FixedShapeWorkload


@pytest.fixture
def fresh_cache():
    """Run against a clean, enabled global cache; restore stats after."""
    stepcache.configure(enabled=True)
    stepcache.clear()
    stepcache.GLOBAL.reset_stats()
    yield stepcache.GLOBAL
    stepcache.configure(enabled=True)
    stepcache.clear()
    stepcache.GLOBAL.reset_stats()


def _steps(model_name: str = "OLMoE-1B-7B", **kwargs) -> StepModel:
    return StepModel(get_model(model_name), H100_SXM, **kwargs)


class TestCacheMechanics:
    def test_repeat_lookup_hits(self, fresh_cache):
        steps = _steps()
        first = steps.prefill_time(4, 256)
        hits0, misses0 = fresh_cache.stats.hits, fresh_cache.stats.misses
        again = steps.prefill_time(4, 256)
        assert again == first
        assert fresh_cache.stats.hits == hits0 + 1
        assert fresh_cache.stats.misses == misses0

    def test_distinct_shapes_miss(self, fresh_cache):
        steps = _steps()
        steps.decode_step_time(1, 128)
        steps.decode_step_time(1, 129)
        steps.decode_step_time(2, 128)
        assert steps.cache_stats().misses == 3
        assert steps.cache_stats().hits == 0

    def test_two_models_do_not_collide(self, fresh_cache):
        a = _steps("OLMoE-1B-7B")
        b = _steps("Mixtral-8x7B")
        assert a.decode_step_time(1, 256) != b.decode_step_time(1, 256)
        assert stepcache.stats().hits == 0

    def test_same_setup_shares_entries(self, fresh_cache):
        a = _steps()
        b = _steps()  # separate StepModel, identical frozen setup
        a.decode_step_time(2, 512)
        b.decode_step_time(2, 512)
        assert stepcache.stats().hits == 1

    def test_subclass_isolated_from_base(self, fresh_cache):
        class Doubled(StepModel):
            def _component_time(self, *args, **kwargs):
                return 2.0 * super()._component_time(*args, **kwargs)

        base = _steps()
        doubled = Doubled(get_model("OLMoE-1B-7B"), H100_SXM)
        t_base = base.decode_step_time(1, 256)
        t_doubled = doubled.decode_step_time(1, 256)
        assert t_doubled > t_base  # would be equal if keys collided
        assert stepcache.stats().hits == 0

    def test_plan_quant_flags_key_the_cache(self, fresh_cache):
        _steps().decode_step_time(1, 256)
        _steps(plan=ParallelPlan(tp=2)).decode_step_time(1, 256)
        _steps(fused_moe=False).decode_step_time(1, 256)
        assert stepcache.stats().misses == 3
        assert stepcache.stats().hits == 0

    def test_eviction_clears_wholesale(self, fresh_cache):
        cache = stepcache.GLOBAL
        old_max = cache.max_entries
        try:
            stepcache.configure(max_entries=4)
            steps = _steps()
            for ctx in range(128, 128 + 6):
                steps.decode_step_time(1, ctx)
            assert len(cache) <= 4
            assert cache.stats.clears >= 1
        finally:
            stepcache.configure(max_entries=old_max)

    def test_disabled_cache_stores_nothing(self, fresh_cache):
        stepcache.configure(enabled=False)
        steps = _steps()
        steps.prefill_time(1, 128)
        steps.prefill_time(1, 128)
        assert len(stepcache.GLOBAL) == 0
        assert stepcache.stats().lookups == 0

    def test_freeze_handles_nested_configs(self):
        model = get_model("DeepSeek-V2-Lite")
        key = stepcache.freeze(model)
        assert hash(key) == hash(stepcache.freeze(get_model("DeepSeek-V2-Lite")))
        assert hash(key) != hash(stepcache.freeze(get_model("Mixtral-8x7B")))

    def test_freeze_memoized_per_object(self, fresh_cache):
        model = get_model("OLMoE-1B-7B")
        twin = dataclasses.replace(model)  # equal, not identical
        assert twin is not model
        assert stepcache.freeze(model) is stepcache.freeze(model)
        assert stepcache.freeze(twin) == stepcache.freeze(model)
        # the entry keeps its object alive, so its id is never reused
        assert stepcache._FROZEN[id(model)][0] is model
        assert (StepModel(twin, H100_SXM).setup_id
                == StepModel(model, H100_SXM).setup_id)

    def test_freeze_rewalks_mutable_dataclasses(self):
        @dataclasses.dataclass
        class Knob:
            value: int

        knob = Knob(1)
        before = stepcache.freeze(knob)
        knob.value = 2
        assert stepcache.freeze(knob) != before
        assert id(knob) not in stepcache._FROZEN


class TestTokenMemo:
    """The token-only terms of decode steps are memoized per scalar
    ``(num_tokens, batch)`` beside the breakdown table, without touching
    its counters."""

    def test_contexts_share_one_entry(self, fresh_cache):
        steps = _steps()
        steps.decode_step_time(4, 128)
        steps.decode_step_time(4, 129)
        steps.decode_totals(4, [7, 8, 9])
        assert list(fresh_cache.token_terms) == [(steps.setup_id, 4.0, 4.0)]

    def test_leaves_stats_unchanged(self, fresh_cache):
        steps = _steps()
        steps.decode_totals(3, range(1, 6))
        steps.step_total_one(2, 2, 64)
        assert len(fresh_cache.token_terms) == 2
        assert stepcache.stats() == stepcache.CacheStats()

    def test_prefill_shapes_stay_unmemoized(self, fresh_cache):
        steps = _steps()
        steps.prefill_time(2, 64)
        steps.step_total_one(128, 2, 64, 32.5)
        assert not fresh_cache.token_terms

    def test_bounded_by_max_entries(self, fresh_cache):
        old_max = fresh_cache.max_entries
        try:
            stepcache.configure(max_entries=4)
            steps = _steps()
            for batch in range(1, 8):
                steps.step_total_one(batch, batch, 128)
                assert 1 <= len(fresh_cache.token_terms) <= 4
            assert fresh_cache.stats.clears == 0
        finally:
            stepcache.configure(max_entries=old_max)

    def test_clear_empties(self, fresh_cache):
        _steps().decode_step_time(2, 64)
        assert fresh_cache.token_terms
        stepcache.clear()
        assert not fresh_cache.token_terms

    def test_disabled_stores_nothing(self, fresh_cache):
        stepcache.configure(enabled=False)
        steps = _steps()
        steps.decode_step_time(2, 64)
        steps.decode_totals(2, [1, 2, 3, 4])
        steps.step_total_one(128, 1, 128, 64.5)
        assert not fresh_cache.token_terms


class TestEngineEquivalence:
    def _run(self) -> list[float]:
        pm = InferencePerfModel(get_model("OLMoE-1B-7B"), H100_SXM)
        engine = ServingEngine(pm)
        for req in FixedShapeWorkload(batch_size=6, input_tokens=96,
                                      output_tokens=24).requests():
            engine.submit(req)
        result = engine.run()
        return sorted(r.finish_time for r in result.requests)

    def test_cache_on_off_bit_identical(self, fresh_cache):
        on = self._run()
        stepcache.configure(enabled=False)
        off = self._run()
        assert on == off

    def test_engine_exports_cache_gauges(self, fresh_cache):
        from repro.obs.instrument import Instrumentation

        obs = Instrumentation.on()
        pm = InferencePerfModel(get_model("OLMoE-1B-7B"), H100_SXM,
                                instrumentation=obs)
        engine = ServingEngine(pm, instrumentation=obs)
        for req in FixedShapeWorkload(batch_size=4, input_tokens=64,
                                      output_tokens=8).requests():
            engine.submit(req)
        engine.run()
        hits = obs.metrics.gauge("stepcache_hits_total").value
        misses = obs.metrics.gauge("stepcache_misses_total").value
        assert misses > 0
        assert hits >= 0
