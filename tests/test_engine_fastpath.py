"""Scalar <-> vectorized serving-engine equivalence (fast path, phase 2).

The batched decode window (:mod:`repro.serving.fastpath`) claims *bit
identity* with the scalar per-iteration loop: same event stream, same
timestamps, same RNG draw order.  These tests run the nastiest scheduler
paths — chunked-prefill head-of-line blocking, preemption storms on tiny
KV pools, fault-kill requeues, starvation resolution, EOS sampling — in
both modes and assert the exact digests match:

* ``run_digest`` hashes every event float via ``float.hex`` plus every
  per-request outcome — one differing bit anywhere fails;
* ``fleet_digest`` does the same for the multi-replica simulator, whose
  ``Replica.advance_to`` is the horizon-bounded window consumer;
* observed runs (metrics, alert rules, SLO burn rules attached) also
  compare fired alerts, the SLO report and the metrics snapshot.

The mode toggle (``REPRO_NO_VECTORIZE_ENGINE``) is read once at engine
construction, so the helpers set the environment *before* building the
engine and restore it after.  The step cache is cleared between modes so
each path prices its steps from scratch (shared memo entries are
bit-identical by construction, but a cold cache makes the comparison
end-to-end).
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults.invariants import run_digest
from repro.obs import Instrumentation
from repro.obs.alerts import AlertMonitor, AlertRule, KvHighWaterRule, \
    default_rules
from repro.obs.slo import SLO, BurnRateRule, SloTracker, sre_burn_rules
from repro.obs.trace import SpanTracer
from repro.hardware.gpus import H100_SXM
from repro.models.zoo import get_model
from repro.parallel.plan import SINGLE_DEVICE, ParallelPlan
from repro.perfmodel import stepcache
from repro.perfmodel.inference import InferencePerfModel
from repro.serving.engine import ServingEngine
from repro.serving.fastpath import DECODE_BLOCK, EngineFastPath
from repro.serving.request import Request, SamplingParams
from repro.serving.scheduler import SchedulerConfig

_settings = settings(max_examples=15, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])

_MODELS = ("OLMoE-1B-7B", "Mixtral-8x7B", "DeepSeek-V2-Lite")

_PERF_MODELS: dict[str, InferencePerfModel] = {}


def _perf(model_name: str) -> InferencePerfModel:
    pm = _PERF_MODELS.get(model_name)
    if pm is None:
        pm = InferencePerfModel(get_model(model_name), H100_SXM)
        _PERF_MODELS[model_name] = pm
    return pm


class _engine_mode:
    """Set/clear ``REPRO_NO_VECTORIZE_ENGINE`` around engine construction."""

    def __init__(self, vectorize: bool) -> None:
        self.vectorize = vectorize

    def __enter__(self) -> None:
        self._saved = os.environ.get("REPRO_NO_VECTORIZE_ENGINE")
        if self.vectorize:
            os.environ.pop("REPRO_NO_VECTORIZE_ENGINE", None)
        else:
            os.environ["REPRO_NO_VECTORIZE_ENGINE"] = "1"

    def __exit__(self, *exc) -> None:
        if self._saved is None:
            os.environ.pop("REPRO_NO_VECTORIZE_ENGINE", None)
        else:
            os.environ["REPRO_NO_VECTORIZE_ENGINE"] = self._saved


def _serve(model_name: str, specs, vectorize: bool, *,
           config: SchedulerConfig | None = None,
           kv_pool_tokens: int = 32_768) -> str:
    """Run one workload in the given mode; return its exact run digest.

    ``specs`` is a list of ``(prompt, max_tokens, arrival)`` tuples.
    """
    stepcache.clear()
    with _engine_mode(vectorize):
        engine = ServingEngine(_perf(model_name), scheduler_config=config,
                               kv_pool_tokens=kv_pool_tokens)
        assert (engine.fastpath is not None) == vectorize
        for rid, (prompt, out, arrival) in enumerate(specs):
            engine.submit(Request(
                request_id=rid, prompt_tokens=prompt,
                sampling=SamplingParams(max_tokens=out),
                arrival_time=arrival))
        result = engine.run()
    return run_digest(result)


def _both_modes_equal(model_name: str, specs, **kwargs) -> None:
    fast = _serve(model_name, specs, vectorize=True, **kwargs)
    scalar = _serve(model_name, specs, vectorize=False, **kwargs)
    assert fast == scalar


class TestDecodeWindowEquivalence:
    @given(st.sampled_from(_MODELS),
           st.lists(st.tuples(st.integers(1, 512), st.integers(1, 96),
                              st.floats(0.0, 0.2)),
                    min_size=1, max_size=12))
    @_settings
    def test_mixed_workload(self, model, specs):
        """Arbitrary prompt/output/arrival mixes: windows open and close
        around admissions and completions."""
        _both_modes_equal(model, specs)

    @given(st.sampled_from(_MODELS), st.integers(2, 8),
           st.integers(256, 1024), st.integers(64, 512))
    @_settings
    def test_chunked_prefill_head_of_line(self, model, n, long_prompt,
                                          chunk_size):
        """Chunked prefill: a long prompt drips through chunk-bounded
        iterations while later arrivals queue behind it — every chunk
        boundary forces the window shut."""
        config = SchedulerConfig(enable_chunked_prefill=True,
                                 chunk_size=chunk_size,
                                 max_num_batched_tokens=chunk_size)
        specs = [(long_prompt, 32, 0.0)]
        specs += [(64, 16, 0.001 * (i + 1)) for i in range(n - 1)]
        _both_modes_equal(model, specs, config=config)

    @given(st.sampled_from(_MODELS), st.integers(4, 10),
           st.integers(2048, 6144))
    @_settings
    def test_preemption_storm(self, model, n, pool):
        """A KV pool much smaller than demand: sequences are preempted and
        re-admitted constantly, so windows break on pool-dry and the
        preemption order must replay exactly."""
        specs = [(256, 64, 0.0005 * i) for i in range(n)]
        _both_modes_equal(model, specs, kv_pool_tokens=pool)

    def test_decode_first_policy(self):
        config = SchedulerConfig(policy="decode_first")
        specs = [(200, 80, 0.002 * i) for i in range(6)]
        _both_modes_equal("OLMoE-1B-7B", specs, config=config)

    def test_prefix_caching_block_reuse(self):
        """Prefix-cache eviction pops LRU reusable blocks: the window's
        block-crossing pops must hit the allocator in scalar order."""
        def digest(vectorize):
            stepcache.clear()
            with _engine_mode(vectorize):
                engine = ServingEngine(_perf("OLMoE-1B-7B"),
                                       kv_pool_tokens=8192,
                                       enable_prefix_caching=True)
                for rid in range(8):
                    engine.submit(Request(
                        request_id=rid, prompt_tokens=256,
                        sampling=SamplingParams(max_tokens=64),
                        arrival_time=0.003 * rid))
                return run_digest(engine.run())

        assert digest(True) == digest(False)


class TestFaultAndFleetEquivalence:
    def _chaos_digest(self, vectorize: bool, **overrides) -> tuple[str, dict]:
        from repro.faults.harness import ChaosConfig, chaos_serving_run

        stepcache.clear()
        with _engine_mode(vectorize):
            params = dict(num_requests=12, input_tokens=128,
                          output_tokens=24, kv_pool_tokens=16_384,
                          fault_seed=7, fault_rate=3.0, horizon_s=2.0,
                          num_devices=4, ep=4, replicas=2)
            params.update(overrides)
            config = ChaosConfig(**params)
            run = chaos_serving_run(config)
        return run_digest(run.result), run.summary

    def test_fault_kill_requeue(self):
        """Armed injector: the fast path must defer to the scalar loop
        (faults advance on the scalar clock), and the full kill/requeue
        event stream must match bit for bit."""
        fast = self._chaos_digest(True)
        scalar = self._chaos_digest(False)
        assert fast == scalar

    def test_failfast_policy(self):
        fast = self._chaos_digest(True, policy="failfast", fault_seed=3)
        scalar = self._chaos_digest(False, policy="failfast", fault_seed=3)
        assert fast == scalar

    @pytest.mark.parametrize("policy",
                             ["round_robin", "least_kv", "prefix_affinity"])
    def test_fleet_digest_both_modes(self, policy):
        """The canonical fleet scenario (diurnal trace, replica storm,
        autoscaler) replays to one digest in both modes —
        ``Replica.advance_to`` is the horizon-bounded window consumer."""
        from repro.scenarios import fleet

        stepcache.clear()
        with _engine_mode(True):
            fast = fleet(policy)
        stepcache.clear()
        with _engine_mode(False):
            scalar = fleet(policy)
        assert fast == scalar


def _lean_obs(alerts=None, slo=None) -> Instrumentation:
    """A handle that takes decode windows: span tracer disabled, no request
    tracer, routing probe or cluster telemetry."""
    obs = Instrumentation(tracer=SpanTracer(enabled=False), alerts=alerts,
                          slo=slo)
    if slo is not None:
        slo.align_buckets(obs.metrics)
    return obs


def _spy_quiet(monkeypatch, rule_cls) -> list[tuple[int, int]]:
    """Record ``(answer, planned iterations)`` for every window-contract
    query ``rule_cls`` answers."""
    answers: list[tuple[int, int]] = []
    real = rule_cls.quiet_iterations

    def spy(self, engine, plan):
        quiet = real(self, engine, plan)
        answers.append((quiet, len(plan)))
        return quiet

    monkeypatch.setattr(rule_cls, "quiet_iterations", spy)
    return answers


_HOST_GAUGES = ("stepcache_hits_total", "stepcache_misses_total")
"""Host step-cache lookup counts: window iterations make none, so these
gauges vary with execution mode."""


def _observed_modes_equal(monkeypatch, make_obs, serve) -> None:
    """Run ``serve(obs)`` under a fresh ``make_obs()`` handle in both modes
    and require identical events, alerts, SLO report and metrics.  The two
    step-cache gauges count host cache lookups, which window iterations do
    not make, so they are masked.  The fast mode must take windows."""
    windows: list[int] = []
    real = EngineFastPath.decode_window

    def counted(self, horizon):
        advanced = real(self, horizon)
        windows.append(advanced)
        return advanced

    monkeypatch.setattr(EngineFastPath, "decode_window", counted)

    def observe(vectorize: bool):
        stepcache.clear()
        windows.clear()
        with _engine_mode(vectorize):
            obs = make_obs()
            result = serve(obs)
        metrics = json.loads(obs.metrics.to_json())
        for metric in metrics["metrics"]:
            if metric["name"] in _HOST_GAUGES:
                metric["value"] = None
        alerts = [(a.rule, float.hex(a.time)) for a in obs.alerts.fired] \
            if obs.alerts is not None else None
        slo = obs.slo.report(result.makespan) if obs.slo is not None \
            else None
        return (run_digest(result), alerts, slo, metrics), sum(windows)

    fast, fast_windows = observe(True)
    scalar, _ = observe(False)
    assert fast[0] == scalar[0]  # events and request outcomes
    assert fast[1] == scalar[1]  # fired alerts
    assert fast[2] == scalar[2]  # SLO report
    assert fast[3] == scalar[3]  # metrics, in registry order
    assert fast_windows > 0


def _submit_all(engine: ServingEngine, specs) -> None:
    for rid, (prompt, out, arrival) in enumerate(specs):
        engine.submit(Request(
            request_id=rid, prompt_tokens=prompt,
            sampling=SamplingParams(max_tokens=out), arrival_time=arrival))


class TestObservedWindowEquivalence:
    """Instrumented runs take decode windows when every attached hook has
    a window contract, and stay bit-identical to the scalar loop."""

    @pytest.mark.parametrize("rate", [2.0, 8.0, 32.0, 128.0])
    def test_lean_slo_handle_at_ext_slo_load_rates(self, monkeypatch, rate):
        from repro.experiments.slo import LOAD_SLOS, _lean_slo_obs
        from repro.obs.harness import poisson_serving_run

        _observed_modes_equal(
            monkeypatch, lambda: _lean_slo_obs(LOAD_SLOS),
            lambda obs: poisson_serving_run(
                arrival_rate_rps=rate, num_requests=120,
                instrumentation=obs))

    @pytest.mark.parametrize("prompt", [250, 256])
    def test_metrics_only_handle(self, monkeypatch, prompt):
        """A 256-token prompt crosses a block on its first decode, a
        250-token one seven iterations in: ``kv_blocks_total{op=append}``
        is created before or after the decode metrics accordingly."""
        def serve(obs):
            engine = ServingEngine(_perf("OLMoE-1B-7B"),
                                   kv_pool_tokens=32_768,
                                   instrumentation=obs)
            _submit_all(engine, [(prompt, 48, 0.0)] * 4
                        + [(prompt, 40, 0.02 + 0.003 * i) for i in range(4)])
            return engine.run()

        _observed_modes_equal(monkeypatch, _lean_obs, serve)

    def test_default_rules_kv_high_water_trips_mid_window(self, monkeypatch):
        answers = _spy_quiet(monkeypatch, KvHighWaterRule)

        def serve(obs):
            engine = ServingEngine(_perf("OLMoE-1B-7B"), kv_pool_tokens=2048,
                                   instrumentation=obs)
            _submit_all(engine, [(200, 96, 0.004 * i) for i in range(8)])
            return engine.run()

        _observed_modes_equal(
            monkeypatch, lambda: _lean_obs(AlertMonitor(default_rules())),
            serve)
        assert any(0 < quiet < planned for quiet, planned in answers)

    def test_burn_rules_expire_samples_mid_window(self, monkeypatch):
        """Nearly half the TTFTs miss 15 ms at saturation: good samples
        ageing out of the 0.3 s window raise its burn rate until the slow
        page fires, at an iteration a window would otherwise skip."""
        from repro.obs.harness import poisson_serving_run

        answers = _spy_quiet(monkeypatch, BurnRateRule)
        slos = (SLO.parse("p90 ttft < 0.015s"),)

        def make_obs():
            return _lean_obs(AlertMonitor(sre_burn_rules(slos, hour_s=0.05)),
                             SloTracker(slos))

        _observed_modes_equal(
            monkeypatch, make_obs,
            lambda obs: poisson_serving_run(
                arrival_rate_rps=128.0, num_requests=60,
                instrumentation=obs))
        assert any(0 < quiet < planned for quiet, planned in answers)


class TestFastPathMechanics:
    def test_env_escape_hatch_disables_fastpath(self):
        with _engine_mode(False):
            engine = ServingEngine(_perf("OLMoE-1B-7B"))
            assert engine.fastpath is None
            assert engine.advance_window() == 0

    @staticmethod
    def _after_prefill(obs: Instrumentation) -> ServingEngine:
        with _engine_mode(True):
            engine = ServingEngine(_perf("OLMoE-1B-7B"),
                                   instrumentation=obs)
        engine.submit(Request(request_id=0, prompt_tokens=64,
                              sampling=SamplingParams(max_tokens=32)))
        engine.step()  # prefill
        return engine

    def test_window_refuses_traced_engine(self):
        assert self._after_prefill(Instrumentation()).advance_window() == 0
        assert self._after_prefill(_lean_obs()).advance_window() > 0

    def test_window_refuses_custom_alert_rule(self):
        """A rule without a window contract answers 0 quiet iterations,
        so the engine keeps the scalar path while it is armed."""
        class EveryIteration(AlertRule):
            name = "every_iteration"

        armed = _lean_obs(AlertMonitor([EveryIteration()]))
        assert self._after_prefill(armed).advance_window() == 0

    def test_window_matches_scalar_steps_midstream(self):
        """Drive one engine with explicit windows and another purely with
        ``step()``; clocks and logs must stay equal at every boundary."""
        def build():
            engine = ServingEngine(_perf("OLMoE-1B-7B"))
            for rid in range(3):
                engine.submit(Request(
                    request_id=rid, prompt_tokens=96,
                    sampling=SamplingParams(max_tokens=40),
                    arrival_time=0.0))
            return engine

        stepcache.clear()
        with _engine_mode(True):
            windowed = build()
        with _engine_mode(False):
            scalar = build()
        while True:
            advanced = windowed.advance_window()
            if advanced == 0:
                more = windowed.step()
                advanced = 1 if more else 0
                if not more:
                    break
            for _ in range(advanced):
                scalar.step()
            assert windowed.clock == scalar.clock
            assert len(windowed.log.events) == len(scalar.log.events)
        assert run_digest(windowed.run()) == run_digest(scalar.run())


class TestResultAggregates:
    """S1 regression: the memoized ServingResult aggregates must equal a
    fresh scan for every zoo model (one pass, then served from cache)."""

    @pytest.mark.parametrize("model", _MODELS)
    def test_cached_aggregates_match_rescan(self, model):
        engine = ServingEngine(_perf(model), kv_pool_tokens=32_768)
        for rid in range(6):
            engine.submit(Request(
                request_id=rid, prompt_tokens=64 + 16 * rid,
                sampling=SamplingParams(max_tokens=8 + rid),
                arrival_time=0.001 * rid))
        res = engine.run()
        reqs = res.requests
        assert res.total_tokens == sum(
            r.prompt_tokens + r.generated_tokens for r in reqs)
        assert res.num_failed == sum(1 for r in reqs if r.is_failed)
        assert res.num_preemptions == sum(r.num_preemptions for r in reqs)
        assert res.num_fault_retries == sum(r.fault_retries for r in reqs)
        assert res.availability == \
            sum(1 for r in reqs if r.is_finished) / len(reqs)
        # second read is served from the memo and must not drift
        assert res.total_tokens == sum(
            r.prompt_tokens + r.generated_tokens for r in reqs)

    def test_request_index_lookup(self):
        engine = ServingEngine(_perf("OLMoE-1B-7B"))
        for rid in (5, 9, 2):
            engine.submit(Request(request_id=rid, prompt_tokens=32,
                                  sampling=SamplingParams(max_tokens=4)))
        res = engine.run()
        assert res.request(9).request_id == 9
        assert res.request(2).request_id == 2
        with pytest.raises(KeyError):
            res.request(404)

    def test_token_times_per_request(self):
        engine = ServingEngine(_perf("OLMoE-1B-7B"))
        engine.submit(Request(request_id=0, prompt_tokens=64,
                              sampling=SamplingParams(max_tokens=6)))
        res = engine.run()
        times = res.token_times(0)
        assert len(times) == 6
        assert times == sorted(times)
        assert times[0] == res.request(0).first_token_time


def _kv_state(engine: ServingEngine) -> tuple:
    """Allocator state a window touches: free-list order, reusable LRU
    order (prefix caching) and every block table."""
    kv = engine.kv
    return (list(kv._free), list(getattr(kv, "_reusable", {}).items()),
            {seq: (list(t.blocks), t.num_tokens)
             for seq, t in kv._tables.items()})


class TestHorizonSplitWindows:
    """``Replica.advance_to`` cuts one decode run into many windows at
    fleet horizons; the pieces must replay the unbroken window exactly."""

    @staticmethod
    def _decoding(prompts, max_tokens, pool, prefix,
                  vectorize: bool = True) -> ServingEngine:
        with _engine_mode(vectorize):
            engine = ServingEngine(_perf("OLMoE-1B-7B"),
                                   kv_pool_tokens=pool,
                                   enable_prefix_caching=prefix)
        for rid, prompt in enumerate(prompts):
            engine.submit(Request(
                request_id=rid, prompt_tokens=prompt,
                sampling=SamplingParams(max_tokens=max_tokens),
                arrival_time=0.0,
                prompt_block_hashes=tuple(range(prompt // 16))
                if prefix else ()))
        while engine.scheduler.waiting or engine._pending \
                or not engine.scheduler.running:
            assert engine.step()
        return engine

    @_settings
    @given(st.lists(st.integers(1, 200), min_size=1, max_size=6),
           st.integers(40, 300), st.sampled_from([2_048, 4_096, 65_536]),
           st.booleans(),
           st.lists(st.floats(1e-9, 0.03), min_size=1, max_size=40))
    def test_split_window_equals_unbroken(self, prompts, max_tokens, pool,
                                          prefix, steps):
        stepcache.clear()
        whole = self._decoding(prompts, max_tokens, pool, prefix)
        split = self._decoding(prompts, max_tokens, pool, prefix)
        assert _kv_state(whole) == _kv_state(split)
        start = len(whole.log.events)
        advanced = whole.advance_window()
        done = 0
        while done < advanced:
            step = steps[done % len(steps)]
            got = split.advance_window(split.clock + step)
            assert got >= 1
            done += got
        assert done == advanced
        assert split.advance_window() == 0 or advanced == 0
        assert split.log.events[start:] == whole.log.events[start:]
        assert split.clock == whole.clock
        assert _kv_state(split) == _kv_state(whole)
        scalar = self._decoding(prompts, max_tokens, pool, prefix,
                                vectorize=False)
        assert run_digest(split.run()) == run_digest(whole.run()) \
            == run_digest(scalar.run())


_ROW_PLANS = (SINGLE_DEVICE, ParallelPlan(tp=2), ParallelPlan(tp=4, ep=4),
              ParallelPlan(tp=4, pp=2))
_ROW_BATCHES = (1, 7, 64)


class TestDecodeMemo:
    """Every decode duration the fast path memoizes is the one-point
    price of its shape: a block's array pass and a one-point probe agree
    bit for bit."""

    @pytest.mark.parametrize("model", _MODELS)
    def test_memo_entries_equal_step_total_one(self, model):
        stepcache.clear()
        with _engine_mode(True):
            engine = ServingEngine(_perf(model), kv_pool_tokens=32_768)
        for rid in range(5):
            engine.submit(Request(
                request_id=rid, prompt_tokens=40 + 70 * rid,
                sampling=SamplingParams(max_tokens=30 + 25 * rid),
                arrival_time=0.004 * rid))
        engine.run()
        steps = engine.perf.steps
        plans = engine.fastpath._plan_by_batch
        assert plans
        for batch, plan in plans.items():
            assert plan
            for block, row in plan.items():
                # a miss prices the whole aligned block around the context
                assert len(row) == DECODE_BLOCK
                for offset, seconds in enumerate(row):
                    context = block * DECODE_BLOCK + offset
                    if context:
                        assert type(seconds) is float
                        assert seconds == steps.step_total_one(
                            batch, batch, context)

    @pytest.mark.parametrize("model", _MODELS)
    @pytest.mark.parametrize("batch", [1, 7, 64])
    def test_array_pass_equals_one_point_probe(self, model, batch):
        steps = _perf(model).steps
        contexts = list(range(1, 64)) + list(range(4_032, 4_096))
        totals = steps.decode_totals(batch, contexts)
        for context, seconds in zip(contexts, totals):
            assert type(seconds) is float
            assert seconds == steps.step_total_one(batch, batch, context)

    @pytest.mark.parametrize("model", ("OLMoE-1B-7B", "DeepSeek-V2-Lite"))
    @pytest.mark.parametrize("plan", _ROW_PLANS, ids=str)
    @pytest.mark.parametrize("memo", ("cold", "warm", "disabled"))
    def test_rows_equal_breakdown_totals(self, model, plan, memo):
        """A decode row (scalar batch, one attention pass over the
        contexts) holds ``step_breakdown(...).total`` bit for bit, whether
        the token memo starts cold, starts warm from breakdowns at the
        same batch, or the step cache is off."""
        try:
            pm = InferencePerfModel(get_model(model), H100_SXM, plan=plan)
        except ValueError:
            pytest.skip("plan invalid for this model")
        steps = pm.steps
        blocks = (0, 1, 63)
        enabled = stepcache.GLOBAL.enabled
        try:
            stepcache.configure(enabled=False)
            want = {
                (batch, block): [
                    steps.step_breakdown(batch, batch, ctx, "decode").total
                    .hex() if ctx else None
                    for ctx in range(block * DECODE_BLOCK,
                                     (block + 1) * DECODE_BLOCK)]
                for batch in _ROW_BATCHES for block in blocks}
            stepcache.configure(enabled=memo != "disabled")
            stepcache.clear()
            if memo == "warm":
                for batch in _ROW_BATCHES:
                    steps.decode_step_time(batch, 5_000)
                assert stepcache.GLOBAL.token_terms
            fastpath = EngineFastPath(ServingEngine(pm))
            for (batch, block), hexes in want.items():
                row = fastpath._price_block({}, batch, block)
                assert [x.hex() if ctx else None
                        for ctx, x in enumerate(row, block * DECODE_BLOCK)
                        ] == hexes
                assert all(type(x) is float for x in row)
            if memo == "disabled":
                assert not stepcache.GLOBAL.token_terms
        finally:
            stepcache.configure(enabled=enabled)
            stepcache.clear()
