"""Decode-pass KV metering and the observed step's pricing route.

``Scheduler._schedule_decode`` meters its appends in bulk — one
``record_iterations`` commit per pass, flushed before every preemption's
free — instead of one KV hook per ``try_append_slot``.  The property test
here keeps the per-operation reference in the test itself: it intercepts
every append, free and preemption the scheduler makes, replays them one at
a time into a fresh registry the way a per-operation hook writes it, and
requires the metered registry (values *and* insertion order), the
``kv.*`` spans of an enabled tracer and the pool's integrity to match
after every pass.

The second half pins which observed steps build a component breakdown:
only those a hook reads it for (an enabled span tracer, cluster
telemetry, or a fault injector that ``needs_components``).
"""

from __future__ import annotations

import copy
import dataclasses

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults.harness import chaos_serving_run
from repro.faults.invariants import check_kv_integrity
from repro.hardware.gpus import H100_SXM
from repro.models.zoo import get_model
from repro.obs.cluster import ClusterTelemetry
from repro.obs.harness import (
    REFERENCE_MODEL,
    REFERENCE_PLAN,
    poisson_serving_run,
    reference_serving_run,
)
from repro.obs.instrument import Instrumentation
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import fault_storm_config
from repro.obs.trace import SpanTracer
from repro.perfmodel.inference import InferencePerfModel
from repro.perfmodel.phases import StepModel
from repro.serving.engine import ServingEngine
from repro.serving.kv_cache import PagedKVCache
from repro.serving.prefix_cache import PrefixCachingKVCache
from repro.serving.request import Request, RequestState, SamplingParams
from repro.serving.scheduler import Scheduler, SchedulerConfig
from repro.workloads.generator import FixedShapeWorkload

# --------------------------------------------------------------------- #
# per-operation reference
# --------------------------------------------------------------------- #


def _reference_registry(start: MetricsRegistry, ops) -> MetricsRegistry:
    """Replay intercepted operations one at a time onto a copy of
    ``start``, as a per-operation KV hook and ``Scheduler._preempt``
    write them."""
    reg = copy.deepcopy(start)
    for op in ops:
        if op[0] == "preempt":
            reg.counter("scheduler_preemptions_total").inc()
            continue
        kind, _, blocks, utilization = op
        labels = {"op": kind}
        reg.counter("kv_ops_total", labels=labels).inc()
        if blocks:
            reg.counter("kv_blocks_total", labels=labels).inc(blocks)
        reg.gauge("kv_utilization").set(utilization)
    return reg


def _values(reg: MetricsRegistry) -> list[tuple]:
    """Registry contents in insertion order (help strings aside)."""
    return [(m["name"], sorted(m["labels"].items()), m["value"])
            for m in reg.snapshot()["metrics"]]


def _intercept(sched: Scheduler, ops: list) -> None:
    """Record every append, free and preemption the scheduler makes, with
    the blocks each moved and the utilization it left."""
    kv = sched.kv
    append, free, preempt = kv.try_append_slot, kv.free, sched._preempt

    def try_append_slot(seq_id):
        before = kv.free_blocks
        ok = append(seq_id)
        if ok:
            ops.append(("append", seq_id, before - kv.free_blocks,
                        kv.utilization))
        return ok

    def free_seq(seq_id):
        blocks = len(kv._tables[seq_id].blocks)
        free(seq_id)
        ops.append(("free", seq_id, blocks, kv.utilization))

    def preempt_req(req):
        preempt(req)
        ops.append(("preempt",))

    kv.try_append_slot = try_append_slot
    kv.free = free_seq
    sched._preempt = preempt_req


def _kv_spans(tracer: SpanTracer) -> list[tuple]:
    return [(e["name"][3:], e["args"]["seq_id"], e["args"]["blocks"])
            for e in tracer.events
            if e["ph"] == "B" and e["name"].startswith("kv.")]


@st.composite
def _pools(draw):
    block_size = draw(st.sampled_from([1, 2, 4, 16]))
    num_blocks = draw(st.integers(2, 40))
    prompts = draw(st.lists(st.integers(1, 3 * block_size + 2),
                            min_size=1, max_size=12))
    shared = draw(st.integers(0, 2))  # leading blocks common to all
    reserve = draw(st.integers(0, 3))
    return (block_size, num_blocks, prompts, shared, reserve,
            draw(st.booleans()), draw(st.booleans()))


class TestDecodePassMetering:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_pools())
    def test_pass_commit_matches_per_operation_reference(self, pool):
        (block_size, num_blocks, prompts, shared, reserve, prefix,
         tracing) = pool
        kv = (PrefixCachingKVCache if prefix else PagedKVCache)(
            num_blocks, block_size)
        # as in the engine, the handle sees the allocations that precede
        # the first decode pass
        obs = Instrumentation(tracer=SpanTracer(enabled=tracing))
        kv.obs = obs
        sched = Scheduler(SchedulerConfig(), kv, instrumentation=obs)
        for rid, prompt in enumerate(prompts):
            full = prompt // block_size
            hashes = tuple(("shared", i) if i < shared else (rid, i)
                           for i in range(full)) if prefix else ()
            if not kv.can_allocate(prompt):
                continue
            if prefix:
                kv.allocate_with_prefix(rid, prompt, hashes)
            else:
                kv.allocate(rid, prompt)
            req = Request(request_id=rid, prompt_tokens=prompt,
                          sampling=SamplingParams(max_tokens=10_000))
            req.state = RequestState.RUNNING
            req.kv_tokens = prompt
            sched.running.append(req)
        kv.reserve(reserve)

        # every decode-side metric is first created inside a pass
        start = copy.deepcopy(obs.metrics)
        spans = len(_kv_spans(obs.tracer))
        ops: list = []
        _intercept(sched, ops)
        while sched.running:
            batch = sched._schedule_decode()
            reference = _reference_registry(start, ops)
            assert _values(obs.metrics) == _values(reference)
            if ops and ops[-1][0] != "preempt":
                assert obs.metrics.gauge("kv_utilization").value \
                    == kv.utilization
            preemptions = sum(op[0] == "preempt" for op in ops)
            if preemptions:
                assert obs.metrics.counter(
                    "scheduler_preemptions_total").value == preemptions
            if tracing:
                assert _kv_spans(obs.tracer)[spans:] == [
                    op[:3] for op in ops if op[0] != "preempt"]
            check_kv_integrity(kv)
            for req in batch.requests:
                req.kv_tokens += 1
            if len(ops) > 400:
                break


# --------------------------------------------------------------------- #
# pricing route
# --------------------------------------------------------------------- #


def _lean() -> Instrumentation:
    return Instrumentation(tracer=SpanTracer(enabled=False))


def _count_breakdowns(monkeypatch) -> list[int]:
    calls = [0]
    real = StepModel.step_breakdown

    def counted(self, *args, **kwargs):
        calls[0] += 1
        return real(self, *args, **kwargs)

    monkeypatch.setattr(StepModel, "step_breakdown", counted)
    return calls


def _spy_cost_route(monkeypatch) -> list[tuple[bool, bool, bool]]:
    """``(want_components, components built, faults need them)`` for every
    iteration priced."""
    route: list[tuple[bool, bool, bool]] = []
    real = ServingEngine._iteration_cost

    def spy(self, batch, want_components=False):
        out = real(self, batch, want_components)
        faults = self.faults
        route.append((want_components, out[1] is not None,
                      faults is not None and faults.active
                      and faults.needs_components))
        return out

    monkeypatch.setattr(ServingEngine, "_iteration_cost", spy)
    return route


class TestPricingRoute:
    def test_healthy_lean_run_builds_no_breakdown(self, monkeypatch):
        monkeypatch.delenv("REPRO_NO_VECTORIZE_ENGINE", raising=False)
        calls = _count_breakdowns(monkeypatch)
        route = _spy_cost_route(monkeypatch)
        poisson_serving_run(arrival_rate_rps=128.0, num_requests=40,
                            instrumentation=_lean())
        assert route and not any(want for want, _, _ in route)
        assert calls[0] == 0

    def test_enabled_tracer_builds_breakdowns(self, monkeypatch):
        calls = _count_breakdowns(monkeypatch)
        route = _spy_cost_route(monkeypatch)
        obs = Instrumentation()
        reference_serving_run(num_requests=4, output_tokens=8,
                              instrumentation=obs)
        assert route and all(want and built for want, built, _ in route)
        assert calls[0] > 0
        assert any(e.get("name") == "attention" for e in obs.tracer.events)

    def test_cluster_telemetry_builds_breakdowns(self, monkeypatch):
        route = _spy_cost_route(monkeypatch)
        perf = InferencePerfModel(get_model(REFERENCE_MODEL), H100_SXM,
                                  plan=REFERENCE_PLAN)
        obs = _lean()
        obs.cluster = ClusterTelemetry(perf)
        engine = ServingEngine(perf, instrumentation=obs)
        for req in FixedShapeWorkload(batch_size=4, input_tokens=64,
                                      output_tokens=8).requests():
            engine.submit(req)
        engine.run()
        assert route and all(want and built for want, built, _ in route)

    def test_faults_build_breakdowns_only_while_needed(self, monkeypatch):
        monkeypatch.delenv("REPRO_NO_VECTORIZE_ENGINE", raising=False)
        route = _spy_cost_route(monkeypatch)
        config = dataclasses.replace(fault_storm_config(), fault_rate=5.0)
        chaos_serving_run(config, instrumentation=_lean())
        assert any(needs for _, _, needs in route)
        assert any(not needs for _, _, needs in route)
        assert all(want == built == needs for want, built, needs in route)
