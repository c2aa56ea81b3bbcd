"""Discrete-event serving engine (the vLLM substitute).

Drives the continuous-batching scheduler and paged KV cache through
simulated time, with iteration costs supplied by the analytical performance
model.  One engine iteration is either a prefill batch or a decode step
over all running sequences; its duration advances the simulation clock and
every request records its own TTFT / E2E timestamps.

This is the substrate behind the paper's serving-level measurements: the
same model/hardware deployment measured through the engine (with admission
queueing, KV pressure and preemption) rather than the closed-form phase
model.  An ablation bench compares the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.metrics import GenerationShape, InferenceMetrics

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.injector import FaultInjector
    from repro.obs.instrument import Instrumentation
from repro.perfmodel.inference import InferencePerfModel
from repro.serving.events import Event, EventLog, EventType
from repro.serving.fastpath import EngineFastPath, engine_fastpath_enabled
from repro.serving.kv_cache import DEFAULT_BLOCK_SIZE, PagedKVCache
from repro.serving.request import Request, RequestState, SamplingParams
from repro.serving.scheduler import ScheduledBatch, Scheduler, SchedulerConfig

__all__ = ["ServingResult", "ServingEngine", "serve_static_batch"]


@dataclass
class ServingResult:
    """Outcome of one engine run."""

    requests: list[Request]
    makespan: float
    log: EventLog
    kv_hit_rate: float = 0.0
    """Prefix-cache hit rate (0 when prefix caching is disabled)."""

    # latency-value lists are immutable once the engine has drained, so
    # the percentile accessors memoize them (p50+p99+mean would otherwise
    # each rescan ``requests``); nothing ever invalidates these
    _ttft_cache: list[float] | None = field(default=None, init=False, repr=False)
    _e2e_cache: list[float] | None = field(default=None, init=False, repr=False)
    _itl_cache: list[float] | None = field(default=None, init=False, repr=False)
    _agg_cache: tuple[int, int, int, int, int, int] | None = field(
        default=None, init=False, repr=False)
    _by_id_cache: dict[int, Request] | None = field(
        default=None, init=False, repr=False)

    def _aggregates(self) -> tuple[int, int, int, int, int, int]:
        """One pass over ``requests`` for every whole-run integer sum:
        ``(finished, failed, fault_retries, preemptions, prompt+generated
        tokens, generated tokens)``.  The aggregate properties each used
        to rescan the full list per access — analysis code reads several
        of them per run, so a single memoized scan replaces O(properties
        × requests) work.  Integer sums are order-independent, so the
        values are exactly what the per-property scans produced."""
        if self._agg_cache is None:
            finished = failed = retries = preemptions = 0
            total_tokens = generated = 0
            for r in self.requests:
                if r.is_finished:
                    finished += 1
                if r.is_failed:
                    failed += 1
                retries += r.fault_retries
                preemptions += r.num_preemptions
                total_tokens += r.prompt_tokens + r.generated_tokens
                generated += r.generated_tokens
            self._agg_cache = (finished, failed, retries, preemptions,
                               total_tokens, generated)
        return self._agg_cache

    @property
    def num_requests(self) -> int:
        return len(self.requests)

    @property
    def num_failed(self) -> int:
        """Requests that ended in terminal failure (fault injection)."""
        return self._aggregates()[1]

    @property
    def num_fault_retries(self) -> int:
        """Total fault-kill resubmissions across all requests."""
        return self._aggregates()[2]

    @property
    def availability(self) -> float:
        """Fraction of submitted requests served to completion — the
        serving-level availability under fault injection (1.0 on any
        healthy run)."""
        if not self.requests:
            return 1.0
        return self._aggregates()[0] / len(self.requests)

    @property
    def total_tokens(self) -> int:
        """Prompt + generated tokens over all requests (Eq. 2 numerator)."""
        return self._aggregates()[4]

    @property
    def throughput_tok_s(self) -> float:
        if self.makespan <= 0:
            return 0.0
        return self.total_tokens / self.makespan

    @property
    def generation_throughput_tok_s(self) -> float:
        if self.makespan <= 0:
            return 0.0
        return self._aggregates()[5] / self.makespan

    def _ttft_values(self) -> list[float]:
        if self._ttft_cache is None:
            vals = [r.ttft for r in self.requests if r.ttft is not None]
            if not vals:
                raise ValueError("no request produced a first token")
            self._ttft_cache = vals
        return self._ttft_cache

    def _e2e_values(self) -> list[float]:
        if self._e2e_cache is None:
            vals = [r.e2e_latency for r in self.requests if r.e2e_latency is not None]
            if not vals:
                raise ValueError("no request finished")
            self._e2e_cache = vals
        return self._e2e_cache

    def mean_ttft(self) -> float:
        return float(np.mean(self._ttft_values()))

    def mean_e2e(self) -> float:
        return float(np.mean(self._e2e_values()))

    def p50_ttft(self) -> float:
        return float(np.percentile(self._ttft_values(), 50))

    def p99_ttft(self) -> float:
        return float(np.percentile(self._ttft_values(), 99))

    def p99_e2e(self) -> float:
        return float(np.percentile(self._e2e_values(), 99))

    @staticmethod
    def _mean_itl(r: Request) -> float | None:
        """Per-request mean inter-token latency, or None when undefined
        (unfinished, no first token, or a single-token generation)."""
        if r.ttft is None or r.e2e_latency is None or r.generated_tokens <= 1:
            return None
        return (r.e2e_latency - r.ttft) / (r.generated_tokens - 1)

    def _itl_values(self) -> list[float]:
        if self._itl_cache is None:
            vals = [itl for r in self.requests
                    if (itl := self._mean_itl(r)) is not None]
            if not vals:
                raise ValueError(
                    "no request generated a second token (ITL undefined)"
                )
            self._itl_cache = vals
        return self._itl_cache

    @property
    def p50_itl(self) -> float:
        """Median of the per-request mean inter-token latencies."""
        return float(np.percentile(self._itl_values(), 50))

    @property
    def p99_itl(self) -> float:
        """p99 of the per-request mean inter-token latencies."""
        return float(np.percentile(self._itl_values(), 99))

    @property
    def num_preemptions(self) -> int:
        return self._aggregates()[3]

    def request(self, request_id: int) -> Request:
        """The request with ``request_id`` (lazily indexed: the first
        lookup builds an id → request dict, replacing the per-call linear
        scan; duplicate ids keep first-match semantics)."""
        if self._by_id_cache is None:
            index: dict[int, Request] = {}
            for r in self.requests:
                index.setdefault(r.request_id, r)
            self._by_id_cache = index
        try:
            return self._by_id_cache[request_id]
        except KeyError:
            raise KeyError(f"no request with id {request_id}") from None

    def token_times(self, request_id: int) -> list[float]:
        """Timestamps at which ``request_id`` received each output token
        (first token at prefill completion, then one per decode event) —
        the per-request ITL time-series."""
        times: list[float] = []
        for e in self.log.events:
            if request_id not in e.request_ids:
                continue
            if e.type is EventType.PREFILL:
                req = self.request(request_id)
                if req.first_token_time is not None and \
                        abs(req.first_token_time - e.time) < 1e-12:
                    times.append(e.time)
            elif e.type is EventType.DECODE:
                times.append(e.time)
        return times

    def slo_attainment(self, ttft_slo_s: float,
                       itl_slo_s: float | None = None) -> float:
        """Fraction of finished requests meeting the latency SLOs.

        A request attains when its TTFT is within ``ttft_slo_s`` and (when
        given) its *average* inter-token latency is within ``itl_slo_s`` —
        the standard goodput definition for LLM serving.
        """
        if ttft_slo_s <= 0:
            raise ValueError("ttft_slo_s must be positive")
        if itl_slo_s is not None and itl_slo_s <= 0:
            raise ValueError("itl_slo_s must be positive")
        finished = [r for r in self.requests if r.is_finished]
        if not finished:
            return 0.0
        ok = 0
        for r in finished:
            if r.ttft is None or r.ttft > ttft_slo_s:
                continue
            if itl_slo_s is not None:
                itl = self._mean_itl(r)
                if itl is not None and itl > itl_slo_s:
                    continue
            ok += 1
        return ok / len(finished)

    def goodput_tok_s(self, ttft_slo_s: float,
                      itl_slo_s: float | None = None) -> float:
        """Generated tokens/s counting only SLO-attaining requests."""
        if self.makespan <= 0:
            return 0.0
        total = 0
        for r in self.requests:
            if not r.is_finished or r.ttft is None or r.ttft > ttft_slo_s:
                continue
            if itl_slo_s is not None:
                itl = self._mean_itl(r)
                if itl is not None and itl > itl_slo_s:
                    continue
            total += r.generated_tokens
        return total / self.makespan


class ServingEngine:
    """Continuous-batching engine over a simulated deployment."""

    def __init__(
        self,
        perf_model: InferencePerfModel,
        scheduler_config: SchedulerConfig | None = None,
        block_size: int = DEFAULT_BLOCK_SIZE,
        kv_pool_tokens: int | None = None,
        enable_prefix_caching: bool = False,
        instrumentation: "Instrumentation | None" = None,
        fault_injector: "FaultInjector | None" = None,
    ) -> None:
        self.perf = perf_model
        if kv_pool_tokens is None:
            kv_pool_tokens = perf_model.memory.max_context_tokens()
        if kv_pool_tokens < block_size:
            raise ValueError(
                f"{perf_model.model.name}: KV pool of {kv_pool_tokens} tokens "
                "is smaller than one block — the model's weights do not leave "
                "room for a cache on this deployment (OOM)"
            )
        if enable_prefix_caching:
            from repro.serving.prefix_cache import PrefixCachingKVCache

            self.kv: PagedKVCache = PrefixCachingKVCache(
                kv_pool_tokens // block_size, block_size
            )
        else:
            self.kv = PagedKVCache(kv_pool_tokens // block_size, block_size)
        self.obs = instrumentation
        self.kv.obs = instrumentation
        self.scheduler = Scheduler(scheduler_config or SchedulerConfig(), self.kv,
                                   instrumentation=instrumentation)
        self.clock = 0.0
        self.log = EventLog()
        self._pending: list[Request] = []  # future arrivals, sorted
        self._all: list[Request] = []
        self.faults = fault_injector
        """Optional fault injector; ``None`` (or an unarmed schedule)
        leaves the engine's behaviour bit-identical to the default."""
        stats = perf_model.steps.cache_stats()
        self._stepcache_at_start = (stats.hits, stats.misses)
        """Step-cache counter snapshot; ``run()`` reports the run's own
        hit/miss delta through the metrics registry."""
        self.fastpath = EngineFastPath(self) if engine_fastpath_enabled() \
            else None
        """Batched decode-window advance (phase-2 fast path), or ``None``
        under ``REPRO_NO_VECTORIZE_ENGINE``.  Bit-identical to repeated
        ``step()`` calls by construction; it additionally falls back
        per-window whenever instrumentation carries a hook without a
        window contract (enabled spans, request timelines, routing,
        cluster telemetry, an alert rule that could fire), a fault
        schedule is armed, or the next iteration is not a quiet decode
        step (see :mod:`repro.serving.fastpath`)."""

    def _active_obs(self) -> "Instrumentation | None":
        obs = self.obs
        return obs if obs is not None and obs.active else None

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #

    def submit(self, request: Request) -> None:
        """Queue a request (rejects shapes that can never fit the pool)."""
        capacity = self.kv.num_blocks * self.kv.block_size
        if request.total_length_budget > capacity:
            raise ValueError(
                f"request {request.request_id} needs {request.total_length_budget} "
                f"KV slots but the pool holds {capacity}"
            )
        self._all.append(request)
        self._pending.append(request)
        self._pending.sort(key=lambda r: r.effective_arrival_time)
        obs = self._active_obs()
        if obs is not None:
            obs.metrics.counter(
                "requests_submitted_total", "requests submitted to the engine"
            ).inc()

    def requeue(self, request: Request) -> None:
        """Resubmit a fault-killed request for a later retry: it re-enters
        admission at ``request.effective_arrival_time`` (the backoff
        deadline), while latency metrics stay anchored to the original
        arrival."""
        self._pending.append(request)
        self._pending.sort(key=lambda r: r.effective_arrival_time)

    def in_flight(self) -> list[Request]:
        """Admitted, non-terminal requests (running first, then waiting) —
        the population a fault can kill.  Requests still in ``_pending``
        are client-side and unaffected by cluster faults."""
        return list(self.scheduler.running) + list(self.scheduler.waiting)

    # ------------------------------------------------------------------ #
    # simulation loop
    # ------------------------------------------------------------------ #

    def _admit_arrivals(self) -> None:
        obs = self._active_obs()
        while self._pending and \
                self._pending[0].effective_arrival_time <= self.clock + 1e-12:
            req = self._pending.pop(0)
            self.log.record(Event(self.clock, EventType.ARRIVAL, (req.request_id,)))
            if obs is not None:
                obs.tracer.instant("arrival", self.clock, cat="engine",
                                   request_id=req.request_id)
                if obs.reqtrace is not None:
                    obs.reqtrace.on_admit(req, self.clock)
            self.scheduler.add_request(req)

    def _iteration_cost(
        self, batch: ScheduledBatch, want_components: bool = False
    ) -> tuple[float, dict[str, float] | None,
               tuple[float, float, float, float | None]]:
        """Duration of one iteration, optionally with its per-component
        decomposition (profiler spans), plus the perf-model step shape
        ``(num_tokens, batch, kv_len, attended_len)`` so cluster telemetry
        can re-derive link bytes and sparse/dense costs from the exact
        step that advanced the clock.  ``step()`` asks for components only
        when something reads them — an enabled span tracer, cluster
        telemetry, or a fault injector that ``needs_components`` — so any
        other observed step prices through :meth:`_step_total` exactly as
        an unobserved one does.  A breakdown's total and the step totals
        are the same bits, so enabling components cannot perturb
        simulated results."""
        reqs = batch.requests
        if batch.phase == "prefill":
            # exact np.mean replay: the pairwise float64 sum of integer
            # token counts is the exact integer sum (< 2**53), and the
            # division is the same correctly-rounded float64 op
            mean_ctx = sum(r.kv_tokens + self.scheduler._prefill_tokens_for(r)
                           for r in reqs) / len(reqs)
            shape = (float(batch.num_tokens), float(batch.batch_size),
                     mean_ctx, (mean_ctx + 1) / 2.0)
            if not want_components:
                t = self._step_total(batch.num_tokens, batch.batch_size,
                                     mean_ctx, "prefill", (mean_ctx + 1) / 2.0)
                images = sum(r.num_images for r in reqs)
                if images:
                    t += self.perf.steps.vision_encode_time(images)
                return t, None, shape
            bd = self.perf.steps.step_breakdown(
                num_tokens=batch.num_tokens,
                batch=batch.batch_size,
                kv_len=mean_ctx,
                phase="prefill",
                attended_len=(mean_ctx + 1) / 2.0,
            )
            t = bd.total
            vision = 0.0
            images = sum(r.num_images for r in reqs)
            if images:
                vision = self.perf.steps.vision_encode_time(images)
                t += vision
            return t, self._components_of(bd, vision), shape
        mean_ctx = sum(r.kv_tokens for r in reqs) / len(reqs)
        ctx = max(1, int(mean_ctx))
        shape = (float(batch.batch_size), float(batch.batch_size),
                 float(ctx), None)
        if not want_components:
            return (self._step_total(batch.batch_size, batch.batch_size,
                                     ctx, "decode"), None, shape)
        # decode_step_time is step_breakdown().total — same floats, but the
        # breakdown is kept so the profiler can attribute the step
        bd = self.perf.steps.step_breakdown(
            num_tokens=batch.batch_size, batch=batch.batch_size,
            kv_len=ctx, phase="decode",
        )
        return bd.total, self._components_of(bd, 0.0), shape

    def _step_total(self, num_tokens: int, batch: int, kv_len: float,
                    phase: str, attended_len: float | None = None) -> float:
        """One iteration's total seconds without the component breakdown:
        the fast path's memoized step totals when it is attached, else the
        perf-model call through the step cache (same bits either way)."""
        if self.fastpath is not None:
            return self.fastpath.step_total(num_tokens, batch, kv_len, phase,
                                            attended_len)
        if phase == "decode":
            return self.perf.steps.decode_step_time(batch, kv_len)
        return self.perf.steps.step_breakdown(
            num_tokens=num_tokens, batch=batch, kv_len=kv_len,
            phase=phase, attended_len=attended_len,
        ).total

    @staticmethod
    def _components_of(bd, vision: float) -> dict[str, float]:
        """Profiler component taxonomy from a :class:`PhaseBreakdown`:
        the router is carved out of the expert FFN, collectives map to
        ``interconnect``; zero components are dropped.

        The taxonomy of a breakdown never changes, and step-cached
        breakdowns recur across iterations, so the vision-free dict is
        built once and memoized on ``bd``.  Callers get a fresh copy each
        time because the fault injector scales components in place."""
        comps = bd.__dict__.get("_serving_components")
        if comps is None:
            router = bd.subcomponents.get("router", 0.0)
            comps = {
                "attention": bd.components.get("attention", 0.0),
                "router": router,
                "expert_ffn": bd.components.get("moe_ffn", 0.0) - router,
                "dense_ffn": bd.components.get("dense_ffn", 0.0),
                "embedding": bd.components.get("embedding", 0.0),
                "lm_head": bd.components.get("lm_head", 0.0),
                "interconnect": bd.comm,
                "pipeline": bd.pipeline,
                "overhead": bd.overhead,
            }
            comps = {k: v for k, v in comps.items() if v > 0}
            bd.__dict__["_serving_components"] = comps
        out = dict(comps)
        if vision > 0:
            out["vision_encode"] = vision
        return out

    def advance_window(self, horizon: float = math.inf) -> int:
        """Advance a run of pure decode iterations in one batched pass,
        bounded by ``horizon`` (an iteration starts only while
        ``clock < horizon``; the last one may overshoot, exactly like a
        scalar iteration).  Returns the iterations advanced; 0 means the
        next iteration needs the scalar :meth:`step` — admission, prefill,
        completion, preemption, faults, a per-iteration observability
        hook, or an alert rule that could fire.  Metrics and SLO scoring
        stay on; the window commits its metrics in one batch."""
        if self.fastpath is None:
            return 0
        return self.fastpath.decode_window(horizon)

    def step(self) -> bool:
        """Run one engine iteration; returns False when nothing remains."""
        faults = self.faults if self.faults is not None and \
            self.faults.active else None
        if faults is not None:
            faults.advance_to(self.clock, self)
        self._admit_arrivals()
        if not self.scheduler.has_unfinished:
            if not self._pending:
                return False
            self.clock = self._pending[0].effective_arrival_time
            if faults is not None:
                # apply faults/heals due before the next arrival is admitted
                faults.advance_to(self.clock, self)
            self._admit_arrivals()

        obs = self._active_obs()
        # spans only when tracing: a lean handle builds no span arguments
        tracer = obs.tracer if obs is not None and obs.tracer.enabled \
            else None
        if obs is not None:
            obs.now = self.clock
        if tracer is not None:
            tracer.begin("engine.step", self.clock, cat="engine",
                         iteration=self.log.num_iterations)
            tracer.begin("scheduler.schedule", self.clock, cat="scheduler")
        batch = self.scheduler.schedule()
        if tracer is not None:
            tracer.end(self.clock, phase=batch.phase,
                       batch_size=batch.batch_size,
                       num_tokens=batch.num_tokens,
                       preempted=len(batch.preempted))
        if batch.is_empty:
            if batch.preempted:
                self.log.record(Event(
                    self.clock, EventType.PREEMPTION,
                    tuple(r.request_id for r in batch.preempted),
                ))
                if tracer is not None:
                    tracer.end(self.clock, outcome="all_preempted")
                return True
            if self._pending:
                self.clock = self._pending[0].effective_arrival_time
                if tracer is not None:
                    tracer.end(self.clock, outcome="idle_until_arrival")
                return True
            if faults is not None and self._resolve_starvation(faults, obs):
                return True
            raise RuntimeError("scheduler starved with no pending arrivals")

        if tracer is not None:
            tracer.begin("perfmodel.iteration_cost", self.clock,
                         cat="perfmodel")
        duration_s, components, step_shape = self._iteration_cost(
            batch,
            want_components=(obs is not None and obs.needs_components)
            or (faults is not None and faults.needs_components),
        )
        if faults is not None:
            # price degraded links / lost devices / reduced top-k through
            # the component breakdown (no-op while the cluster is healthy)
            duration_s = faults.adjust(duration_s, components)
        t_start = self.clock
        if tracer is not None:
            tracer.end(self.clock, phase=batch.phase, seconds=duration_s)
        self.clock += duration_s
        if obs is not None:
            obs.now = self.clock
        if tracer is not None:
            tracer.begin(f"engine.{batch.phase}", t_start, cat=batch.phase,
                         batch_size=batch.batch_size,
                         num_tokens=batch.num_tokens,
                         kv_utilization=round(self.kv.utilization, 4))
            if components:
                self._emit_component_spans(obs, batch.phase, components,
                                           t_start)

        if batch.preempted:
            self.log.record(Event(
                self.clock, EventType.PREEMPTION,
                tuple(r.request_id for r in batch.preempted),
            ))

        if batch.phase == "prefill":
            for req in batch.requests:
                if req.first_scheduled_time is None:
                    req.first_scheduled_time = self.clock - duration_s
                if obs is not None and obs.reqtrace is not None:
                    obs.reqtrace.on_prefill(
                        req, self.clock - duration_s, self.clock,
                        tokens=self.scheduler._prefill_tokens_for(req))
            self.scheduler.on_prefill_done(batch)
            for req in batch.requests:
                if not req.is_prefill_pending and req.first_token_time is None:
                    # the prefill iteration samples the first output token
                    req.generated_tokens = 1
                    req.first_token_time = self.clock
                    if obs is not None:
                        trace_id = None
                        if obs.reqtrace is not None:
                            trace_id = obs.reqtrace.on_first_token(
                                req, self.clock)
                        obs.metrics.histogram(
                            "ttft_seconds", "time to first token"
                        ).observe(req.ttft, trace_id=trace_id)
            self.log.record(Event(
                self.clock, EventType.PREFILL,
                tuple(r.request_id for r in batch.requests),
                num_tokens=batch.num_tokens, duration_s=duration_s,
                kv_utilization=self.kv.utilization,
            ))
            self._finish_completed(batch.requests)
        else:
            finished: list[Request] = []
            for req in batch.requests:
                req.generated_tokens += 1
                req.kv_tokens += 1
                if obs is not None and obs.reqtrace is not None:
                    obs.reqtrace.on_decode(req, t_start, self.clock,
                                           batch_size=batch.batch_size)
                if self._is_done(req):
                    finished.append(req)
            self.log.record(Event(
                self.clock, EventType.DECODE,
                tuple(r.request_id for r in batch.requests),
                num_tokens=batch.num_tokens, duration_s=duration_s,
                kv_utilization=self.kv.utilization,
            ))
            self._complete(finished)
        if obs is not None:
            self._observe_iteration(obs, batch, duration_s, components,
                                    step_shape)
        return True

    def _resolve_starvation(self, faults: "FaultInjector",
                            obs: "Instrumentation | None") -> bool:
        """Starved under an armed fault schedule: idle-advance to the next
        fault/heal that may unblock the pool, or fail the requests that can
        never fit.  Returns True when the run can make progress again
        (including by draining doomed work), False for a genuine livelock.
        """
        next_time = faults.next_event_time(self.clock)
        if next_time is not None:
            # a future heal may release the reservation blocking admission
            self.clock = next_time
            if obs is not None:
                obs.tracer.end(self.clock, outcome="idle_until_fault_event")
            return True
        doomed = self.scheduler.never_schedulable()
        if doomed:
            for req in doomed:
                self.scheduler.evict(req)
                req.fail(
                    "insufficient KV capacity: the fault reservation leaves "
                    f"room for {self.kv.available_blocks} blocks but the "
                    f"request needs {self.kv.blocks_needed(req.prefill_target)}"
                )
                if obs is not None:
                    if obs.reqtrace is not None:
                        obs.reqtrace.on_fail(req, self.clock,
                                             reason="never_schedulable")
                    if obs.slo is not None:
                        obs.slo.on_request_terminal(req, self.clock)
            self.log.record(Event(
                self.clock, EventType.FAIL,
                tuple(r.request_id for r in doomed),
                detail="never schedulable under permanent KV reservation",
            ))
            if obs is not None:
                obs.tracer.end(self.clock, outcome="failed_unschedulable")
            return True
        return False

    def _emit_component_spans(self, obs: "Instrumentation", phase: str,
                              components: dict[str, float],
                              t_start: float) -> None:
        """Tile this iteration's per-component times onto the dedicated
        ``components`` track as nested simulated-time spans.

        Components are laid out sequentially from ``t_start``; the last
        span is clamped to the iteration end, so the track tiles the
        engine's busy time exactly and folded-stack totals sum to the
        simulated time (up to float accumulation)."""
        tracer = obs.tracer
        tracer.begin(phase, t_start, track="components", cat="component")
        t = t_start
        last = len(components) - 1
        for i, (name, secs) in enumerate(components.items()):
            tracer.begin(name, t, track="components", cat="component")
            t = self.clock if i == last else min(t + secs, self.clock)
            tracer.end(t, track="components", seconds=secs)
        tracer.end(self.clock, track="components")

    def _observe_iteration(
        self, obs: "Instrumentation", batch: ScheduledBatch,
        duration_s: float, components: dict[str, float] | None = None,
        step_shape: tuple[float, float, float, float | None] | None = None,
    ) -> None:
        """Close the phase/step spans and update per-iteration metrics."""
        tracer = obs.tracer
        if tracer.enabled:
            tracer.end(self.clock)  # engine.<phase>
            tracer.end(self.clock)  # engine.step
            tracer.counter("kv_utilization", self.clock,
                           {"utilization": self.kv.utilization})
            tracer.counter("scheduler_queues", self.clock,
                           {"running": self.scheduler.num_running,
                            "waiting": len(self.scheduler.waiting)})
        obs.record_iterations(phase=batch.phase, num_tokens=batch.num_tokens,
                              durations=(duration_s,))
        if obs.routing is not None:
            obs.routing.on_tokens(batch.num_tokens)
        if obs.cluster is not None and step_shape is not None:
            # after the routing probe, so heat windows closing at this
            # iteration's end include its routed tokens
            num_tokens, batch_size, kv_len, attended_len = step_shape
            obs.cluster.on_iteration(
                self.clock - duration_s, self.clock, components or {},
                phase=batch.phase, num_tokens=num_tokens, batch=batch_size,
                kv_len=kv_len, attended_len=attended_len)
        if obs.alerts is not None:
            obs.alerts.on_iteration(self)

    def _is_done(self, req: Request) -> bool:
        return req.generated_tokens >= req.sampling.max_tokens

    def _finish_completed(self, reqs: list[Request]) -> None:
        """Handle max_tokens==1 requests that finish at prefill.

        The freshly sampled first token's KV slot is only appended on the
        next decode step, so ``is_prefill_pending`` is momentarily true
        here — completion is judged on the sampled-token count instead.
        """
        done = [r for r in reqs if r.first_token_time is not None
                and r.state is RequestState.RUNNING and self._is_done(r)]
        self._complete(done)

    def _complete(self, finished: list[Request]) -> None:
        if not finished:
            return
        self.scheduler.on_decode_done(
            ScheduledBatch(phase="decode", requests=finished, num_tokens=0), finished
        )
        obs = self._active_obs()
        for req in finished:
            req.finish_time = self.clock
            self.log.record(Event(self.clock, EventType.FINISH, (req.request_id,)))
            if obs is None:
                continue
            obs.tracer.instant("finish", self.clock, cat="engine",
                               request_id=req.request_id)
            trace_id = None
            if obs.reqtrace is not None:
                trace_id = obs.reqtrace.on_finish(req, self.clock)
            if obs.slo is not None:
                obs.slo.on_request_terminal(req, self.clock)
            obs.metrics.counter(
                "requests_finished_total", "requests served to completion"
            ).inc()
            obs.metrics.histogram(
                "e2e_latency_seconds", "arrival-to-finish latency"
            ).observe(req.e2e_latency, trace_id=trace_id)
            itl = ServingResult._mean_itl(req)
            if itl is not None:
                obs.metrics.histogram(
                    "itl_seconds", "mean inter-token latency per request"
                ).observe(itl, trace_id=trace_id)

    def run(self, max_iterations: int = 10_000_000) -> ServingResult:
        """Run until every submitted request is terminal (finished, or —
        under fault injection — failed with a recorded reason)."""
        iterations = 0
        while True:
            advanced = self.advance_window()
            if advanced:
                iterations += advanced
            elif self.step():
                iterations += 1
            else:
                break
            if iterations > max_iterations:
                raise RuntimeError(f"engine exceeded {max_iterations} iterations")
        stats = getattr(self.kv, "stats", None)
        result = ServingResult(
            requests=list(self._all), makespan=self.clock, log=self.log,
            kv_hit_rate=stats.hit_rate if stats is not None else 0.0,
        )
        obs = self._active_obs()
        if obs is not None:
            obs.metrics.gauge(
                "engine_makespan_seconds", "simulated time to drain the run"
            ).set(result.makespan)
            obs.metrics.gauge(
                "engine_throughput_tok_s", "prompt+generated tokens per second"
            ).set(result.throughput_tok_s)
            stats = self.perf.steps.cache_stats()
            h0, m0 = self._stepcache_at_start
            obs.metrics.gauge(
                "stepcache_hits_total", "step-cache hits since engine construction"
            ).set(stats.hits - h0)
            obs.metrics.gauge(
                "stepcache_misses_total", "step-cache misses since engine construction"
            ).set(stats.misses - m0)
            if obs.cluster is not None:
                # before alerts, so end-of-run rules see final gauges
                obs.cluster.on_run_end(result.makespan, obs.metrics)
            if obs.alerts is not None:
                obs.alerts.on_run_end(self, result)
        return result


def serve_static_batch(
    perf_model: InferencePerfModel,
    batch: int,
    input_tokens: int,
    output_tokens: int,
    scheduler_config: SchedulerConfig | None = None,
) -> tuple[InferenceMetrics, ServingResult]:
    """Serve a fixed batch through the engine and report paper metrics.

    The engine-measured counterpart of
    :meth:`repro.perfmodel.InferencePerfModel.generate` — same shape,
    measured through admission/scheduling instead of closed form.
    """
    engine = ServingEngine(perf_model, scheduler_config=scheduler_config)
    for i in range(batch):
        engine.submit(Request(
            request_id=i,
            prompt_tokens=input_tokens,
            sampling=SamplingParams(max_tokens=output_tokens),
        ))
    result = engine.run()
    shape = GenerationShape(batch, input_tokens, output_tokens)
    metrics = InferenceMetrics(
        shape=shape, ttft_s=result.mean_ttft(), e2e_latency_s=result.makespan
    )
    return metrics, result
