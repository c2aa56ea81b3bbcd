"""The single optional handle instrumented components share.

Every instrumented call site in the serving/perf-model stack takes an
optional :class:`Instrumentation` (default ``None``) and guards its hooks
with ``if obs is not None and obs.active`` — so the default path costs one
comparison and produces byte-identical results to uninstrumented code.

``Instrumentation.on()`` builds a live tracer + metrics registry (and,
given a MoE model, an expert-routing probe); ``Instrumentation.off()``
builds an inert one whose hooks are skipped entirely, used by the overhead
benchmark to price the disabled path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.obs.metrics import MetricsRegistry
from repro.obs.reqtrace import RequestTracer
from repro.obs.routing import EngineRoutingProbe
from repro.obs.trace import SpanTracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.alerts import AlertMonitor
    from repro.obs.cluster import ClusterTelemetry
    from repro.obs.slo import SloTracker

__all__ = ["Instrumentation"]


@dataclass
class Instrumentation:
    """Tracer + metrics registry + optional routing probe, as one handle."""

    tracer: SpanTracer = field(default_factory=SpanTracer)
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    routing: EngineRoutingProbe | None = None
    alerts: "AlertMonitor | None" = None
    """Optional alert rules engine (see :mod:`repro.obs.alerts`): evaluated
    once per engine iteration and at run end; dumps a flight-recorder
    bundle when a rule trips."""
    reqtrace: RequestTracer | None = None
    """Optional request-scoped tracer (see :mod:`repro.obs.reqtrace`):
    records one causal lifecycle timeline per request on the simulated
    clock."""
    slo: "SloTracker | None" = None
    """Optional SLO error-budget tracker (see :mod:`repro.obs.slo`):
    scores every terminal request against declared objectives so
    burn-rate alert rules can page."""
    cluster: "ClusterTelemetry | None" = None
    """Optional device-and-link telemetry (see :mod:`repro.obs.cluster`):
    per-device occupancy lanes, per-link interconnect accounting, expert
    heat windows, and MoE-CAP Sparse-MBU/MFU gauges.  Attach after
    construction — it needs the deployment's perf model:
    ``obs.cluster = ClusterTelemetry(perf, routing=obs.routing)``."""
    active: bool = True
    """Master switch: instrumented call sites skip every hook when False."""

    now: float = 0.0
    """Mirror of the owning engine's simulated clock, updated each
    iteration so clock-less components (scheduler, KV cache) can stamp
    spans at the current simulated time."""

    @property
    def windowable(self) -> bool:
        """Whether the engine may advance decode windows under this handle.

        A window writes no per-iteration spans, request timelines, routing
        samples or device lanes, so an enabled span tracer, a request
        tracer, a routing probe or cluster telemetry keeps the scalar
        path.  Metrics take a window as one :meth:`record_iterations`
        commit, SLO scoring has nothing to record (no request arrives,
        completes or is preempted inside a window), and alert rules bound
        the window through ``AlertRule.quiet_iterations``."""
        return not (self.tracer.enabled or self.reqtrace is not None
                    or self.routing is not None or self.cluster is not None)

    @property
    def needs_components(self) -> bool:
        """Whether a hook reads an iteration's per-component breakdown:
        an enabled span tracer (component spans) or cluster telemetry
        (device lanes).  Otherwise the engine prices observed steps
        through the same totals as unobserved ones (same bits, no
        breakdown built)."""
        return self.tracer.enabled or self.cluster is not None

    _handles: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)
    """Metric handles :meth:`record_iterations` writes, keyed by KV op or
    phase (``metrics`` is never rebound once recorded into)."""

    def record_iterations(self, *, kv_op: str | None = None,
                          kv_ops: int = 1, kv_blocks: int = 0,
                          kv_utilization: float = 0.0,
                          phase: str | None = None, num_tokens: int = 0,
                          durations: Sequence[float] = ()) -> None:
        """Engine metrics for a run of iterations: the one place these
        metric names are written, shared by ``PagedKVCache`` (one
        allocate, ``append_slots`` or free, or one scheduler decode pass's
        appends), the scalar engine step (one iteration) and a decode
        window (a batch commit).

        The KV part counts ``kv_ops`` operations of kind ``kv_op`` moving
        ``kv_blocks`` blocks and sets ``kv_utilization`` to its final
        value; the iteration part counts ``len(durations)`` iterations of
        ``num_tokens`` tokens each and observes every duration into
        ``step_time_seconds`` in order.  Counter increments are exact
        integer products, and the histogram sum adds the durations in
        iteration order, so a batch commit leaves the same bits as one
        call per operation.  Metrics are created in the order the scalar
        loop creates them (KV before iterations), because
        :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` is ordered by
        insertion.  Each metric is looked up once and its handle reused;
        ``kv_blocks_total`` is still created by the first call that moves
        a block."""
        metrics = self.metrics
        handles = self._handles
        if kv_op is not None:
            kv = handles.get(kv_op)
            if kv is None:
                op = {"op": kv_op}
                kv = handles[kv_op] = [
                    metrics.counter(
                        "kv_ops_total", "KV-cache block-manager operations",
                        labels=op),
                    None,
                    None,
                ]
            kv[0].inc(kv_ops)
            if kv_blocks:
                if kv[1] is None:
                    kv[1] = metrics.counter(
                        "kv_blocks_total", "blocks moved by KV operations",
                        labels={"op": kv_op})
                kv[1].inc(kv_blocks)
            if kv[2] is None:
                kv[2] = metrics.gauge(
                    "kv_utilization", "fraction of KV blocks in use")
            kv[2].set(kv_utilization)
        if phase is not None:
            step = handles.get(phase)
            if step is None:
                labels = {"phase": phase}
                step = handles[phase] = (
                    metrics.counter(
                        "engine_iterations_total", "engine iterations",
                        labels=labels),
                    metrics.counter(
                        "tokens_processed_total", "new tokens processed",
                        labels=labels),
                    metrics.histogram(
                        "step_time_seconds", "simulated iteration duration",
                        labels=labels).observe,
                )
            iterations, tokens, observe = step
            n = len(durations)
            iterations.inc(n)
            tokens.inc(num_tokens * n)
            for duration_s in durations:
                observe(duration_s)

    @classmethod
    def on(cls, model=None, routing_rng: np.random.Generator | None = None,
           alerts: "AlertMonitor | None" = None,
           reqtrace: bool = True,
           slo: "SloTracker | None" = None,
           **probe_kwargs) -> "Instrumentation":
        """Fully-enabled instrumentation.

        ``model`` (a :class:`~repro.models.config.ModelConfig` with MoE
        layers) additionally attaches an expert-routing probe; ``alerts``
        attaches an :class:`~repro.obs.alerts.AlertMonitor`; ``reqtrace``
        (default on) attaches a per-request lifecycle tracer; ``slo``
        attaches an :class:`~repro.obs.slo.SloTracker`, which also pins
        its latency thresholds onto exact histogram bucket edges.
        """
        routing = None
        if model is not None and getattr(model, "moe", None) is not None:
            routing = EngineRoutingProbe(model, rng=routing_rng, **probe_kwargs)
        obs = cls(routing=routing, alerts=alerts,
                  reqtrace=RequestTracer() if reqtrace else None, slo=slo)
        if slo is not None:
            slo.align_buckets(obs.metrics)
        return obs

    @classmethod
    def off(cls) -> "Instrumentation":
        """Inert instrumentation: hooks short-circuit, nothing is recorded."""
        return cls(tracer=SpanTracer(enabled=False), active=False)
