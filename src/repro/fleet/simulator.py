"""Deterministic multi-replica fleet simulator.

The :class:`FleetSimulator` is the front door plus control plane over N
:class:`~repro.fleet.replica.Replica` engines: it merges request
arrivals, replica kill/heal faults, and autoscaler control ticks into one
global time-ordered event stream, advances every live replica's engine to
each event time, and then lets the admission controller and router act on
deterministic replica snapshots.

Determinism contract (audited by ``repro gate``'s fleet scenarios and
the hypothesis suite): the entire run is a pure function of
``(FleetConfig, request list)`` — replica lists are iterated in id order,
simultaneous events are ordered (heal < kill < scale tick < arrival,
then submission sequence), and ties inside policies break by replica id.
Two runs with the same inputs produce byte-identical
:func:`~repro.fleet.invariants.fleet_digest` values, in-process or
across worker processes.

Observability is additive: pass an armed
:class:`~repro.obs.instrument.Instrumentation` to get fleet gauges,
counters and trace instants, but no decision ever reads it — a disabled
run is bit-identical to an observed one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.faults.schedule import FaultEvent, FaultKind, FaultSchedule
from repro.fleet.admission import AdmissionConfig, AdmissionController
from repro.fleet.autoscaler import Autoscaler, AutoscalerConfig, ScaleDecision
from repro.fleet.replica import Replica
from repro.fleet.router import Router, make_router
from repro.hardware.gpus import H100_SXM
from repro.models.zoo import get_model
from repro.obs.slo import ErrorBudget
from repro.perfmodel.inference import InferencePerfModel
from repro.serving.request import Request
from repro.serving.scheduler import SchedulerConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.instrument import Instrumentation

__all__ = ["FleetConfig", "FleetResult", "FleetSimulator"]


@dataclass(frozen=True)
class FleetConfig:
    """Everything that determines a fleet's behaviour (the replay key)."""

    model_name: str = "OLMoE-1B-7B"
    num_replicas: int = 2
    policy: str = "round_robin"
    kv_pool_tokens: int = 65_536
    max_num_seqs: int = 32
    max_num_batched_tokens: int = 8192
    enable_prefix_caching: bool = False
    router_slack: int | None = 8
    """Prefix-affinity load escape: how far beyond the least-loaded
    replica the home's queue may run before a request detours (None
    pins templates to their home unconditionally; ignored by the other
    policies)."""
    admission: AdmissionConfig = AdmissionConfig()
    autoscaler: AutoscalerConfig | None = None
    replica_kills: FaultSchedule | None = None
    """``REPLICA_LOSS``-only fault schedule (see
    :func:`repro.faults.schedule.replica_storm`); other fault kinds are
    engine-scoped and rejected here."""

    def __post_init__(self) -> None:
        if self.num_replicas < 1:
            raise ValueError("num_replicas must be >= 1")
        if self.replica_kills is not None:
            for event in self.replica_kills:
                if event.kind is not FaultKind.REPLICA_LOSS:
                    raise ValueError(
                        f"fleet kill schedules take REPLICA_LOSS events "
                        f"only, got {event.kind.value} at t={event.time}")


@dataclass
class FleetResult:
    """Outcome of one fleet run (holds the live replica records so the
    digest and invariant audit can replay every event log)."""

    policy: str
    requests: list[Request]
    shed: list[Request]
    replicas: list[Replica]
    assignments: tuple[tuple[float, int, int], ...]
    """``(time, request_id, replica_id)`` routing log, submission order."""
    kills: tuple[tuple[float, int], ...]
    heals: tuple[tuple[float, int], ...]
    scale_decisions: tuple[ScaleDecision, ...]
    makespan: float
    budgets: list[ErrorBudget]
    num_rerouted: int = 0

    _ttft_cache: list[float] | None = field(default=None, init=False,
                                            repr=False)

    @property
    def num_requests(self) -> int:
        return len(self.requests)

    @property
    def num_finished(self) -> int:
        return sum(1 for r in self.requests if r.is_finished)

    @property
    def num_shed(self) -> int:
        return len(self.shed)

    @property
    def availability(self) -> float:
        if not self.requests:
            return 1.0
        return self.num_finished / len(self.requests)

    @property
    def shed_rate(self) -> float:
        if not self.requests:
            return 0.0
        return self.num_shed / len(self.requests)

    def _ttft_values(self) -> list[float]:
        if self._ttft_cache is None:
            vals = [r.ttft for r in self.requests
                    if r.is_finished and r.ttft is not None]
            if not vals:
                raise ValueError("no fleet request produced a first token")
            self._ttft_cache = vals
        return self._ttft_cache

    def mean_ttft(self) -> float:
        return float(np.mean(self._ttft_values()))

    def p50_ttft(self) -> float:
        return float(np.percentile(self._ttft_values(), 50))

    def p99_ttft(self) -> float:
        return float(np.percentile(self._ttft_values(), 99))

    @property
    def served_tokens(self) -> int:
        return sum(r.prompt_tokens + r.generated_tokens
                   for r in self.requests if r.is_finished)

    @property
    def throughput_tok_s(self) -> float:
        if self.makespan <= 0:
            return 0.0
        return self.served_tokens / self.makespan

    @property
    def kv_lookups(self) -> int:
        return sum(getattr(r.engine.kv, "stats").lookups
                   for r in self.replicas
                   if hasattr(r.engine.kv, "stats"))

    @property
    def kv_hits(self) -> int:
        return sum(getattr(r.engine.kv, "stats").hits
                   for r in self.replicas
                   if hasattr(r.engine.kv, "stats"))

    @property
    def kv_hit_rate(self) -> float:
        lookups = self.kv_lookups
        return self.kv_hits / lookups if lookups else 0.0

    @property
    def num_kills(self) -> int:
        return sum(1 for _, rid in self.kills if rid >= 0)

    @property
    def peak_replicas(self) -> int:
        """Most replicas ever routable at once (scale-decision view plus
        the static fleet size)."""
        peak = max((d.replicas_after for d in self.scale_decisions),
                   default=0)
        static = sum(1 for r in self.replicas if r.started_at == 0.0)
        return max(peak, static)

    def budget_consumed(self, slo_name: str) -> float:
        for budget in self.budgets:
            if budget.slo == slo_name:
                return budget.budget_consumed
        raise KeyError(f"no tracked SLO named {slo_name!r}")

    def replica_summaries(self) -> list[dict]:
        """Deterministic per-replica accounting rows."""
        return [{
            "replica_id": r.replica_id,
            "state": ("draining" if r.draining and r.alive else
                      "alive" if r.alive else "dead"),
            "started_at_s": r.started_at,
            "retired_at_s": r.retired_at,
            "assigned": r.assigned,
            "finished": sum(1 for q in r.engine._all if q.is_finished),
            "busy_s": r.busy_s(),
            "clock_s": r.clock,
        } for r in self.replicas]


class FleetSimulator:
    """Route, admit, autoscale and fault a fleet of serving replicas."""

    def __init__(self, config: FleetConfig,
                 instrumentation: "Instrumentation | None" = None) -> None:
        self.config = config
        self.obs = instrumentation
        model = get_model(config.model_name)
        self.perf = InferencePerfModel(model, H100_SXM)
        self._scheduler_config = SchedulerConfig(
            max_num_seqs=config.max_num_seqs,
            max_num_batched_tokens=config.max_num_batched_tokens,
        )
        self.replicas: list[Replica] = []
        self._next_replica_id = 0
        for _ in range(config.num_replicas):
            self._spawn(0.0)
        self.router: Router = make_router(config.policy,
                                          load_slack=config.router_slack)
        self.admission = AdmissionController(config.admission)
        self.autoscaler: Autoscaler | None = (
            Autoscaler(config.autoscaler)
            if config.autoscaler is not None else None)
        self.assignments: list[tuple[float, int, int]] = []
        self.shed: list[Request] = []
        self.kills: list[tuple[float, int]] = []
        self.heals: list[tuple[float, int]] = []
        self.num_rerouted = 0
        self._by_id: dict[int, Request] = {}
        self._kill_landed: dict[int, int] = {}
        """schedule-event index → replica id actually killed (heals spawn
        replacements only for kills that landed)."""
        self._busy_snapshot: dict[int, float] = {}
        self._last_tick = 0.0
        self._next_tick = (config.autoscaler.interval_s
                           if config.autoscaler is not None else 0.0)
        self._ran = False

    # ------------------------------------------------------------------ #
    # fleet membership
    # ------------------------------------------------------------------ #

    def _spawn(self, now: float) -> Replica:
        replica = Replica(
            self._next_replica_id,
            self.perf,
            scheduler_config=self._scheduler_config,
            kv_pool_tokens=self.config.kv_pool_tokens,
            enable_prefix_caching=self.config.enable_prefix_caching,
            now=now,
        )
        self._next_replica_id += 1
        self.replicas.append(replica)
        return replica

    def _routable(self) -> list[Replica]:
        return [r for r in self.replicas if r.routable]

    def _active_obs(self) -> "Instrumentation | None":
        obs = self.obs
        return obs if obs is not None and obs.active else None

    # ------------------------------------------------------------------ #
    # the run
    # ------------------------------------------------------------------ #

    def run(self, requests: Sequence[Request]) -> FleetResult:
        """Drive the trace through the fleet and return the outcome.

        Single-shot: the simulator's routing/admission/autoscaler state
        belongs to exactly one trace.
        """
        if self._ran:
            raise RuntimeError("FleetSimulator.run is single-shot; build a "
                               "fresh simulator for each trace")
        self._ran = True
        ordered = sorted(requests,
                         key=lambda r: (r.arrival_time, r.request_id))
        ids = [r.request_id for r in ordered]
        if len(set(ids)) != len(ids):
            raise ValueError("fleet traces need unique request ids")
        self._by_id = {r.request_id: r for r in ordered}

        # one global event stream: heals before kills before arrivals at a
        # tie (a replacement landing exactly when another replica dies must
        # be routable for the re-route), stable sequence numbers last
        events: list[tuple[float, int, int, str, object]] = []
        seq = 0
        if self.config.replica_kills is not None:
            for idx, fault in enumerate(self.config.replica_kills):
                events.append((fault.time, 1, idx, "kill", fault))
                if not fault.is_permanent:
                    events.append((fault.heal_time, 0, idx, "heal", fault))
        for r in ordered:
            events.append((r.arrival_time, 2, seq, "arrival", r))
            seq += 1
        events.sort(key=lambda e: (e[0], e[1], e[2]))

        for time, _, idx, kind, payload in events:
            self._tick_through(time)
            self._advance_all(time)
            if kind == "arrival":
                self._handle_arrival(payload, time)
            elif kind == "kill":
                self._handle_kill(payload, idx, time)
            else:
                self._handle_heal(payload, idx, time)
        self._final_drain(events[-1][0] if events else 0.0)
        return self._build_result()

    # ------------------------------------------------------------------ #
    # time advancement
    # ------------------------------------------------------------------ #

    def _tick_through(self, t: float) -> None:
        """Run autoscaler control ticks due strictly before ``t``."""
        if self.autoscaler is None:
            return
        interval = self.autoscaler.config.interval_s
        guard = 0
        while self._next_tick <= t:
            self._advance_all(self._next_tick)
            self._autoscale(self._next_tick)
            self._next_tick += interval
            guard += 1
            if guard > 1_000_000:
                raise RuntimeError("autoscaler tick runaway")

    def _advance_all(self, t: float) -> None:
        for replica in self.replicas:
            replica.advance_to(t)
        self._collect_terminals()
        for replica in self.replicas:
            replica.retire_if_drained(t)

    def _collect_terminals(self) -> None:
        fresh: list[tuple[float, int]] = []
        for replica in self.replicas:
            fresh.extend(replica.new_terminals())
        fresh.sort()
        obs = self._active_obs()
        for time, rid in fresh:
            req = self._by_id[rid]
            self.admission.on_terminal(req, time)
            if obs is not None and obs.slo is not None:
                obs.slo.on_request_terminal(req, time)

    # ------------------------------------------------------------------ #
    # event handlers
    # ------------------------------------------------------------------ #

    def _handle_arrival(self, req: Request, now: float) -> None:
        routable = self._routable()
        decision = self.admission.decide(req, routable, now)
        self.admission.record(decision)
        if not decision.admit:
            self._shed(req, decision.reason, now)
            return
        replica = self.router.choose(req, routable, now)
        assert replica is not None  # decide() admits only with replicas
        self._assign(req, replica, now)

    def _shed(self, req: Request, reason: str, now: float) -> None:
        req.fail(reason)
        self.shed.append(req)
        self.admission.on_terminal(req, now)
        obs = self._active_obs()
        if obs is not None:
            obs.now = max(obs.now, now)
            obs.metrics.counter(
                "fleet_requests_shed_total",
                "requests shed by fleet admission control").inc()
            if obs.slo is not None:
                obs.slo.on_request_terminal(req, now)

    def _assign(self, req: Request, replica: Replica, now: float) -> None:
        replica.engine.submit(req)
        replica.assigned += 1
        self.assignments.append((now, req.request_id, replica.replica_id))
        obs = self._active_obs()
        if obs is not None:
            obs.now = max(obs.now, now)
            obs.metrics.counter(
                "fleet_requests_routed_total",
                "requests routed to a replica",
                labels={"policy": self.router.name}).inc()

    def _handle_kill(self, fault: FaultEvent, idx: int, now: float) -> None:
        pool = [r for r in self.replicas if r.alive]
        if not pool:
            self.kills.append((now, -1))
            return
        victim = pool[fault.target % len(pool)]
        orphans = victim.kill(now)
        self.kills.append((now, victim.replica_id))
        self._kill_landed[idx] = victim.replica_id
        obs = self._active_obs()
        if obs is not None:
            obs.now = max(obs.now, now)
            obs.tracer.instant("fleet.replica_loss", now, cat="fleet",
                               replica_id=victim.replica_id,
                               orphans=len(orphans))
            obs.metrics.counter(
                "fleet_replica_kills_total",
                "replicas lost to REPLICA_LOSS faults").inc()
            obs.metrics.gauge(
                "fleet_routable_replicas_count",
                "replicas accepting traffic").set(len(self._routable()))
        for req in orphans:
            routable = self._routable()
            target = self.router.choose(req, routable, now)
            if target is None:
                self._shed(req, f"replica {victim.replica_id} lost and no "
                                "live replica remains to re-route", now)
                continue
            self._assign(req, target, now)
            self.num_rerouted += 1

    def _handle_heal(self, fault: FaultEvent, idx: int, now: float) -> None:
        if idx not in self._kill_landed:
            return  # the paired kill found no replica to kill
        replacement = self._spawn(now)
        self.heals.append((now, replacement.replica_id))
        obs = self._active_obs()
        if obs is not None:
            obs.now = max(obs.now, now)
            obs.tracer.instant("fleet.replica_heal", now, cat="fleet",
                               replica_id=replacement.replica_id)
            obs.metrics.counter(
                "fleet_replica_heals_total",
                "replacement replicas brought up after an outage").inc()
            obs.metrics.gauge(
                "fleet_routable_replicas_count",
                "replicas accepting traffic").set(len(self._routable()))

    # ------------------------------------------------------------------ #
    # autoscaling
    # ------------------------------------------------------------------ #

    def _autoscale(self, now: float) -> None:
        assert self.autoscaler is not None
        routable = self._routable()
        elapsed = now - self._last_tick
        busy = 0.0
        for replica in routable:
            busy += (replica.busy_s()
                     - self._busy_snapshot.get(replica.replica_id, 0.0))
        for replica in self.replicas:
            self._busy_snapshot[replica.replica_id] = replica.busy_s()
        occupancy = (busy / (elapsed * len(routable))
                     if routable and elapsed > 0 else 0.0)
        mean_backlog = (sum(r.backlog for r in routable) / len(routable)
                        if routable else 0.0)
        action = self.autoscaler.evaluate(now, len(routable), occupancy,
                                          mean_backlog)
        if action == "up":
            self._spawn(now)
        elif action == "down":
            # drain the least-loaded routable replica; newest on a tie, so
            # long-lived replicas keep their warm prefix caches
            victim = min(routable, key=lambda r: (r.load, -r.replica_id))
            victim.draining = True
            victim.retire_if_drained(now)
        self.autoscaler.record_applied(len(self._routable()))
        self._last_tick = now
        obs = self._active_obs()
        if obs is not None:
            obs.now = max(obs.now, now)
            obs.metrics.gauge(
                "fleet_occupancy_fraction",
                "fleet busy fraction over the last control window",
            ).set(occupancy)
            obs.metrics.gauge(
                "fleet_backlog_count",
                "queued + pending requests across routable replicas",
            ).set(sum(r.backlog for r in routable))
            obs.metrics.gauge(
                "fleet_routable_replicas_count",
                "replicas accepting traffic").set(len(self._routable()))
            if action != "hold":
                obs.tracer.instant(f"fleet.scale_{action}", now, cat="fleet",
                                   occupancy=round(occupancy, 4),
                                   mean_backlog=round(mean_backlog, 2))
                obs.metrics.counter(
                    "fleet_scale_actions_total",
                    "autoscaler scale actions",
                    labels={"action": action}).inc()

    # ------------------------------------------------------------------ #
    # drain and result
    # ------------------------------------------------------------------ #

    def _final_drain(self, last_event_time: float) -> None:
        if self.autoscaler is None:
            for replica in self.replicas:
                replica.drain()
            self._collect_terminals()
            horizon = max([last_event_time]
                          + [r.clock for r in self.replicas])
            for replica in self.replicas:
                replica.retire_if_drained(horizon)
            return
        interval = self.autoscaler.config.interval_s
        guard = 0
        while any(r.alive and r.has_work for r in self.replicas):
            self._advance_all(self._next_tick)
            self._autoscale(self._next_tick)
            self._next_tick += interval
            guard += 1
            if guard > 1_000_000:
                raise RuntimeError("fleet drain exceeded 1M control ticks")

    def _build_result(self) -> FleetResult:
        makespan = max([r.clock for r in self.replicas]
                       + [t for t, _, _ in self.assignments] + [0.0])
        result = FleetResult(
            policy=self.router.name,
            requests=sorted(self._by_id.values(),
                            key=lambda r: r.request_id),
            shed=list(self.shed),
            replicas=list(self.replicas),
            assignments=tuple(self.assignments),
            kills=tuple(self.kills),
            heals=tuple(self.heals),
            scale_decisions=tuple(self.autoscaler.decisions
                                  if self.autoscaler is not None else ()),
            makespan=makespan,
            budgets=self.admission.budgets(),
            num_rerouted=self.num_rerouted,
        )
        obs = self._active_obs()
        if obs is not None:
            obs.metrics.gauge(
                "fleet_makespan_seconds",
                "simulated time to drain the fleet").set(result.makespan)
            obs.metrics.gauge(
                "fleet_availability_ratio",
                "finished fraction of offered requests",
            ).set(result.availability)
        return result
