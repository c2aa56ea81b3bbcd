"""SLO-aware admission control: shed at the front door, not in the queue.

The controller keeps its own :class:`~repro.obs.slo.SloTracker` — this is
*simulation state*, not observability: shed/admit decisions depend on it,
so it runs on every fleet configuration and the default-off
``Instrumentation`` handle stays purely additive.  Every terminal request
(finished, failed, or shed) is scored against the declared objectives;
once the error budget of any objective is spent past
``burned_threshold``, the backlog cap tightens by
``burned_backlog_factor`` — the SRE move of trading admission for
recovery when the budget is already gone.

Sheds are terminal failures with a recorded reason (the conservation
invariant counts them), and they score as *bad* against every objective —
shedding spends availability budget, it does not hide latency misses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.fleet.replica import Replica
from repro.obs.slo import SLO, ErrorBudget, SloTracker
from repro.serving.request import Request

__all__ = ["AdmissionConfig", "AdmissionDecision", "AdmissionController"]

DEFAULT_SLO_SPECS: tuple[str, ...] = ("p99 ttft < 0.5s",
                                      "availability >= 99%")


@dataclass(frozen=True)
class AdmissionConfig:
    """Front-door admission knobs."""

    max_backlog_per_replica: int = 64
    """Hard cap: shed when total fleet backlog reaches this many requests
    per routable replica."""
    slo_specs: tuple[str, ...] = DEFAULT_SLO_SPECS
    """Objectives the controller scores (``SLO.parse`` syntax)."""
    burned_threshold: float = 1.0
    """Budget-consumed level (1.0 = budget exhausted) past which the
    backlog cap tightens."""
    burned_backlog_factor: float = 0.25
    """Cap multiplier while any objective's budget is burned."""
    min_samples: int = 20
    """Terminal requests required before budget burn can tighten the cap
    (a single early failure must not flap admission)."""

    def __post_init__(self) -> None:
        if self.max_backlog_per_replica <= 0:
            raise ValueError("max_backlog_per_replica must be positive")
        if not self.slo_specs:
            raise ValueError("admission needs at least one SLO spec")
        if self.burned_threshold <= 0:
            raise ValueError("burned_threshold must be positive")
        if not (0.0 < self.burned_backlog_factor <= 1.0):
            raise ValueError("burned_backlog_factor must be in (0, 1]")
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one front-door decision."""

    admit: bool
    reason: str


class AdmissionController:
    """Scores outcomes, tracks budgets, and decides admit-vs-shed."""

    def __init__(self, config: AdmissionConfig | None = None) -> None:
        self.config = config or AdmissionConfig()
        self.slos: tuple[SLO, ...] = tuple(
            SLO.parse(spec) for spec in self.config.slo_specs)
        self.tracker = SloTracker(self.slos)
        self.num_shed = 0
        self.num_admitted = 0

    # ------------------------------------------------------------------ #
    # outcome feed
    # ------------------------------------------------------------------ #

    def on_terminal(self, request: Request, now: float) -> None:
        """Score one terminal request.  The fleet reports each batch of
        replica terminals in ``(time, request_id)`` order, but sheds a
        request at its arrival time, which can be earlier than terminals
        already reported; the tracker files such a sample at its time
        position."""
        self.tracker.on_request_terminal(request, now)

    def budgets(self) -> list[ErrorBudget]:
        return [self.tracker.budget(slo.name) for slo in self.slos]

    def worst_budget_consumed(self) -> float:
        """Largest budget-consumed fraction across objectives with enough
        samples to mean anything."""
        worst = 0.0
        for slo in self.slos:
            budget = self.tracker.budget(slo.name)
            if budget.total >= self.config.min_samples:
                worst = max(worst, budget.budget_consumed)
        return worst

    # ------------------------------------------------------------------ #
    # the decision
    # ------------------------------------------------------------------ #

    def backlog_cap(self, num_routable: int) -> int:
        """Current fleet-wide backlog cap (tightened when burned)."""
        cap = self.config.max_backlog_per_replica * num_routable
        if self.worst_budget_consumed() >= self.config.burned_threshold:
            cap = max(1, int(cap * self.config.burned_backlog_factor))
        return cap

    def decide(self, request: Request, replicas: Sequence[Replica],
               now: float) -> AdmissionDecision:
        """Admit or shed one arriving request against the routable
        snapshot.  Shedding callers must ``fail()`` the request with the
        returned reason so the outcome is recorded, scored, and counted
        by the conservation audit."""
        if not replicas:
            return AdmissionDecision(
                admit=False, reason="admission shed: no live replica")
        capacity = (replicas[0].engine.kv.num_blocks
                    * replicas[0].engine.kv.block_size)
        if request.total_length_budget > capacity:
            return AdmissionDecision(
                admit=False,
                reason=(f"admission shed: request needs "
                        f"{request.total_length_budget} KV slots but a "
                        f"replica pool holds {capacity}"))
        backlog = sum(r.backlog for r in replicas)
        cap = self.backlog_cap(len(replicas))
        if backlog >= cap:
            tightened = cap < self.config.max_backlog_per_replica * len(replicas)
            return AdmissionDecision(
                admit=False,
                reason=(f"admission shed: fleet backlog {backlog} >= cap "
                        f"{cap}" + (" (error budget burned)" if tightened
                                    else "")))
        return AdmissionDecision(admit=True, reason="admitted")

    def record(self, decision: AdmissionDecision) -> None:
        if decision.admit:
            self.num_admitted += 1
        else:
            self.num_shed += 1
