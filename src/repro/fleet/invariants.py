"""Fleet-level invariants and the replay digest.

The per-engine contract lives in :mod:`repro.faults.invariants`; these
checks add what only exists at fleet scope:

* **conservation** — every offered request is terminal, and it became
  terminal *exactly once* across the whole fleet: one FINISH/FAIL event
  in exactly one replica's log, or one front-door shed — never both,
  never twice (a request killed mid-flight and re-routed must finish on
  exactly one survivor).
* **per-replica coherence** — every replica's event log and final engine
  state pass the single-engine final invariants (dead replicas included:
  a kill must leave the engine a clean record of only the work that
  terminated there), and no replica's clock ever moved backwards.
* **autoscaler bounds** — every control decision left the routable count
  inside ``[min_replicas, max_replicas]``.
* :func:`fleet_digest` — SHA-256 over the rows :func:`fleet_rows`
  yields: every replica's event log, every request outcome, and the
  full routing/kill/heal/scale history, floats hashed via ``float.hex``
  so two runs agree iff they are bit-identical.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.faults.invariants import (
    InvariantViolation,
    check_final_invariants,
    digest_rows,
    event_row,
    float_hex,
    request_row,
)
from repro.serving.engine import ServingResult
from repro.serving.events import EventType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.fleet.autoscaler import AutoscalerConfig
    from repro.fleet.simulator import FleetResult

__all__ = ["check_fleet_invariants", "fleet_rows", "fleet_digest"]


def _violate(message: str) -> None:
    raise InvariantViolation(message)


def check_fleet_invariants(
    result: "FleetResult",
    autoscaler_config: "AutoscalerConfig | None" = None,
) -> None:
    """Audit one drained fleet run; raises
    :class:`~repro.faults.invariants.InvariantViolation` on the first
    breach.  Pass the run's :class:`~repro.fleet.autoscaler.
    AutoscalerConfig` to additionally audit the scaling bounds."""
    offered = {r.request_id for r in result.requests}
    shed_ids = [r.request_id for r in result.shed]
    if len(set(shed_ids)) != len(shed_ids):
        _violate("a request was shed more than once")

    # -- conservation: terminal exactly once across the fleet ----------- #
    terminal_counts: dict[int, int] = {rid: 0 for rid in sorted(offered)}
    for replica in result.replicas:
        for etype in (EventType.FINISH, EventType.FAIL):
            for event in replica.engine.log.of_type(etype):
                for rid in event.request_ids:
                    if rid not in terminal_counts:
                        _violate(f"replica {replica.replica_id} terminated "
                                 f"unknown request {rid}")
                    terminal_counts[rid] += 1
    for rid in shed_ids:
        if rid not in terminal_counts:
            _violate(f"shed list contains unknown request {rid}")
        terminal_counts[rid] += 1
    for req in result.requests:
        if not req.is_terminal:
            _violate(f"request {req.request_id} ended the run in state "
                     f"{req.state.value} — every offered request must "
                     "finish, fail, or be shed")
        count = terminal_counts[req.request_id]
        if count != 1:
            _violate(f"request {req.request_id} became terminal {count} "
                     "times across the fleet (must be exactly once)")
        if req.is_failed and not req.failure_reason:
            _violate(f"failed request {req.request_id} has no reason")

    # -- routing log sanity --------------------------------------------- #
    replica_ids = {r.replica_id for r in result.replicas}
    for time, rid, target in result.assignments:
        if rid not in offered:
            _violate(f"assignment at t={time} names unknown request {rid}")
        if target not in replica_ids:
            _violate(f"assignment at t={time} names unknown replica "
                     f"{target}")
    assigned_ids = {rid for _, rid, _ in result.assignments}
    for req in result.requests:
        if req.is_finished and req.request_id not in assigned_ids:
            _violate(f"request {req.request_id} finished without ever "
                     "being routed")

    # -- per-replica engine coherence ----------------------------------- #
    for replica in result.replicas:
        engine = replica.engine
        if replica.clock_violations:
            _violate(replica.clock_violations[0])
        if engine.clock < replica.started_at - 1e-12:
            _violate(f"replica {replica.replica_id} clock {engine.clock} "
                     f"precedes its start {replica.started_at}")
        if replica.alive and replica.has_work:
            _violate(f"replica {replica.replica_id} still has work after "
                     "the fleet drained")
        local = ServingResult(requests=list(engine._all),
                              makespan=engine.clock, log=engine.log)
        check_final_invariants(local, engine)

    # -- autoscaler bounds ---------------------------------------------- #
    if autoscaler_config is not None:
        lo = autoscaler_config.min_replicas
        hi = autoscaler_config.max_replicas
        for decision in result.scale_decisions:
            if decision.action == "hold":
                continue
            # the ceiling is the autoscaler's own hard bound; the floor
            # can only be transiently violated by replica-loss faults,
            # which scale *decisions* must still never make worse
            if decision.replicas_after > hi:
                _violate(f"autoscaler scaled above the ceiling: "
                         f"{decision.replicas_after} > {hi} at "
                         f"t={decision.time}")
            if (decision.action == "down"
                    and decision.replicas_after < lo):
                _violate(f"autoscaler drained below the floor: "
                         f"{decision.replicas_after} < {lo} at "
                         f"t={decision.time}")


def fleet_rows(result: "FleetResult") -> Iterator[str]:
    """The rows :func:`fleet_digest` hashes, in order: the policy, each
    replica's lifecycle and event log, every request outcome, then the
    routing, kill, heal and scaling history (floats as ``float.hex``)."""
    yield result.policy
    for replica in result.replicas:
        yield repr((replica.replica_id, float_hex(replica.started_at),
                    float_hex(replica.retired_at), replica.alive,
                    replica.draining, replica.assigned))
        for e in replica.engine.log.events:
            yield event_row(e)
    for r in result.requests:
        yield request_row(r)
    for time, rid, target in result.assignments:
        yield repr((float_hex(time), rid, target))
    for time, rid in result.kills:
        yield repr(("kill", float_hex(time), rid))
    for time, rid in result.heals:
        yield repr(("heal", float_hex(time), rid))
    for d in result.scale_decisions:
        yield repr((float_hex(d.time), d.action, float_hex(d.occupancy),
                    float_hex(d.mean_backlog), d.replicas_before,
                    d.replicas_after))


def fleet_digest(result: "FleetResult") -> str:
    """Deterministic SHA-256 of the complete fleet trajectory."""
    return digest_rows(fleet_rows(result))
