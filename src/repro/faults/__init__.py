"""Deterministic fault injection + graceful degradation for the engine.

The simulated serving stack models healthy clusters by default; real
multi-GPU deployments lose devices, expert shards and links under load.
This package adds that robustness layer:

* :mod:`repro.faults.schedule` — a seeded :class:`FaultSchedule`, a pure
  function of ``(seed, sim-time horizon)`` with no wall-clock dependence,
  emitting device loss, expert-shard loss, interconnect degradation and
  transient KV-pool pressure events;
* :mod:`repro.faults.policies` — pluggable :class:`RecoveryPolicy`
  objects: capped-exponential-backoff retry (in simulated time), fail-fast,
  and graceful degradation to a reduced top-k;
* :mod:`repro.faults.injector` — the :class:`FaultInjector` the engine
  consults each iteration: applies due events to a :class:`ClusterHealth`
  model, kills/retries affected requests, prices slowdowns through the
  perf-model component breakdown, and heals transient faults;
* :mod:`repro.faults.invariants` — the property-checkable invariants the
  whole simulator must keep under chaos (token conservation, KV block
  integrity, monotone simulated time, terminal request states) plus the
  deterministic run digest the replay gate (``repro gate``) compares.

Everything is default-off: an engine without an armed injector is
bit-identical to the pre-fault engine.
"""

from repro.faults.injector import ClusterHealth, FaultDomain, FaultInjector
from repro.faults.invariants import (
    InvariantViolation,
    check_engine_invariants,
    check_final_invariants,
    check_kv_integrity,
    run_digest,
)
from repro.faults.policies import (
    DegradePolicy,
    FailFastPolicy,
    RecoveryDecision,
    RecoveryPolicy,
    RetryPolicy,
)
from repro.faults.schedule import FaultEvent, FaultKind, FaultSchedule

__all__ = [
    "FaultEvent",
    "FaultKind",
    "FaultSchedule",
    "RecoveryDecision",
    "RecoveryPolicy",
    "RetryPolicy",
    "FailFastPolicy",
    "DegradePolicy",
    "ClusterHealth",
    "FaultDomain",
    "FaultInjector",
    "InvariantViolation",
    "check_engine_invariants",
    "check_final_invariants",
    "check_kv_integrity",
    "run_digest",
]
