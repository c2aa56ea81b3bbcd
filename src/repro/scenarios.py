"""The scenario registry: every digest ``repro gate`` holds fixed.

A scenario is a pure, module-level function (so a spawned worker can
import it by name) from its seeds to ``(digest, rows)``: ``rows`` is the
ordered sequence of strings the SHA-256 digest hashes, floats in them as
``float.hex`` or exact JSON reprs.  :func:`registry` lists ``chaos``,
``fleet.<policy>`` for each router policy, ``slo``, ``slo_report`` and
one ``bench.<id>`` per committed ``BENCH_<id>.json``.
"""

from __future__ import annotations

import json
import pathlib
import tempfile
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from repro.faults.schedule import FaultSchedule, replica_storm
from repro.fleet.admission import AdmissionConfig
from repro.fleet.autoscaler import AutoscalerConfig
from repro.fleet.simulator import FleetConfig
from repro.fleet.traffic import DiurnalSpec, TemplateMix, diurnal_arrivals, \
    synthesize_requests
from repro.serving.request import Request
from repro.workloads.generator import LengthDistribution

__all__ = ["Outcome", "Scenario", "SMOKE_SEED", "smoke_fleet_config",
           "smoke_trace", "chaos", "fleet", "slo", "slo_report", "bench",
           "fingerprint_rows", "fingerprint_outcome", "registry"]

Outcome = tuple[str, list[str]]
"""A scenario's ``(digest, rows)``."""

SMOKE_SEED = 23
"""Seed of the canonical fleet scenario (trace and storm both derive
from it)."""


@dataclass(frozen=True)
class Scenario:
    """One registered scenario: a name, a module-level function and the
    arguments (seeds) it is replayed with."""

    name: str
    fn: Callable[..., Outcome]
    args: tuple = ()


def _outcome(rows: Iterable[str]) -> Outcome:
    from repro.faults.invariants import digest_rows

    rows = list(rows)
    return digest_rows(rows), rows


def chaos(fault_seed: int = 0) -> Outcome:
    """The default ``repro chaos`` run (8 requests under a 2 faults/s
    storm), with the final invariants checked."""
    from repro.faults.harness import ChaosConfig, chaos_serving_run
    from repro.faults.invariants import check_final_invariants, run_rows

    config = ChaosConfig(num_requests=8, fault_seed=fault_seed)
    result = chaos_serving_run(config).result
    check_final_invariants(result)
    return _outcome(run_rows(result))


def smoke_fleet_config(policy: str = "prefix_affinity",
                       with_storm: bool = True,
                       with_autoscaler: bool = True) -> FleetConfig:
    """The reference fleet: 3 replicas, prefix caching on, a replica
    storm that lands at least one kill and one heal, and a 1..4 bounded
    autoscaler."""
    kills: FaultSchedule | None = None
    if with_storm:
        kills = replica_storm(SMOKE_SEED, horizon_s=4.0, rate_per_s=0.75,
                              num_replicas=3, mean_outage_s=1.5,
                              permanent_fraction=0.25)
    autoscaler = AutoscalerConfig(min_replicas=1, max_replicas=4,
                                  interval_s=0.5) if with_autoscaler else None
    return FleetConfig(
        num_replicas=3,
        policy=policy,
        kv_pool_tokens=32_768,
        max_num_seqs=16,
        enable_prefix_caching=True,
        admission=AdmissionConfig(max_backlog_per_replica=48),
        autoscaler=autoscaler,
        replica_kills=kills,
    )


def smoke_trace(num_requests: int = 96,
                seed: int = SMOKE_SEED) -> list[Request]:
    """Diurnal templated trace sized so the storm catches work in flight."""
    rng = np.random.default_rng(seed)
    spec = DiurnalSpec(base_rps=8.0, peak_rps=48.0, period_s=4.0)
    arrivals = diurnal_arrivals(spec, num_requests, rng)
    return synthesize_requests(
        num_requests, rng, arrivals,
        lengths=LengthDistribution(mean_input=192, mean_output=48,
                                   sigma=0.35),
        templates=TemplateMix(num_templates=6, templated_fraction=0.8,
                              prefix_tokens=128),
    )


def fleet(policy: str = "prefix_affinity") -> Outcome:
    """The canonical fleet scenario under ``policy``, with the fleet
    invariants (autoscaler bounds included) checked."""
    from repro.fleet.invariants import check_fleet_invariants, fleet_rows
    from repro.fleet.simulator import FleetSimulator

    config = smoke_fleet_config(policy)
    result = FleetSimulator(config).run(smoke_trace())
    check_fleet_invariants(result, config.autoscaler)
    return _outcome(fleet_rows(result))


def slo(config=None) -> Outcome:
    """The SLO report of the fault-storm scenario (``config`` defaults to
    :func:`repro.obs.slo.fault_storm_config`), as ``repro slo --out``
    writes it.  A run that fires no burn-rate page fails."""
    from repro.faults.invariants import InvariantViolation
    from repro.obs.slo import fault_storm_config, run_slo_scenario

    report = run_slo_scenario(config=config or fault_storm_config())
    if not report["alerts"]:
        raise InvariantViolation("fault-storm scenario fired no burn-rate "
                                 "page")
    return _outcome((json.dumps(report, indent=2, sort_keys=True)
                     + "\n").splitlines(keepends=True))


def slo_report() -> Outcome:
    """The ``repro report --slo-gate`` markdown: the fault-storm scenario
    with cluster telemetry armed, its flight-recorder bundles folded in."""
    from repro.obs.report import render_scenario_report
    from repro.obs.slo import fault_storm_config, run_slo_scenario

    # bundles land in a throwaway dir; only basenames reach the report
    with tempfile.TemporaryDirectory() as tmp:
        scenario = run_slo_scenario(config=fault_storm_config(),
                                    out_dir=tmp, cluster=True)
        text = render_scenario_report(scenario,
                                      bundle_root=pathlib.Path(tmp))
    return _outcome(text.splitlines(keepends=True))


def fingerprint_rows(fingerprint) -> list[str]:
    """A fingerprint as JSON lines, sim metrics before table digests;
    floats keep their exact repr, so the lines parse back to it."""
    return json.dumps(fingerprint.to_dict(),
                      indent=1).splitlines(keepends=True)


def fingerprint_outcome(fingerprint) -> Outcome:
    return _outcome(fingerprint_rows(fingerprint))


def bench(exp_id: str) -> Outcome:
    """The fingerprint of one registered experiment."""
    from repro.core.registry import run_experiment

    return fingerprint_outcome(run_experiment(exp_id).fingerprint())


def registry(bench_dir: str | pathlib.Path = ".") -> list[Scenario]:
    """Every scenario ``repro gate`` replays: the serving scenarios, then
    one per ``BENCH_<id>.json`` under ``bench_dir``."""
    from repro.fleet.router import ROUTER_POLICIES
    from repro.obs.regress import BaselineStore

    return [
        Scenario("chaos", chaos),
        *(Scenario(f"fleet.{p}", fleet, (p,)) for p in ROUTER_POLICIES),
        Scenario("slo", slo),
        Scenario("slo_report", slo_report),
        *(Scenario(f"bench.{e}", bench, (e,))
          for e in BaselineStore(bench_dir).known_ids()),
    ]
