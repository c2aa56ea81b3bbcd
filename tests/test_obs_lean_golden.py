"""Golden digest of the lean SLO-only handle's outputs over ``ext_slo``.

``ext_slo`` observes every run through a *lean* handle (span tracer
disabled; no request tracer, routing probe or cluster telemetry).  Its
fingerprint keeps only the budget columns, so the metrics registry behind
them — KV metering, step-time histograms, creation order — is pinned here
instead: one digest over all 7 sweep points (4 load rates, 3 storm
intensities), recorded once and required in both engine modes.  The
fast/scalar equivalence tests compare two modes of the same code; this
one compares against a recorded value, so a change to how a lean step
meters or prices its work cannot drift both modes together.

Only the two step-cache gauges are masked: they count host cache lookups,
which differ with the pricing route, not simulated results.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.experiments.slo import LOAD_SLOS, _lean_slo_obs
from repro.faults.harness import chaos_serving_run
from repro.obs.harness import poisson_serving_run
from repro.obs.slo import fault_storm_config
from repro.perfmodel import stepcache

_HOST_GAUGES = ("stepcache_hits_total", "stepcache_misses_total")

_LOAD_RATES = (2.0, 8.0, 32.0, 128.0)
_STORM_RATES = (2.0, 5.0, 8.0)

_GOLDEN_DIGEST = "6e70e5c7a73cddd9b09f4192cc19bc8cf2346d4d3307edf967dfea551445fe27"


def _point_outputs(obs, makespan: float) -> bytes:
    metrics = json.loads(obs.metrics.to_json())
    for metric in metrics["metrics"]:
        if metric["name"] in _HOST_GAUGES:
            metric["value"] = None
    alerts = [(a.rule, float.hex(a.time)) for a in obs.alerts.fired]
    return json.dumps({
        "metrics": metrics,
        "alerts": alerts,
        "slo": obs.slo.report(makespan),
    }, sort_keys=True).encode()


def _lean_digest() -> str:
    h = hashlib.sha256()
    for rate in _LOAD_RATES:
        obs = _lean_slo_obs(LOAD_SLOS)
        res = poisson_serving_run(arrival_rate_rps=rate, num_requests=120,
                                  instrumentation=obs)
        h.update(_point_outputs(obs, res.makespan))
    storm = fault_storm_config()
    for rate in _STORM_RATES:
        obs = _lean_slo_obs()
        run = chaos_serving_run(dataclasses.replace(storm, fault_rate=rate),
                                instrumentation=obs)
        h.update(_point_outputs(obs, run.result.makespan))
    return h.hexdigest()


@pytest.mark.parametrize("vectorize", [True, False],
                         ids=["fast", "scalar"])
def test_lean_handle_outputs_match_recorded_digest(monkeypatch, vectorize):
    """Metrics snapshot (registry order), fired alerts and SLO report of
    every ``ext_slo`` point under its lean handle, hashed against the
    recorded digest, with the engine's decode window on and off."""
    if vectorize:
        monkeypatch.delenv("REPRO_NO_VECTORIZE_ENGINE", raising=False)
    else:
        monkeypatch.setenv("REPRO_NO_VECTORIZE_ENGINE", "1")
    stepcache.clear()
    assert _lean_digest() == _GOLDEN_DIGEST
