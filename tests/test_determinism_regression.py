"""Determinism regression: same inputs must produce bit-identical outputs.

Two layers, matching the two reproducibility gates the repo ships:

* **experiment fingerprints** — running a registered experiment twice in
  one process must yield identical sim metrics, table digests, and
  structure (the host runtime never reaches a fingerprint).
* **chaos digests** — a fault-injected serving run replayed with the
  same workload seed and fault seed must be bit-identical down to the
  event log (``run_digest`` hashes every float via ``float.hex``).

These are the in-tree counterparts of ``repro gate``'s BENCH and chaos
scenarios: cross-*run* drift is caught by the recorded BENCH baselines;
cross-*call* nondeterminism (unordered dicts, shared RNG state,
time-dependent code) is caught here.
"""

from __future__ import annotations

import pytest

from repro.core.registry import run_experiment
from repro.obs.fingerprint import fingerprint_result

# One figure-family experiment and two extension experiments — enough to
# cover the perf-model, serving-sim, and fleet-sim paths (ext_fleet_policy
# is the cheapest of the fleet family).
EXPERIMENTS = ("fig5", "ext_resilience", "ext_fleet_policy")


@pytest.mark.parametrize("exp_id", EXPERIMENTS)
def test_experiment_fingerprint_is_call_stable(exp_id):
    first = fingerprint_result(run_experiment(exp_id)).to_dict()
    second = fingerprint_result(run_experiment(exp_id)).to_dict()
    assert first == second


@pytest.mark.parametrize("exp_id", EXPERIMENTS)
def test_experiment_fingerprint_has_gateable_content(exp_id):
    """An empty fingerprint would make the identity test vacuous."""
    fp = fingerprint_result(run_experiment(exp_id)).to_dict()
    assert fp["sim"]
    assert fp["digests"]
    assert all(info["rows"] > 0 for info in fp["structure"].values())


class TestChaosReplay:
    def _run(self):
        from repro.faults.harness import ChaosConfig, chaos_serving_run

        config = ChaosConfig(num_requests=8, input_tokens=128,
                             output_tokens=16, kv_pool_tokens=16_384,
                             fault_seed=7, fault_rate=3.0, horizon_s=2.0,
                             num_devices=4, ep=4, replicas=2)
        return chaos_serving_run(config)

    def test_same_seed_chaos_run_is_bit_identical(self):
        from repro.faults.invariants import run_digest

        first = self._run()
        second = self._run()
        assert first.schedule.events == second.schedule.events
        assert run_digest(first.result) == run_digest(second.result)
        assert first.summary == second.summary


class TestFleetReplay:
    """The fleet counterpart of the chaos layer: the canonical fleet
    scenario (replica storm + autoscaler armed) must replay to the same
    digest and rows in-process and across worker processes."""

    def test_killed_replica_storm_replays_bit_identically(self):
        from repro.fleet.simulator import FleetSimulator
        from repro.scenarios import fleet, smoke_fleet_config, smoke_trace

        result = FleetSimulator(smoke_fleet_config()).run(smoke_trace())
        assert result.num_kills >= 1, \
            "the smoke storm must actually kill a replica"
        assert fleet() == fleet()

    def test_fleet_digest_identical_across_processes(self):
        from concurrent.futures import ProcessPoolExecutor

        from repro.runner import _pool_context
        from repro.scenarios import fleet

        parent = fleet("prefix_affinity")
        with ProcessPoolExecutor(max_workers=2,
                                 mp_context=_pool_context()) as pool:
            workers = [pool.submit(fleet, "prefix_affinity").result()
                       for _ in range(2)]
        assert workers == [parent, parent]
