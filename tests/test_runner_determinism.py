"""Determinism tests for the multiprocessing experiment runner.

The contract: for any ``--jobs`` value, the merged result stream — and
everything derived from it (fingerprints, table digests) — is byte-stable.
"""

from __future__ import annotations

import json

import pytest

from repro.core.experiment import ExperimentResult
from repro.runner import default_jobs, iter_experiments, run_experiments

# one vectorized sweep, one table-driven summary, one chaos/engine run,
# one fleet run — the four result families the suite produces
REPRESENTATIVE = ["fig5", "table1", "ext_resilience", "ext_fleet_policy"]


def _fingerprint(result: ExperimentResult) -> str:
    return json.dumps(result.fingerprint().to_dict(), sort_keys=True)


class TestByteStability:
    def test_jobs1_vs_jobs4_fingerprints_identical(self):
        serial = run_experiments(REPRESENTATIVE, jobs=1)
        pooled = run_experiments(REPRESENTATIVE, jobs=4)
        for a, b in zip(serial, pooled):
            assert _fingerprint(a) == _fingerprint(b)

    def test_chaos_replay_identical_across_processes(self):
        from concurrent.futures import ProcessPoolExecutor

        from repro.runner import _pool_context
        from repro.scenarios import chaos

        parent = chaos(fault_seed=3)
        with ProcessPoolExecutor(max_workers=2,
                                 mp_context=_pool_context()) as pool:
            workers = [pool.submit(chaos, 3).result() for _ in range(2)]
        assert workers == [parent, parent]


class TestMergeSemantics:
    def test_results_yield_in_input_order(self):
        ids = ["table1", "fig5", "ext_resilience"]  # not registry order
        seen = [eid for eid, _ in iter_experiments(ids, jobs=2)]
        assert seen == ids

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            run_experiments(["fig5", "no_such_experiment"], jobs=2)

    def test_return_exceptions_isolates_failures(self):
        outcomes = run_experiments(["no_such_experiment", "table1"], jobs=2,
                                   return_exceptions=True)
        assert isinstance(outcomes[0], KeyError)
        assert isinstance(outcomes[1], ExperimentResult)

    def test_serial_path_matches_pool_outcome_types(self):
        serial = run_experiments(["table1"], jobs=1)
        assert isinstance(serial[0], ExperimentResult)
        assert serial[0].exp_id == "table1"


class TestSubmissionOrder:
    """The longest-first heuristic reads one static table of host-ledger
    runtimes: no file, no recorded baseline.  Unknown ids sort last —
    never an error, never a result change (submission order is wall-clock
    only)."""

    def test_seed_table_covers_unrecorded_fleet_experiments(self):
        from repro.core.registry import list_experiments
        from repro.runner import _RUNTIME_SEED_S

        assert set(_RUNTIME_SEED_S) <= set(list_experiments())
        for exp_id in ("ext_fleet_capacity", "ext_fleet_diurnal",
                       "ext_fleet_policy"):
            assert _RUNTIME_SEED_S[exp_id] > 0.0

    def test_unknown_experiment_falls_back_to_zero(self):
        from repro.runner import _submission_order

        ids = ["no_such_experiment", "fig15"]
        assert _submission_order(ids) == ["fig15", "no_such_experiment"]

    def test_cold_start_submits_seeded_experiments_first(self):
        from repro.runner import _submission_order

        ids = ["fig5", "ext_serving_load", "fig15"]
        # fig15 (1.8 s) > ext_serving_load (0.2 s) > fig5 (no entry)
        assert _submission_order(ids) == ["fig15", "ext_serving_load",
                                          "fig5"]

    def test_order_reads_no_file(self, tmp_path, monkeypatch):
        import builtins
        import pathlib

        from repro.runner import _submission_order

        touched = []

        def spy(name, real):
            def wrapper(*args, **kwargs):
                touched.append((name, args[:1]))
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.chdir(tmp_path)  # an empty cwd: no BENCH_*.json
        monkeypatch.setattr(builtins, "open", spy("open", builtins.open))
        for name in ("exists", "glob", "open", "read_text", "stat"):
            monkeypatch.setattr(pathlib.Path, name,
                                spy(name, getattr(pathlib.Path, name)))
        order = _submission_order(["ext_serving_load", "fig15"])
        monkeypatch.undo()
        assert touched == []
        assert order == ["fig15", "ext_serving_load"]

    def test_ties_keep_input_order(self):
        from repro.runner import _submission_order

        ids = ["table1", "fig5"]  # both unhinted -> both 0.0
        assert _submission_order(ids) == ids


class TestDefaultJobs:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "6")
        assert default_jobs() == 6

    def test_garbage_env_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        assert default_jobs() == 1

    def test_unset_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert default_jobs() == 1
