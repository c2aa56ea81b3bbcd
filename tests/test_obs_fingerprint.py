"""Tests for repro.obs.fingerprint — deterministic experiment digests."""

from __future__ import annotations

from repro.core.experiment import ExperimentResult
from repro.core.results import ResultTable
from repro.obs.fingerprint import (
    SCHEMA_VERSION,
    Fingerprint,
    fingerprint_result,
)


def _result(latency0: float = 1.5, runtime_s: float = 0.25) -> ExperimentResult:
    table = ResultTable("latency sweep", ("batch", "latency_s", "tput_tok_s"))
    table.add(batch=1, latency_s=latency0, tput_tok_s=100.0)
    table.add(batch=2, latency_s=2.5, tput_tok_s=180.0)
    return ExperimentResult(
        exp_id="figX", title="t", paper_claim="c", tables=[table],
        runtime_s=runtime_s,
    )


class TestFingerprintResult:
    def test_deterministic(self):
        a = fingerprint_result(_result())
        b = fingerprint_result(_result())
        assert a.to_dict() == b.to_dict()

    def test_sim_metrics(self):
        fp = fingerprint_result(_result())
        assert fp.sim["latency sweep.latency_s:sum"] == 4.0
        assert fp.sim["latency sweep.latency_s:mean"] == 2.0
        assert fp.sim["latency sweep.batch:sum"] == 3.0

    def test_sim_time_total_excludes_rate_columns(self):
        # tput_tok_s ends in "_s" but is a rate, not a duration
        fp = fingerprint_result(_result())
        assert fp.sim["sim_time_total_s"] == 4.0

    def test_wall_kept_separate(self):
        # the host runtime stays on the result, out of the fingerprint
        fp = fingerprint_result(_result(runtime_s=0.7))
        assert set(fp.to_dict()) == {"exp_id", "schema", "sim", "digests",
                                     "structure"}
        assert not any("runtime" in key for key in fp.sim)

    def test_value_change_changes_digest_and_sums(self):
        a = fingerprint_result(_result(latency0=1.5))
        b = fingerprint_result(_result(latency0=1.5000001))
        assert a.digests["latency sweep"] != b.digests["latency sweep"]
        assert a.sim["latency sweep.latency_s:sum"] != \
            b.sim["latency sweep.latency_s:sum"]

    def test_wall_change_does_not_move_digest(self):
        # the host runtime never reaches the fingerprint
        a = fingerprint_result(_result(runtime_s=0.1))
        b = fingerprint_result(_result(runtime_s=9.9))
        assert a.to_dict() == b.to_dict()

    def test_structure(self):
        fp = fingerprint_result(_result())
        assert fp.structure["latency sweep"] == {
            "rows": 2,
            "columns": ["batch", "latency_s", "tput_tok_s"],
        }

    def test_roundtrip(self):
        fp = fingerprint_result(_result())
        back = Fingerprint.from_dict(fp.to_dict())
        assert back.to_dict() == fp.to_dict()
        assert back.schema == SCHEMA_VERSION

    def test_experiment_result_method(self):
        fp = _result().fingerprint()
        assert fp.exp_id == "figX"
        assert fp.sim


class TestRealExperiment:
    def test_fig5_fingerprint_is_reproducible(self):
        from repro.core.registry import run_experiment

        a = fingerprint_result(run_experiment("fig5"))
        b = fingerprint_result(run_experiment("fig5"))
        assert a.to_dict() == b.to_dict()
