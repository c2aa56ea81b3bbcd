"""Tests for repro.obs.regress — baselines, drift detection, attribution."""

from __future__ import annotations

import dataclasses
import json
import subprocess

from repro.core.experiment import ExperimentResult
from repro.core.results import ResultTable
from repro.obs.fingerprint import Fingerprint, fingerprint_result
from repro.obs.regress import (
    BaselineStore,
    OverheadReport,
    Tolerance,
    compare_fingerprints,
    render_drift_report,
    suspect_modules,
)


def _fp(sim=None, digests=None, structure=None) -> Fingerprint:
    return Fingerprint(
        exp_id="figX",
        sim=dict({"m": 1.0} if sim is None else sim),
        digests=dict({"t": "a" * 64} if digests is None else digests),
        structure=dict({"t": {"rows": 2, "columns": ["a"]}}
                       if structure is None else structure),
    )


class TestCompare:
    def test_identical_is_clean(self):
        assert compare_fingerprints(_fp(), _fp()) == []

    def test_sim_drift_detected(self):
        drifts = compare_fingerprints(_fp(sim={"m": 1.0}),
                                      _fp(sim={"m": 1.0001}))
        assert [d.metric for d in drifts] == ["m"]
        assert drifts[0].kind == "sim"

    def test_sim_band_is_tight(self):
        # a 1e-7 relative change must trip the default exact band
        drifts = compare_fingerprints(_fp(sim={"m": 1.0}),
                                      _fp(sim={"m": 1.0 + 1e-7}))
        assert drifts

    def test_tolerance_override_by_substring(self):
        tol = Tolerance(overrides={"imbalance": 1e-2})
        drifts = compare_fingerprints(
            _fp(sim={"rolling_imbalance": 1.0}),
            _fp(sim={"rolling_imbalance": 1.001}), tol)
        assert drifts == []

    def test_missing_sim_metric(self):
        drifts = compare_fingerprints(_fp(sim={"m": 1.0}), _fp(sim={}))
        assert drifts and drifts[0].current == "missing"

    def test_digest_drift(self):
        drifts = compare_fingerprints(_fp(digests={"t": "a" * 64}),
                                      _fp(digests={"t": "b" * 64}))
        assert [d.kind for d in drifts] == ["digest"]

    def test_structure_drift(self):
        drifts = compare_fingerprints(
            _fp(structure={"t": {"rows": 2, "columns": ["a"]}}),
            _fp(structure={"t": {"rows": 3, "columns": ["a"]}}))
        assert any(d.kind == "structure" for d in drifts)

    def test_describe_names_figure_metric_and_suspect(self):
        drifts = compare_fingerprints(_fp(sim={"m": 2.0}),
                                      _fp(sim={"m": 3.0}))
        d = dataclasses.replace(drifts[0], suspect="src/repro/x.py")
        text = d.describe()
        assert "figX" in text and "m" in text
        assert "+50.000%" in text
        assert "src/repro/x.py" in text
        assert "src/repro/x.py" in render_drift_report([d])


class TestBaselineStore:
    def test_record_and_reload(self, tmp_path):
        store = BaselineStore(tmp_path)
        path = store.record(_fp(), note="first", git_sha="abc123")
        assert path.name == "BENCH_figX.json"
        assert store.known_ids() == ["figX"]
        assert store.latest_sha("figX") == "abc123"
        loaded = store.latest_fingerprint("figX")
        assert loaded is not None and loaded.to_dict() == _fp().to_dict()

    def test_trajectory_appends(self, tmp_path):
        store = BaselineStore(tmp_path)
        store.record(_fp(sim={"m": 1.0}), git_sha="a")
        store.record(_fp(sim={"m": 2.0}), git_sha="b")
        records = store.records("figX")
        assert len(records) == 2
        assert store.latest_fingerprint("figX").sim["m"] == 2.0
        assert store.latest_sha("figX") == "b"

    def test_missing_experiment(self, tmp_path):
        store = BaselineStore(tmp_path)
        assert store.latest_fingerprint("nope") is None
        assert store.records("nope") == []

    def test_file_is_plain_json(self, tmp_path):
        store = BaselineStore(tmp_path)
        store.record(_fp())
        data = json.loads(store.path("figX").read_text())
        assert data["exp_id"] == "figX"
        assert data["records"][0]["fingerprint"]["sim"]


class TestSuspects:
    def test_loaded_dependency_ranked_first(self):
        deps = {"src/repro/serving/engine.py"}
        changed = ["README.md", "src/repro/obs/trace.py",
                   "src/repro/serving/engine.py"]
        suspects = suspect_modules(changed, deps)
        assert suspects[0] == "src/repro/serving/engine.py"
        assert "src/repro/obs/trace.py" in suspects
        assert "README.md" not in suspects

    def test_loaded_modules_reflect_imports(self):
        from repro.obs.regress import loaded_repro_modules

        deps = loaded_repro_modules()
        assert "src/repro/obs/regress.py" in deps
        assert all(p.startswith("src/repro/") for p in deps)

    def test_first_suspect_is_the_most_recent_change(self, tmp_path):
        # a commit since the baseline touched experiment.py, then an
        # uncommitted edit touched gpus.py: the edit is the first suspect,
        # though experiment.py sorts first by path
        import repro.core.experiment  # noqa: F401 - both modules loaded
        import repro.hardware.gpus  # noqa: F401
        from repro.obs.regress import first_suspect

        def git(*args: str) -> str:
            return subprocess.run(
                ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                cwd=tmp_path, check=True, capture_output=True,
                text=True).stdout.strip()

        experiment = tmp_path / "src/repro/core/experiment.py"
        gpus = tmp_path / "src/repro/hardware/gpus.py"
        for path in (experiment, gpus):
            path.parent.mkdir(parents=True)
            path.write_text("x = 1\n")
        git("init", "-q")
        git("add", "-A")
        git("commit", "-qm", "baseline")
        baseline = git("rev-parse", "HEAD")
        experiment.write_text("x = 2\n")
        git("commit", "-qam", "later")
        gpus.write_text("x = 2\n")
        assert first_suspect(baseline, tmp_path) == "src/repro/hardware/gpus.py"


class TestOverhead:
    def test_report_math(self):
        ok = OverheadReport(baseline_s=1.0, disabled_s=1.01, rounds=3)
        bad = OverheadReport(baseline_s=1.0, disabled_s=1.2, rounds=3)
        assert ok.within() and not bad.within()
        assert "+1.00%" in ok.describe()

    def test_abs_slack_absorbs_jitter_on_tiny_runs(self):
        report = OverheadReport(baseline_s=0.001, disabled_s=0.002, rounds=3)
        assert report.within()  # 2ms absolute slack


class TestEndToEnd:
    def test_real_result_clean_then_perturbed(self, tmp_path):
        table = ResultTable("decode", ("batch", "step_s"))
        table.add(batch=1, step_s=0.010)
        result = ExperimentResult(exp_id="figY", title="t", paper_claim="c",
                                  tables=[table], runtime_s=0.1)
        store = BaselineStore(tmp_path)
        store.record(fingerprint_result(result))
        assert compare_fingerprints(store.latest_fingerprint("figY"),
                                    fingerprint_result(result)) == []
        table.rows[0]["step_s"] = 0.011
        drifts = compare_fingerprints(store.latest_fingerprint("figY"),
                                      fingerprint_result(result))
        assert any(d.metric == "decode.step_s:sum" for d in drifts)
        assert any(d.kind == "digest" for d in drifts)
