"""CLI tests: ``repro slo`` and the ``repro trace`` request filters."""

from __future__ import annotations

import json

import pytest

from repro.core.cli import main

# Small reference workload so each trace run stays well under a second.
FAST = ["--requests", "6", "--input-tokens", "128", "--output-tokens", "16"]


class TestSloCommand:
    def test_reports_budgets_and_pages(self, capsys):
        assert main(["slo"]) == 0
        out = capsys.readouterr().out
        assert "SLO scenario 'chaos_fault_storm'" in out
        assert "availability >=" in out
        assert "budget consumed" in out
        assert "[page] slo_burn_" in out

    def test_check_gate_replays_byte_identical(self, serving_gate):
        """The SLO report replays byte-identically in all four gate modes
        (the scenario fails unless a page fires)."""
        assert serving_gate.code == 0
        assert "[ok] slo bcf70e1014c78b22… (4 modes)" in serving_gate.out

    def test_out_writes_deterministic_json(self, capsys, tmp_path):
        path = tmp_path / "slo.json"
        assert main(["slo", "--out", str(path)]) == 0
        report = json.loads(path.read_text())
        assert report["scenario"] == "chaos_fault_storm"
        assert {b["slo"] for b in report["budgets"]} == {
            "ttft_p99", "availability"}
        assert report["alerts"]

    def test_custom_specs_override_defaults(self, capsys):
        assert main(["slo", "--spec", "p95 e2e < 100s"]) == 0
        out = capsys.readouterr().out
        assert "p95 e2e < 100s" in out
        assert "ttft" not in out

    def test_bundle_dir_receives_postmortems(self, capsys, tmp_path):
        bundles = tmp_path / "bundles"
        assert main(["slo", "--bundle-dir", str(bundles)]) == 0
        assert list(bundles.glob("slo_burn_*/slo.json"))

    def test_rejects_malformed_spec(self):
        with pytest.raises(ValueError, match="cannot parse SLO spec"):
            main(["slo", "--spec", "p99 vibes < ok"])


class TestTraceFilters:
    def test_request_filter_keeps_one_lifecycle(self, capsys, tmp_path):
        out = tmp_path / "trace.json"
        assert main(["trace", *FAST, "--out", str(out),
                     "--request", "2"]) == 0
        events = json.loads(out.read_text())["traceEvents"]
        payload = [e for e in events if e["ph"] != "M"]
        assert payload
        assert {e["args"]["request_id"] for e in payload
                if e["ph"] in ("B", "i") and "request_id" in e["args"]} \
            <= {2}

    def test_match_filter_selects_span_names(self, capsys, tmp_path):
        out = tmp_path / "trace.json"
        assert main(["trace", *FAST, "--out", str(out),
                     "--match", "prefill"]) == 0
        events = json.loads(out.read_text())["traceEvents"]
        names = {e["name"] for e in events if e["ph"] == "B"}
        assert names
        assert all("prefill" in n for n in names)

    def test_timeline_prints_causal_table(self, capsys):
        assert main(["trace", *FAST, "--timeline", "3"]) == 0
        out = capsys.readouterr().out
        assert "request 3 (req-000003)" in out
        for name in ("admit", "queue.wait", "first_token", "finish"):
            assert name in out

    def test_timeline_unknown_request_errors(self, capsys):
        assert main(["trace", *FAST, "--timeline", "99"]) == 1
        assert "no trace recorded" in capsys.readouterr().err

    def test_poisson_workload_traces(self, capsys, tmp_path):
        out = tmp_path / "trace.json"
        assert main(["trace", "--poisson", "8", "--requests", "24",
                     "--out", str(out), "--no-routing"]) == 0
        stdout = capsys.readouterr().out
        assert "24 requests" in stdout
        assert json.loads(out.read_text())["traceEvents"]
