"""CLI tests for the ``repro chaos`` subcommand, and its replay gate."""

from __future__ import annotations

import pytest

from repro.core.cli import main

# Small workload so each CLI run stays well under a second.
FAST = ["--requests", "6", "--input-tokens", "128", "--output-tokens", "16"]


def test_chaos_runs_and_reports(capsys):
    assert main(["chaos", *FAST, "--fault-seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "chaos run (fault seed 1" in out
    assert "availability" in out
    assert "final health" in out


def test_chaos_show_schedule_prints_events(capsys):
    assert main(["chaos", *FAST, "--fault-seed", "1",
                 "--show-schedule"]) == 0
    out = capsys.readouterr().out
    assert "seed 1" in out
    assert "t=" in out


def test_chaos_smoke_gate_passes(serving_gate):
    """The chaos scenario replays bit-identically in all four gate modes
    with its final invariants holding."""
    assert serving_gate.code == 0
    assert "[ok] chaos 6a07e58cd5f30c6f… (4 modes)" in serving_gate.out


def test_chaos_failfast_policy_reports_failures(capsys):
    # A permanent-ish fault storm under failfast: some requests fail,
    # but the run itself (and its invariants) must still complete.
    assert main(["chaos", *FAST, "--fault-seed", "3", "--fault-rate", "6.0",
                 "--policy", "failfast", "--no-degrade"]) == 0
    out = capsys.readouterr().out
    assert "policy failfast" in out


def test_chaos_rejects_unknown_policy():
    with pytest.raises(SystemExit):
        main(["chaos", "--policy", "shrug"])
