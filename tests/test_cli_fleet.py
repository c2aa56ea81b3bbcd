"""CLI tests for the ``repro fleet`` subcommand, and its replay gate."""

from __future__ import annotations

import pytest

from repro.core.cli import main

# Small trace so each CLI run stays well under a second.
FAST = ["--requests", "24"]


def test_fleet_runs_and_reports(capsys):
    assert main(["fleet", *FAST]) == 0
    out = capsys.readouterr().out
    assert "fleet run (3 replicas, policy prefix_affinity" in out
    assert "availability:" in out
    assert "TTFT p50/p99:" in out
    assert "digest:" in out


def test_fleet_smoke_gate_passes(serving_gate):
    """The canonical fleet scenario replays bit-identically in all four
    gate modes with the fleet invariants holding."""
    assert serving_gate.code == 0
    assert "[ok] fleet.prefix_affinity d0d1d4658ff941b3… (4 modes)" \
        in serving_gate.out


def test_fleet_smoke_gate_covers_every_policy(serving_gate):
    for policy in ("round_robin", "least_kv"):
        assert f"[ok] fleet.{policy} " in serving_gate.out


def test_fleet_quiet_run_has_no_kills(capsys):
    assert main(["fleet", *FAST, "--no-storm", "--no-autoscale",
                 "--policy", "least_kv"]) == 0
    out = capsys.readouterr().out
    assert "kills: 0  heals: 0" in out
    assert "policy least_kv" in out


def test_fleet_replicas_override(capsys):
    assert main(["fleet", *FAST, "--replicas", "5", "--no-storm"]) == 0
    out = capsys.readouterr().out
    assert "fleet run (5 replicas" in out


def test_fleet_seed_changes_the_digest(capsys):
    assert main(["fleet", *FAST, "--no-storm", "--seed", "1"]) == 0
    first = capsys.readouterr().out
    assert main(["fleet", *FAST, "--no-storm", "--seed", "2"]) == 0
    second = capsys.readouterr().out

    def digest(text: str) -> str:
        return next(line for line in text.splitlines()
                    if "digest:" in line).split()[-1]

    assert digest(first) != digest(second)


def test_fleet_rejects_unknown_policy():
    with pytest.raises(SystemExit):
        main(["fleet", "--policy", "shrug"])
