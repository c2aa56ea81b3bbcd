"""CLI tests for `repro bench` and `repro profile`, and the replay gate's
BENCH scenarios.

Uses the cheapest real experiment (fig5) so record and the gate run the
actual pipeline end to end; the roofline-perturbation test is the
acceptance check that a physics change in the perf model is caught and
attributed.
"""

from __future__ import annotations

import json
import re

import pytest

from repro.core.cli import main
from repro.gate import gate
from repro.hardware.gpus import H100_SXM
from repro.perfmodel import stepcache
from repro.scenarios import Scenario, bench

FIG = "fig5"


def _bench(*argv: str) -> int:
    return main(["bench", *argv])


def _gate(bench_dir) -> int:
    """The replay gate over FIG's BENCH scenario, against ``bench_dir``."""
    return gate([Scenario(f"bench.{FIG}", bench, (FIG,))],
                bench_dir=bench_dir)


@pytest.fixture(scope="module")
def baseline_dir(tmp_path_factory):
    """A baseline store with FIG recorded once."""
    root = tmp_path_factory.mktemp("bench")
    assert _bench("--record", "--figs", FIG, "--dir", str(root),
                  "--note", "test baseline") == 0
    return root


class TestBenchRecordCheck:
    def test_record_writes_bench_file(self, baseline_dir):
        path = baseline_dir / f"BENCH_{FIG}.json"
        assert path.exists()
        data = json.loads(path.read_text())
        assert data["exp_id"] == FIG
        record = data["records"][0]
        assert record["note"] == "test baseline"
        assert record["fingerprint"]["sim"]

    def test_check_clean_on_unchanged_tree(self, baseline_dir, capsys):
        assert _gate(baseline_dir) == 0
        assert f"[ok] bench.{FIG} " in capsys.readouterr().out

    def test_check_fails_on_perturbed_baseline(self, baseline_dir, tmp_path,
                                               capsys):
        # copy the store, nudge one recorded sim metric by 1e-6 rel
        path = tmp_path / f"BENCH_{FIG}.json"
        data = json.loads((baseline_dir / path.name).read_text())
        sim = data["records"][-1]["fingerprint"]["sim"]
        key = next(k for k, v in sim.items() if v)
        sim[key] *= 1 + 1e-6
        path.write_text(json.dumps(data))
        assert _gate(tmp_path) == 1
        out = capsys.readouterr().out
        # the first divergent row names the metric on both sides
        assert f"[FAIL] bench.{FIG}: in-process diverged from baseline" in out
        rows = [line for line in out.splitlines() if " | " in line]
        assert len(rows) == 2 and all(key in row for row in rows)
        assert f"[{FIG}] sim drift in {key}" in out

    def test_check_fails_without_baseline(self, tmp_path, capsys):
        assert _gate(tmp_path) == 1
        assert f"no BENCH_{FIG}.json baseline" in capsys.readouterr().out

    def test_no_mode_is_usage_error(self, tmp_path):
        assert _bench("--dir", str(tmp_path)) == 2

    def test_trend_reports_trajectory(self, baseline_dir, capsys):
        assert _bench("--trend", "--figs", FIG, "--dir",
                      str(baseline_dir)) == 0
        out = capsys.readouterr().out
        assert FIG in out and "sim_time_total_s" in out
        # host time is the ledger's business: no runtime column, no suite
        # wall-clock section
        assert "runtime_s" not in out and "Suite wall clock" not in out


class TestRooflinePerturbation:
    def test_hbm_bandwidth_change_is_caught_and_named(self, baseline_dir,
                                                      capsys):
        """5% more HBM bandwidth must shift fig5's simulated times and
        fail the gate, naming the drifted figure and metric."""
        old = H100_SXM.mem_bandwidth_gbps
        object.__setattr__(H100_SXM, "mem_bandwidth_gbps", old * 1.05)
        # the step cache memoizes a frozen config's surrogate per object,
        # so a config rebound in place is walked again on the way in and
        # on the way out: the patched spec gets a setup id of its own
        stepcache._FROZEN.clear()
        try:
            code = _gate(baseline_dir)
        finally:
            object.__setattr__(H100_SXM, "mem_bandwidth_gbps", old)
            stepcache._FROZEN.clear()
        assert code == 1
        out = capsys.readouterr().out
        assert f"[{FIG}]" in out
        assert "sim drift" in out
        # the spawned workers keep the stock bandwidth, so they disagree
        # with the patched in-process runs too
        assert re.search(r"worker, fast paths off, one CPU, "
                         r"PYTHONHASHSEED=\d+ diverged from in-process", out)

    def test_gate_clean_again_after_restore(self, baseline_dir):
        assert _gate(baseline_dir) == 0


class TestProfileCommand:
    def test_profile_writes_folded_stack(self, tmp_path, capsys):
        out = tmp_path / "profile.folded"
        code = main(["profile", "--requests", "2", "--input-tokens", "64",
                     "--output-tokens", "8", "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "Cost attribution" in text
        assert "speedup" in text
        folded = out.read_text()
        assert "components;decode;expert_ffn" in folded
        for line in folded.strip().splitlines():
            path, value = line.rsplit(" ", 1)
            assert float(value) >= 0
