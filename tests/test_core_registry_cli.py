"""Tests for the registry, report rendering, and CLI."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

from repro.core.cli import main
from repro.core.experiment import ExperimentResult
from repro.core.registry import get_experiment, list_experiments, run_experiment
from repro.core.report import render_markdown, render_summary, write_report
from repro.core.results import ResultTable


SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _fresh(code: str) -> None:
    """Run ``code`` in a fresh interpreter, where no ``repro.core``
    submodule is loaded yet."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


class TestPackageExports:
    """``repro.core`` re-exports load on first access."""

    def test_experiment_is_the_decorator_after_the_submodule_loads(self):
        _fresh("import repro.core.experiment\n"
               "from repro.core import experiment\n"
               "from repro.core.registry import experiment as decorator\n"
               "assert experiment is decorator, experiment\n")

    def test_sweep_and_advise(self):
        _fresh("import repro.core\n"
               "from repro.core.advisor import advise\n"
               "from repro.core.experiment import sweep\n"
               "assert repro.core.sweep is sweep\n"
               "assert repro.core.advise is advise\n")

    def test_every_public_name_resolves(self):
        _fresh("from repro.core import *\n"
               "import repro.core\n"
               "assert all(getattr(repro.core, n) is not None\n"
               "           for n in repro.core.__all__)\n")

    def test_cli_import_leaves_charts_and_advisor_unloaded(self):
        _fresh("import sys\n"
               "import repro.core.cli\n"
               "assert 'repro.core.charts' not in sys.modules\n"
               "assert 'repro.core.advisor' not in sys.modules\n")


class TestRegistry:
    def test_all_paper_experiments_registered(self):
        ids = list_experiments()
        expected = {"table1", "fig1", "fig3", "fig4", "fig5", "fig6", "fig7",
                    "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
                    "fig14", "fig15", "fig16", "fig17", "fig18"}
        assert expected <= set(ids)

    def test_ablations_registered(self):
        ids = set(list_experiments())
        assert {"ablation_coverage", "ablation_efficiency", "ablation_engine",
                "ablation_ep_imbalance"} <= ids

    def test_figures_sorted_numerically(self):
        ids = [i for i in list_experiments() if i.startswith("fig")]
        nums = [int(i[3:].split("_")[0]) for i in ids]
        assert nums == sorted(nums)

    def test_unknown_experiment(self):
        with pytest.raises(KeyError, match="known"):
            get_experiment("fig99")

    def test_run_experiment_stamps_runtime(self):
        res = run_experiment("table1")
        assert res.runtime_s > 0
        assert res.exp_id == "table1"


@pytest.fixture
def demo_result():
    res = ExperimentResult("demo", "Demo experiment", "the paper claims X")
    t = ResultTable("numbers", ("a", "b"))
    t.add(a=1, b=2.5)
    res.tables.append(t)
    res.observe("we measured Y")
    res.runtime_s = 0.5
    return res


class TestReports:
    def test_render_markdown(self, demo_result):
        md = render_markdown(demo_result)
        assert "## demo: Demo experiment" in md
        assert "the paper claims X" in md
        assert "we measured Y" in md
        assert "| a | b |" in md

    def test_render_summary(self, demo_result):
        s = render_summary([demo_result])
        assert s.startswith("# MoE-Inference-Bench")
        assert "- [demo](#demo)" in s

    def test_write_report(self, demo_result, tmp_path):
        path = write_report(demo_result, tmp_path)
        assert path.read_text().startswith("## demo")
        assert (tmp_path / "demo_numbers.csv").exists()


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig5" in out and "table1" in out

    def test_run_to_stdout(self, capsys):
        assert main(["run", "table1"]) == 0
        assert "architectures" in capsys.readouterr().out

    def test_run_to_dir(self, tmp_path, capsys):
        assert main(["run", "fig1", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "fig1.md").exists()

    def test_run_unknown_fails(self):
        with pytest.raises(KeyError):
            main(["run", "fig99"])


class TestChartsInReports:
    def test_charts_render_as_code_blocks(self, demo_result):
        demo_result.add_chart("line1\nline2")
        md = render_markdown(demo_result)
        assert "```\nline1\nline2\n```" in md

    def test_experiment_charts_present(self):
        res = run_experiment("fig13")
        assert len(res.charts) == 2
        assert all("tok/s" in c for c in res.charts)


class TestSummaryCommand:
    def test_summary_to_file(self, tmp_path, monkeypatch):
        import repro.core.cli as cli

        monkeypatch.setattr(cli, "list_experiments", lambda: ["table1", "fig1"])
        out = tmp_path / "report.md"
        assert main(["summary", "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("# MoE-Inference-Bench")
        assert "## table1" in text and "## fig1" in text
