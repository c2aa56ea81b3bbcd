"""Smoke tests: every example script imports and the cheap ones run."""

from __future__ import annotations

import importlib.util
import pathlib
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def _load(name: str):
    path = EXAMPLES / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"examples_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ALL_EXAMPLES = sorted(path.stem for path in EXAMPLES.glob("*.py"))


class TestExamples:
    @pytest.mark.parametrize("name", ALL_EXAMPLES)
    def test_imports_and_has_main(self, name):
        module = _load(name)
        assert callable(module.main)

    def test_quickstart_runs(self, capsys):
        _load("quickstart").main()
        out = capsys.readouterr().out
        assert "Mixtral-8x7B" in out
        assert "tok/s" in out

    def test_capacity_planning_runs(self, capsys, monkeypatch):
        module = _load("capacity_planning")
        monkeypatch.setattr(sys, "argv", ["capacity_planning.py", "OLMoE-1B-7B"])
        module.main()
        out = capsys.readouterr().out
        assert "highest throughput" in out

    def test_scaling_study_runs(self, capsys):
        _load("scaling_beyond_one_gpu").main()
        out = capsys.readouterr().out
        assert "EP dispatch" in out
        assert "LPT" in out
