"""Shared fixtures for the test suite."""

from __future__ import annotations

import pathlib
from types import SimpleNamespace

import numpy as np
import pytest

from repro.models.config import AttentionConfig, ModelConfig, MoEConfig

REPO = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def repo_lint() -> SimpleNamespace:
    """One whole-repo lint analysis shared by the self-check tests:
    ``violations`` of every rule, plus the ``project`` and flow
    ``program`` they were computed over."""
    from repro.lint.core import LintProject, run_lint
    from repro.lint.flow import engine

    project = LintProject(REPO)
    violations = run_lint(REPO, project=project)
    # memoized on the project's file hashes: the program run_lint used
    program = engine.program_for(project)
    return SimpleNamespace(project=project, program=program,
                           violations=violations)


@pytest.fixture(scope="session")
def serving_gate(tmp_path_factory) -> SimpleNamespace:
    """One ``repro gate`` run over the registry's serving scenarios (chaos,
    fleet under each policy, SLO report, slo-gate report) in all four
    modes: its exit ``code`` and printed ``out``.  The BENCH scenarios
    are left to ``repro gate`` itself (37 experiments in four modes)."""
    import contextlib
    import io

    from repro.gate import gate
    from repro.scenarios import registry

    empty = tmp_path_factory.mktemp("no-baselines")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = gate(registry(empty), bench_dir=empty)
    return SimpleNamespace(code=code, out=out.getvalue())


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def tiny_moe() -> MoEConfig:
    """A small MoE block cheap enough for functional tests."""
    return MoEConfig(num_experts=8, top_k=2, expert_ffn_dim=32)


@pytest.fixture
def tiny_model(tiny_moe: MoEConfig) -> ModelConfig:
    """A 2-layer MoE model with tiny dimensions."""
    return ModelConfig(
        name="tiny-moe",
        num_layers=2,
        hidden_size=64,
        vocab_size=128,
        attention=AttentionConfig(num_heads=4, num_kv_heads=2, head_dim=16),
        dense_ffn_dim=0,
        moe=tiny_moe,
    )


@pytest.fixture
def tiny_dense_model() -> ModelConfig:
    """A tiny dense model (no MoE)."""
    return ModelConfig(
        name="tiny-dense",
        num_layers=2,
        hidden_size=32,
        vocab_size=64,
        attention=AttentionConfig(num_heads=4, num_kv_heads=4, head_dim=8),
        dense_ffn_dim=48,
    )
