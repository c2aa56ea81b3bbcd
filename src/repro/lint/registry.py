"""Registry-drift lints (REG0xx).

The experiment registry is mirrored in three places that nothing ties
together at runtime: the ``BENCH_<id>.json`` fingerprint baselines the
regression gate replays, the ``EXPERIMENTS.md`` paper-vs-measured tables,
and the CLI surface documented in :mod:`repro.core.cli`.  A registered
experiment with no baseline silently escapes the drift gate; a stale
baseline gates an experiment that no longer exists; an undocumented row
or subcommand is invisible to reviewers.  These rules parse the
``@experiment("id")`` decorators statically (no experiment executes) and
cross-check all four surfaces.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.lint.core import LintProject, ProjectRule, Violation, register_rule

__all__ = ["registered_experiment_ids", "bench_baseline_ids",
           "BaselineCoverageRule", "StaleBaselineRule",
           "ExperimentsDocRule", "CliDocRule", "FamilyDocRule"]

_EXPERIMENTS_DIR = "src/repro/experiments/"
_CLI_PATH = "src/repro/core/cli.py"

#: experiment families with a dedicated design doc: every registered id
#: with the prefix must be mentioned in the doc, so the doc cannot
#: silently fall behind the registry (REG005)
FAMILY_DOCS: dict[str, str] = {
    "ext_fleet": "docs/fleet.md",
}


def registered_experiment_ids(project: LintProject) -> dict[str, tuple[str, int]]:
    """id → (path, line) of every ``@experiment("id")`` decorator.

    Scanned once per project (REG001, REG002, REG003 and REG005 all ask)
    and shared: callers must not mutate the result."""
    ids = project.facts.get(registered_experiment_ids)
    if ids is not None:
        return ids
    ids = {}
    for sf in project.files:
        if not sf.rel.startswith(_EXPERIMENTS_DIR):
            continue
        for node in sf.nodes:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for dec in node.decorator_list:
                if (isinstance(dec, ast.Call)
                        and isinstance(dec.func, ast.Name)
                        and dec.func.id == "experiment"
                        and dec.args
                        and isinstance(dec.args[0], ast.Constant)
                        and isinstance(dec.args[0].value, str)):
                    ids[dec.args[0].value] = (sf.rel, dec.lineno)
    project.facts[registered_experiment_ids] = ids
    return ids


def bench_baseline_ids(project: LintProject) -> dict[str, str]:
    """id → filename of every ``BENCH_<id>.json`` at the repo root."""
    out: dict[str, str] = {}
    for path in sorted(project.root.glob("BENCH_*.json")):
        out[path.name[len("BENCH_"):-len(".json")]] = path.name
    return out


@register_rule
class BaselineCoverageRule(ProjectRule):
    id = "REG001"
    name = "experiment-without-baseline"
    severity = "error"
    description = (
        "registered experiment has no BENCH_<id>.json fingerprint "
        "baseline — it escapes the drift gate"
    )

    def check_project(self, project: LintProject) -> Iterator[Violation]:
        baselines = bench_baseline_ids(project)
        for exp_id, (path, line) in sorted(registered_experiment_ids(project).items()):
            if exp_id not in baselines:
                sf = project.file(path)
                yield Violation(
                    rule=self.id, severity=self.severity, path=path,
                    line=line, col=0,
                    snippet=sf.snippet(line) if sf else exp_id,
                    message=(f"experiment {exp_id!r} has no BENCH_{exp_id}"
                             f".json baseline; record one with `repro bench "
                             f"--record --figs {exp_id}`"))


@register_rule
class StaleBaselineRule(ProjectRule):
    id = "REG002"
    name = "baseline-without-experiment"
    severity = "error"
    description = (
        "BENCH_<id>.json baseline matches no registered experiment — "
        "stale file or renamed experiment"
    )

    def check_project(self, project: LintProject) -> Iterator[Violation]:
        registered = registered_experiment_ids(project)
        for bid, fname in sorted(bench_baseline_ids(project).items()):
            if bid not in registered:
                yield Violation(
                    rule=self.id, severity=self.severity, path=fname,
                    line=1, col=0, snippet=bid,
                    message=(f"{fname} matches no registered experiment; "
                             f"delete it or restore the experiment"))


@register_rule
class ExperimentsDocRule(ProjectRule):
    id = "REG003"
    name = "experiment-undocumented"
    severity = "error"
    description = (
        "registered experiment has no row in EXPERIMENTS.md — every "
        "figure must state its paper-vs-measured verdict"
    )

    def check_project(self, project: LintProject) -> Iterator[Violation]:
        doc = project.root / "EXPERIMENTS.md"
        if not doc.is_file():
            yield Violation(
                rule=self.id, severity=self.severity, path="EXPERIMENTS.md",
                line=1, col=0, snippet="",
                message="EXPERIMENTS.md missing from the repo root")
            return
        text = doc.read_text()
        for exp_id, (path, line) in sorted(registered_experiment_ids(project).items()):
            if not re.search(rf"\b{re.escape(exp_id)}\b", text):
                sf = project.file(path)
                yield Violation(
                    rule=self.id, severity=self.severity, path=path,
                    line=line, col=0,
                    snippet=sf.snippet(line) if sf else exp_id,
                    message=(f"experiment {exp_id!r} is not mentioned in "
                             f"EXPERIMENTS.md — add its paper-vs-measured "
                             f"row"))


@register_rule
class FamilyDocRule(ProjectRule):
    id = "REG005"
    name = "experiment-family-doc-drift"
    severity = "error"
    description = (
        "experiment family has a dedicated doc (FAMILY_DOCS) that does "
        "not mention every registered id with the family prefix"
    )

    def check_project(self, project: LintProject) -> Iterator[Violation]:
        registered = registered_experiment_ids(project)
        for prefix, doc_rel in sorted(FAMILY_DOCS.items()):
            family = {eid: loc for eid, loc in registered.items()
                      if eid.startswith(prefix)}
            if not family:
                continue
            doc = project.root / doc_rel
            if not doc.is_file():
                yield Violation(
                    rule=self.id, severity=self.severity, path=doc_rel,
                    line=1, col=0, snippet="",
                    message=(f"{doc_rel} missing but the {prefix}* family "
                             f"has {len(family)} registered experiment(s)"))
                continue
            text = doc.read_text()
            for exp_id, (path, line) in sorted(family.items()):
                if not re.search(rf"\b{re.escape(exp_id)}\b", text):
                    sf = project.file(path)
                    yield Violation(
                        rule=self.id, severity=self.severity, path=path,
                        line=line, col=0,
                        snippet=sf.snippet(line) if sf else exp_id,
                        message=(f"experiment {exp_id!r} is not mentioned "
                                 f"in {doc_rel} — document it with the "
                                 f"rest of its family"))


@register_rule
class CliDocRule(ProjectRule):
    id = "REG004"
    name = "cli-subcommand-undocumented"
    severity = "error"
    description = (
        "CLI subcommand registered in build_parser() is missing from the "
        "module docstring's usage block"
    )

    def check_project(self, project: LintProject) -> Iterator[Violation]:
        sf = project.file(_CLI_PATH)
        if sf is None:
            return
        docstring = ast.get_docstring(sf.tree) or ""
        for node in sf.nodes:
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "add_parser"
                    and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)):
                name = node.args[0].value
                if not re.search(rf"\brepro {re.escape(name)}\b", docstring):
                    yield Violation(
                        rule=self.id, severity=self.severity,
                        path=_CLI_PATH, line=node.lineno, col=node.col_offset,
                        snippet=sf.snippet(node.lineno),
                        message=(f"subcommand {name!r} is not documented in "
                                 f"the repro.core.cli module docstring "
                                 f"(add a `repro {name} ...` usage line)"))
