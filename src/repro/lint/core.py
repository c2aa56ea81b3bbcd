"""simlint core: source model, rule registry, suppressions, and the runner.

``repro.lint`` proves the simulator's review-time invariants statically:
determinism (no wall clocks or unseeded RNG outside the wall channel),
dimensional consistency of the roofline arithmetic, and
experiment-registry drift.  Rules are AST-based and
run over the committed source only — no experiment needs to execute.

Vocabulary
----------
* a :class:`Rule` inspects one :class:`SourceFile` (or, for
  :class:`ProjectRule`, the whole :class:`LintProject`) and yields
  :class:`Violation` objects;
* ``# simlint: disable=<id>[,<id>...]`` on a line suppresses those rules
  for that line; ``# simlint: disable-file=<id>`` anywhere suppresses the
  rule for the whole file;
* ``# simlint: unit=<unit>`` declares the physical unit of the name bound
  on that line (used by the UNIT rules for bare-named dataclass fields);
* the committed baseline (``LINT_BASELINE.json``) lets ``--check`` gate
  *new* violations while grandfathering recorded ones.
"""

from __future__ import annotations

import ast
import dataclasses
import functools
import hashlib
import pathlib
import re
from typing import Callable, Iterable, Iterator, TypeVar

__all__ = [
    "Severity",
    "Violation",
    "SourceFile",
    "LintProject",
    "Rule",
    "ProjectRule",
    "SuppressionTracker",
    "register_rule",
    "all_rules",
    "get_rule",
    "run_lint",
    "lint_source",
    "per_file",
]

# ordered weakest → strongest so max() picks the gate-relevant severity
Severity = str
SEVERITIES = ("notice", "warning", "error")

_SUPPRESS_RE = re.compile(r"#\s*simlint:\s*disable=([A-Za-z0-9_,\s]+)")
_SUPPRESS_FILE_RE = re.compile(r"#\s*simlint:\s*disable-file=([A-Za-z0-9_,\s]+)")
_UNIT_DECL_RE = re.compile(r"#\s*simlint:\s*unit=([A-Za-z/._-]+)")


@dataclasses.dataclass(frozen=True)
class Violation:
    """One finding, anchored to a source location.

    ``end_line`` is the last line of the offending node's span (0 when
    unknown): suppression directives anywhere in ``line..end_line`` apply,
    so a ``# simlint: disable=`` comment on the closing line of a wrapped
    call is honored.
    """

    rule: str
    severity: Severity
    path: str  # repo-relative posix path
    line: int
    col: int
    message: str
    snippet: str = ""
    end_line: int = 0

    def key(self) -> str:
        """Baseline identity: stable across moves of the offending line.

        Line numbers churn with unrelated edits, so the baseline matches on
        the rule, the file, and a digest of the offending source line.
        """
        text = f"{self.rule}|{self.path}|{self.snippet.strip()}"
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def format(self) -> str:
        return (f"{self.path}:{self.line}:{self.col}: {self.rule} "
                f"[{self.severity}] {self.message}")


class SourceFile:
    """One parsed python source file plus its simlint comment directives.

    The module tree is walked once (:attr:`nodes`); facts derived from
    it (import aliases, resolved calls, declared units) are computed
    once per file through :func:`per_file` and shared by every rule and
    the flow summarizer.
    """

    def __init__(self, path: pathlib.Path, rel: str, text: str) -> None:
        self.path = path
        self.rel = rel
        self.text = text
        self.lines = text.splitlines()
        self.tree = ast.parse(text, filename=rel)
        #: extractor -> its result for this file (see :func:`per_file`)
        self.facts: dict[Callable, object] = {}
        # line (1-based) -> set of rule ids disabled on that line
        self.line_suppressions: dict[int, set[str]] = {}
        self.file_suppressions: set[str] = set()
        # rule id -> line of its first disable-file directive (SUP001)
        self.file_suppression_lines: dict[str, int] = {}
        # line (1-based) -> declared unit for the name bound on that line
        self.unit_decls: dict[int, str] = {}
        for i, line in enumerate(self.lines, start=1):
            m = _SUPPRESS_RE.search(line)
            if m:
                self.line_suppressions[i] = {
                    r.strip() for r in m.group(1).split(",") if r.strip()
                }
            m = _SUPPRESS_FILE_RE.search(line)
            if m:
                for r in m.group(1).split(","):
                    r = r.strip()
                    if r:
                        self.file_suppressions.add(r)
                        self.file_suppression_lines.setdefault(r, i)
            m = _UNIT_DECL_RE.search(line)
            if m:
                self.unit_decls[i] = m.group(1)

    @functools.cached_property
    def nodes(self) -> list[ast.AST]:
        """Every node of the module tree in ``ast.walk`` order.  Rules
        iterate this instead of walking ``tree`` again."""
        return list(ast.walk(self.tree))

    def suppressed(self, rule: str, line: int, end_line: int = 0) -> bool:
        """True when ``rule`` is disabled anywhere in ``line..end_line``
        (a multi-line statement honors a directive on any of its lines)."""
        if rule in self.file_suppressions:
            return True
        for i in range(line, max(line, end_line) + 1):
            if rule in self.line_suppressions.get(i, set()):
                return True
        return False

    def snippet(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1]
        return ""

    def violation(self, rule: "Rule", node: ast.AST | int, message: str,
                  col: int = 0) -> Violation:
        line = node if isinstance(node, int) else getattr(node, "lineno", 1)
        col = col if isinstance(node, int) else getattr(node, "col_offset", 0)
        end = 0 if isinstance(node, int) else \
            (getattr(node, "end_lineno", None) or 0)
        return Violation(rule=rule.id, severity=rule.severity, path=self.rel,
                         line=line, col=col, message=message,
                         snippet=self.snippet(line), end_line=end)


class LintProject:
    """The lintable universe: parsed sources plus repo-root artifacts.

    ``root`` is the repository root (where ``BENCH_*.json``,
    ``EXPERIMENTS.md`` and the lint baseline live);
    sources are collected from ``root/src/repro`` by default.
    """

    def __init__(self, root: pathlib.Path,
                 source_dirs: Iterable[str] = ("src/repro",)) -> None:
        self.root = pathlib.Path(root)
        self.files: list[SourceFile] = []
        self.errors: list[Violation] = []
        self._by_rel: dict[str, SourceFile] = {}
        self.facts: dict[Callable, object] = {}
        """Whole-project facts computed once and shared by every project
        rule that asks, keyed by the function computing them (see
        ``registry.registered_experiment_ids``); callers must not mutate
        them."""
        for sub in source_dirs:
            base = self.root / sub
            if not base.is_dir():
                continue
            for path in sorted(base.rglob("*.py")):
                rel = path.relative_to(self.root).as_posix()
                try:
                    sf = SourceFile(path, rel, path.read_text())
                except (SyntaxError, UnicodeDecodeError) as exc:
                    self.errors.append(Violation(
                        rule="LINT000", severity="error", path=rel,
                        line=getattr(exc, "lineno", 1) or 1, col=0,
                        message=f"could not parse: {exc}"))
                    continue
                self.files.append(sf)
                self._by_rel[rel] = sf

    def file(self, rel: str) -> SourceFile | None:
        return self._by_rel.get(rel)


class SuppressionTracker:
    """Records which ``# simlint: disable`` directives actually silenced a
    violation during a run — the evidence SUP001 (stale suppression) needs
    to flag the ones that no longer do."""

    def __init__(self) -> None:
        # rel path -> list of (rule, line, end_line) suppressed spans
        self._used: dict[str, list[tuple[str, int, int]]] = {}

    def mark(self, rel: str, rule: str, line: int, end_line: int = 0) -> None:
        self._used.setdefault(rel, []).append(
            (rule, line, max(line, end_line)))

    def line_used(self, rel: str, rule: str, directive_line: int) -> bool:
        """True when a suppressed violation of ``rule`` spans the line the
        directive sits on."""
        return any(r == rule and a <= directive_line <= b
                   for r, a, b in self._used.get(rel, []))

    def file_used(self, rel: str, rule: str) -> bool:
        return any(r == rule for r, _, _ in self._used.get(rel, []))


class Rule:
    """One static check.  Subclasses set the class attributes and override
    :meth:`check` (per-file) — or subclass :class:`ProjectRule` for checks
    that need the whole project."""

    id: str = ""
    name: str = ""
    severity: Severity = "error"
    description: str = ""
    #: path prefixes (repo-relative, posix) this rule runs on; empty = all
    include: tuple[str, ...] = ()
    #: path prefixes exempt from this rule (e.g. the wall channel)
    exclude: tuple[str, ...] = ()
    #: rules that must observe every other rule's suppression usage run
    #: after the main pass via :meth:`run_post` (see SUP001)
    runs_last: bool = False

    def applies_to(self, sf: SourceFile) -> bool:
        if self.include and not any(sf.rel.startswith(p) for p in self.include):
            return False
        return not any(sf.rel.startswith(p) for p in self.exclude)

    def check(self, sf: SourceFile) -> Iterator[Violation]:
        raise NotImplementedError

    def run(self, project: LintProject,
            tracker: SuppressionTracker | None = None) -> Iterator[Violation]:
        for sf in project.files:
            if self.applies_to(sf):
                for v in self.check(sf):
                    if sf.suppressed(v.rule, v.line, v.end_line):
                        if tracker is not None:
                            tracker.mark(sf.rel, v.rule, v.line, v.end_line)
                    else:
                        yield v

    def run_post(self, project: LintProject, tracker: SuppressionTracker,
                 ran_rules: list["Rule"]) -> Iterator[Violation]:
        """Hook for ``runs_last`` rules; default: nothing."""
        return iter(())


class ProjectRule(Rule):
    """A rule over the whole project (cross-file / repo-artifact checks)."""

    def check_project(self, project: LintProject) -> Iterator[Violation]:
        raise NotImplementedError

    def run(self, project: LintProject,
            tracker: SuppressionTracker | None = None) -> Iterator[Violation]:
        for v in self.check_project(project):
            sf = project.file(v.path)
            if sf is not None and sf.suppressed(v.rule, v.line, v.end_line):
                if tracker is not None:
                    tracker.mark(sf.rel, v.rule, v.line, v.end_line)
            else:
                yield v


_RULES: dict[str, Rule] = {}


def register_rule(cls: type) -> type:
    """Class decorator adding a rule to the global registry."""
    rule = cls()
    if not rule.id:
        raise ValueError(f"{cls.__name__} has no id")
    if rule.id in _RULES:
        raise ValueError(f"rule {rule.id} registered twice")
    if rule.severity not in SEVERITIES:
        raise ValueError(f"rule {rule.id}: bad severity {rule.severity!r}")
    _RULES[rule.id] = rule
    return cls


def _ensure_loaded() -> None:
    # rule modules self-register on import, exactly like the experiments
    from repro.lint import (  # noqa: F401
        determinism,
        obs,
        registry,
        suppressions,
        units,
    )
    from repro.lint.flow import unitflow  # noqa: F401


def all_rules() -> list[Rule]:
    _ensure_loaded()
    return [_RULES[k] for k in sorted(_RULES)]


def get_rule(rule_id: str) -> Rule:
    _ensure_loaded()
    try:
        return _RULES[rule_id]
    except KeyError:
        known = ", ".join(sorted(_RULES))
        raise KeyError(f"unknown rule {rule_id!r}; known: {known}") from None


def select_rules(spec: str | None) -> list[Rule]:
    """Rules matching a comma-separated spec of ids or id prefixes
    (``DET``, ``UNIT001,PAR``...); ``None`` selects everything."""
    rules = all_rules()
    if not spec:
        return rules
    wanted = [s.strip() for s in spec.split(",") if s.strip()]
    chosen = [r for r in rules if any(r.id == w or r.id.startswith(w)
                                      for w in wanted)]
    unknown = [w for w in wanted
               if not any(r.id == w or r.id.startswith(w) for r in rules)]
    if unknown:
        raise KeyError(f"unknown rule selector(s): {', '.join(unknown)}")
    return chosen


def run_lint(root: pathlib.Path | str, rules: Iterable[Rule] | None = None,
             project: LintProject | None = None) -> list[Violation]:
    """Run ``rules`` (default: all) over the project at ``root``; returns
    violations sorted deterministically (path, line, col, rule).

    Rules with ``runs_last`` (stale-suppression detection) run after the
    main pass, fed the suppression-usage evidence it produced.
    """
    if project is None:
        project = LintProject(pathlib.Path(root))
    if rules is None:
        rules = all_rules()
    rules = list(rules)
    main = [r for r in rules if not r.runs_last]
    post = [r for r in rules if r.runs_last]
    tracker = SuppressionTracker()
    out: list[Violation] = list(project.errors)
    for rule in main:
        out.extend(rule.run(project, tracker))
    for rule in post:
        out.extend(rule.run_post(project, tracker, main))
    out.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return out


def lint_source(text: str, rule: Rule, rel: str = "src/repro/fixture.py",
                root: pathlib.Path | str = ".") -> list[Violation]:
    """Run one per-file rule over an in-memory snippet (test helper)."""
    sf = SourceFile(pathlib.Path(rel), rel, text)
    if not rule.applies_to(sf):
        return []
    return sorted((v for v in rule.check(sf)
                   if not sf.suppressed(v.rule, v.line, v.end_line)),
                  key=lambda v: (v.line, v.col, v.rule))


T = TypeVar("T")


def per_file(
        extractor: Callable[[SourceFile], T]) -> Callable[[SourceFile], T]:
    """Make ``extractor(sf)`` a fact of the file: computed on first use,
    then the same object is returned to every rule that asks.  Results
    are shared, so callers must not mutate them."""

    @functools.wraps(extractor)
    def shared(sf: SourceFile) -> T:
        try:
            return sf.facts[extractor]
        except KeyError:
            value = sf.facts[extractor] = extractor(sf)
            return value

    return shared


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None (shared helper)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


@per_file
def import_aliases(sf: SourceFile) -> dict[str, str]:
    """Map local alias -> canonical dotted module/object name.

    ``import numpy as np`` → ``{"np": "numpy"}``; ``from datetime import
    datetime as _dt`` → ``{"_dt": "datetime.datetime"}``.
    """
    aliases: dict[str, str] = {}
    for node in sf.nodes:
        if isinstance(node, ast.Import):
            for a in node.names:
                aliases[a.asname or a.name.split(".")[0]] = (
                    a.name if a.asname else a.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and node.module:
            for a in node.names:
                aliases[a.asname or a.name] = f"{node.module}.{a.name}"
    return aliases


def resolve_call(node: ast.Call, aliases: dict[str, str]) -> str | None:
    """Canonical dotted name of a call target, import-aliases applied."""
    name = dotted_name(node.func)
    if name is None:
        return None
    head, _, rest = name.partition(".")
    canonical = aliases.get(head, head)
    return f"{canonical}.{rest}" if rest else canonical
