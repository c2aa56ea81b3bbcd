"""Interprocedural determinism taint (DET1xx).

The local DET001-003 rules flag a wall-clock read, unseeded RNG, or
set-order iteration *where it happens*.  They are blind to laundering: a
helper in another module can read the host clock and hand the value up a
call chain into a digest without any single function looking wrong.
These rules close that hole over the call graph:

* **sources** — the same three nondeterminism patterns DET001-003
  detect, found per-function by the summarizer;
* **roots** — digest-bearing entry points whose transitive callees feed
  bit-identical artifacts: every ``@experiment``-registered function
  (its tables are fingerprinted), the serving engine and its event log
  (chaos/fleet digests replay them), the fleet simulator and digest
  helpers, chaos replay itself, and every replay-gate scenario in
  :mod:`repro.scenarios`;
* **sanitizers** — the declared wall-channel modules (``obs.trace``,
  ``obs.regress``, ``core.experiment``): their wall readings never reach
  a table or a fingerprint, so taint neither originates in nor
  propagates through them.

A function is tainted when it contains a source or calls a tainted
function; a tainted root is a violation, reported at the source line
with the full root→source call chain so the laundering path is visible.
Suppressions on the source line (for the DET1xx id or its local DET00x
twin) are honored — an accepted local exception stays accepted
interprocedurally.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator

from repro.lint.core import LintProject, ProjectRule, Violation, register_rule
from repro.lint.determinism import WALL_CHANNEL
from repro.lint.flow.engine import program_for
from repro.lint.flow.graph import Program
from repro.lint.flow.summary import module_name_for

__all__ = ["TaintReport", "TaintFinding", "taint_report", "DIGEST_ROOTS",
           "SANITIZER_MODULES", "WallTaintRule", "RngTaintRule",
           "SetOrderTaintRule"]

#: wall-channel modules: sources inside them are by-design, and taint
#: does not propagate through calls into them
SANITIZER_MODULES: tuple[str, ...] = tuple(
    sorted(module_name_for(rel) for rel in WALL_CHANNEL))

#: fq-prefixes of digest-bearing entry points (trailing dot = namespace)
DIGEST_ROOTS: tuple[str, ...] = (
    "repro.obs.fingerprint.",
    "repro.serving.events.EventLog.",
    "repro.serving.engine.ServingEngine.",
    "repro.fleet.simulator.FleetSimulator.",
    "repro.fleet.invariants.",
    "repro.faults.harness.",
    "repro.scenarios.",
)

#: taint kind -> (flow rule id, local twin whose suppressions carry over)
KIND_RULES = {
    "wall": ("DET101", "DET001"),
    "rng": ("DET102", "DET002"),
    "set-order": ("DET103", "DET003"),
}


@dataclasses.dataclass(frozen=True)
class TaintFinding:
    rule: str
    kind: str
    chain: tuple[str, ...]  # root fq ... source fq
    source_path: str
    source_line: int
    source_end_line: int
    detail: str
    extra_roots: int  # other digest roots reaching the same source


@dataclasses.dataclass
class TaintReport:
    roots: list[str]
    #: kind -> tainted fq -> next hop toward the source (None at source)
    tainted: dict[str, dict[str, str | None]]
    findings: list[TaintFinding]


def _is_sanitized(fq: str) -> bool:
    return any(fq == m or fq.startswith(m + ".") for m in SANITIZER_MODULES)


def _is_root(fq: str, program: Program) -> bool:
    if any(fq.startswith(p) for p in DIGEST_ROOTS):
        return True
    fn = program.functions[fq]
    return any(d == "experiment" or d.endswith(".experiment")
               for d in fn.decorators)


def taint_report(program: Program,
                 project: LintProject) -> TaintReport:
    """Run (or reuse) the taint pass for ``program``."""
    cached = getattr(program, "_taint_report", None)
    if cached is not None:
        return cached

    callers = program.callers_of()
    roots = sorted(fq for fq in program.functions if _is_root(fq, program))

    tainted_by_kind: dict[str, dict[str, str | None]] = {}
    findings: list[TaintFinding] = []

    for kind, (rule_id, local_id) in sorted(KIND_RULES.items()):
        # 1. own-source functions (sanitizers and suppressed hits out)
        own: dict[str, object] = {}
        for fq in sorted(program.functions):
            if _is_sanitized(fq):
                continue
            fn = program.functions[fq]
            rel = program.function_files[fq]
            sf = project.file(rel)
            hits = []
            for hit in fn.sources:
                if hit.kind != kind:
                    continue
                if sf is not None and (
                        sf.suppressed(rule_id, hit.line, hit.end_line)
                        or sf.suppressed(local_id, hit.line, hit.end_line)):
                    continue
                hits.append(hit)
            if hits:
                own[fq] = min(hits, key=lambda h: (h.line, h.detail))

        # 2. multi-source BFS over the reverse call graph
        next_hop: dict[str, str | None] = {fq: None for fq in sorted(own)}
        frontier = sorted(own)
        while frontier:
            nxt: list[str] = []
            for callee in frontier:
                for caller, _site in callers.get(callee, []):
                    if caller in next_hop or _is_sanitized(caller):
                        continue
                    next_hop[caller] = callee
                    nxt.append(caller)
            frontier = sorted(set(nxt))
        tainted_by_kind[kind] = next_hop

        # 3. tainted digest roots -> findings, one per source function
        by_source: dict[str, list[str]] = {}
        for root in roots:
            if root in next_hop:
                cur: str | None = root
                while next_hop.get(cur) is not None:
                    cur = next_hop[cur]
                by_source.setdefault(cur, []).append(root)
        for source_fq in sorted(by_source):
            reached = by_source[source_fq]
            root = min(reached, key=lambda r: (_chain_len(r, next_hop), r))
            chain = _chain(root, next_hop)
            hit = own[source_fq]
            findings.append(TaintFinding(
                rule=rule_id, kind=kind, chain=chain,
                source_path=program.function_files[source_fq],
                source_line=hit.line, source_end_line=hit.end_line,
                detail=hit.detail, extra_roots=len(reached) - 1))

    report = TaintReport(roots=roots, tainted=tainted_by_kind,
                         findings=sorted(
                             findings,
                             key=lambda f: (f.rule, f.source_path,
                                            f.source_line, f.chain)))
    program._taint_report = report
    return report


def _chain(root: str, next_hop: dict[str, str | None]) -> tuple[str, ...]:
    chain = [root]
    while next_hop.get(chain[-1]) is not None:
        chain.append(next_hop[chain[-1]])
    return tuple(chain)


def _chain_len(root: str, next_hop: dict[str, str | None]) -> int:
    return len(_chain(root, next_hop))


_KIND_WHAT = {
    "wall": "a wall-clock read",
    "rng": "unseeded/process-global RNG",
    "set-order": "hash-order set iteration",
}


class _TaintRule(ProjectRule):
    kind = ""

    def check_project(self, project: LintProject) -> Iterator[Violation]:
        program = program_for(project)
        report = taint_report(program, project)
        for f in report.findings:
            if f.rule != self.id:
                continue
            chain = " -> ".join(f.chain)
            extra = (f" (+{f.extra_roots} more digest root(s))"
                     if f.extra_roots else "")
            sf = project.file(f.source_path)
            yield Violation(
                rule=self.id, severity=self.severity, path=f.source_path,
                line=f.source_line, col=0, end_line=f.source_end_line,
                snippet=sf.snippet(f.source_line) if sf else f.detail,
                message=(
                    f"{_KIND_WHAT[self.kind]} ({f.detail}) reaches the "
                    f"digest-bearing path {f.chain[0]}: call chain "
                    f"{chain}{extra} — results fed to fingerprints/digests "
                    f"must be deterministic; thread a simulated clock or "
                    f"seeded RNG through the chain, or move the read into "
                    f"the wall channel"))


@register_rule
class WallTaintRule(_TaintRule):
    id = "DET101"
    name = "wall-clock-taint"
    kind = "wall"
    severity = "error"
    description = (
        "a wall-clock read (possibly laundered through helper calls in "
        "other modules) is reachable from a digest-bearing entry point — "
        "the full source→sink call chain is reported"
    )


@register_rule
class RngTaintRule(_TaintRule):
    id = "DET102"
    name = "rng-taint"
    kind = "rng"
    severity = "error"
    description = (
        "unseeded or process-global RNG is reachable from a digest-"
        "bearing entry point through the call graph"
    )


@register_rule
class SetOrderTaintRule(_TaintRule):
    id = "DET103"
    name = "set-order-taint"
    kind = "set-order"
    severity = "error"
    description = (
        "hash-order set iteration is reachable from a digest-bearing "
        "entry point through the call graph"
    )
