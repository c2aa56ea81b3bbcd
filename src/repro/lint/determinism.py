"""Determinism lints (DET0xx).

The whole reproduction is gated on bit-identical replays (``repro gate``:
fingerprint baselines and every scenario of :mod:`repro.scenarios`),
which only holds if simulated results never observe the host: no wall
clocks, no unseeded RNG, no hash-order iteration.  The *wall channel* —
the span tracer's wall clock, the regression store's timestamps/overhead
probe, and the experiment's ``runtime_s`` stamp — is explicitly allowed
to read the host; everything else in ``repro`` must not.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.core import (
    Rule,
    SourceFile,
    Violation,
    dotted_name,
    import_aliases,
    per_file,
    register_rule,
    resolve_call,
)

__all__ = ["WallClockRule", "UnseededRngRule", "SetIterationRule"]

#: the wall channel: code whose *job* is to observe the host.  Everything
#: here is excluded from sim-determinism checks by design — its readings
#: feed wall-clock trace spans, baseline timestamps, the overhead probe
#: and the printed ``runtime_s``, never a table or a fingerprint.
WALL_CHANNEL = (
    "src/repro/obs/trace.py",     # wall_span reads perf_counter
    "src/repro/obs/regress.py",   # recorded_at stamps + overhead probe
    "src/repro/core/experiment.py",  # runtime_s stamping
)

#: the wall channel as dotted names under ``repro`` (for messages)
_WALL_CHANNEL_NAMES = " / ".join(
    rel.removeprefix("src/repro/").removesuffix(".py").replace("/", ".")
    for rel in WALL_CHANNEL)

_WALL_CALLS = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}

# the numpy legacy global RNG: seeded process-wide, order-dependent —
# banned outright in favour of explicit `np.random.default_rng(seed)`
_NP_LEGACY = {
    "seed", "rand", "randn", "randint", "random", "random_sample", "choice",
    "shuffle", "permutation", "normal", "uniform", "poisson", "exponential",
    "binomial", "standard_normal", "bytes", "sample", "ranf", "get_state",
    "set_state",
}

_STDLIB_RANDOM_FNS = {
    "random", "randint", "randrange", "uniform", "choice", "choices",
    "shuffle", "sample", "gauss", "normalvariate", "expovariate",
    "betavariate", "seed", "getrandbits", "triangular", "paretovariate",
}


@per_file
def _resolved_calls(sf: SourceFile) -> tuple[tuple[ast.Call, str], ...]:
    """(call node, import-resolved callee) for every call with a dotted
    target, shared by the wall and RNG source scans."""
    aliases = import_aliases(sf)
    calls = []
    for node in sf.nodes:
        if isinstance(node, ast.Call):
            name = resolve_call(node, aliases)
            if name is not None:
                calls.append((node, name))
    return tuple(calls)


def _is_rng_hit(node: ast.Call, name: str) -> bool:
    if name in ("numpy.random.default_rng", "random.Random"):
        return not node.args and not node.keywords
    if name.startswith("numpy.random."):
        return name.rsplit(".", 1)[1] in _NP_LEGACY
    if name.startswith("random."):
        return name.rsplit(".", 1)[1] in _STDLIB_RANDOM_FNS
    return False


@register_rule
class WallClockRule(Rule):
    id = "DET001"
    name = "wall-clock-read"
    severity = "error"
    description = (
        "wall-clock call outside the wall channel: simulated results must "
        "never observe host time (breaks bit-identical fingerprints)"
    )
    include = ("src/repro",)
    exclude = WALL_CHANNEL

    def check(self, sf: SourceFile) -> Iterator[Violation]:
        for node, name in _resolved_calls(sf):
            if name not in _WALL_CALLS:
                continue
            yield sf.violation(
                self, node,
                f"{name}() reads the host clock; simulated code must "
                f"use the simulated clock (wall channel is allowlisted: "
                f"{_WALL_CHANNEL_NAMES})",
            )


@register_rule
class UnseededRngRule(Rule):
    id = "DET002"
    name = "unseeded-rng"
    severity = "error"
    description = (
        "unseeded or process-global RNG: every random stream must be an "
        "explicitly seeded np.random.default_rng / random.Random"
    )
    include = ("src/repro",)

    def check(self, sf: SourceFile) -> Iterator[Violation]:
        for node, name in _resolved_calls(sf):
            if not _is_rng_hit(node, name):
                continue
            if name in ("numpy.random.default_rng", "random.Random"):
                yield sf.violation(
                    self, node,
                    f"{name}() without a seed draws entropy from the "
                    f"host; pass an explicit seed",
                )
            elif name.startswith("numpy.random."):
                yield sf.violation(
                    self, node,
                    f"{name}() uses the process-global legacy RNG; use "
                    f"an explicitly seeded np.random.default_rng(seed)",
                )
            else:
                yield sf.violation(
                    self, node,
                    f"{name}() uses the process-global stdlib RNG; use "
                    f"an explicitly seeded random.Random(seed) instance",
                )


_MATERIALIZERS = {"list", "tuple", "enumerate", "iter"}


@per_file
def _set_typed_names(sf: SourceFile) -> frozenset[str]:
    """Names assigned a set display / set() call anywhere in the file
    (coarse but effective: one namespace, no reassignment tracking)."""
    names: set[str] = set()
    for node in sf.nodes:
        if isinstance(node, ast.Assign) and _is_set_expr(node.value):
            for tgt in node.targets:
                if isinstance(tgt, ast.Name):
                    names.add(tgt.id)
        elif (isinstance(node, ast.AnnAssign)
              and isinstance(node.target, ast.Name)):
            ann = node.annotation
            base = ann.value if isinstance(ann, ast.Subscript) else ann
            if isinstance(base, ast.Name) and base.id in ("set", "frozenset"):
                names.add(node.target.id)
    return frozenset(names)


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        fname = dotted_name(node.func)
        return fname in ("set", "frozenset")
    return False


def _set_order_hits(sf: SourceFile) -> list[tuple[ast.AST, str]]:
    """(node, description) for every hash-order set iteration in the
    file."""
    set_names = _set_typed_names(sf)

    def flag(iter_node: ast.AST) -> Iterator[tuple[ast.AST, str]]:
        if _is_set_expr(iter_node):
            yield iter_node, "set iteration"
        elif (isinstance(iter_node, ast.Name)
              and iter_node.id in set_names):
            yield iter_node, f"iteration over set-typed {iter_node.id!r}"

    hits: list[tuple[ast.AST, str]] = []
    for node in sf.nodes:
        if isinstance(node, ast.For):
            hits.extend(flag(node.iter))
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            for gen in node.generators:
                hits.extend(flag(gen.iter))
        elif isinstance(node, ast.Call):
            fname = dotted_name(node.func)
            if fname in _MATERIALIZERS and node.args:
                hits.extend(flag(node.args[0]))
    return hits


@register_rule
class SetIterationRule(Rule):
    id = "DET003"
    name = "set-iteration"
    severity = "error"
    description = (
        "iteration over a set: element order depends on hash seeding and "
        "insertion history — sort first (sorted(...)) before iterating"
    )
    include = ("src/repro",)

    def check(self, sf: SourceFile) -> Iterator[Violation]:
        for node, detail in _set_order_hits(sf):
            if detail == "set iteration":
                yield sf.violation(
                    self, node,
                    "iterating a set: order is hash/insertion dependent; "
                    "wrap in sorted(...) to fix the order",
                )
            else:
                yield sf.violation(
                    self, node,
                    f"iterating set-typed name {node.id!r}: order is "
                    f"hash/insertion dependent; wrap in sorted(...)",
                )
