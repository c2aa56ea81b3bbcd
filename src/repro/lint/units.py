"""Unit-consistency lints (UNIT0xx) for the roofline arithmetic.

The perf model's entire output is dimensional arithmetic: FLOPs over
FLOP/s, bytes over bytes/s, microsecond overheads converted to seconds.
One dropped ``1e-6`` corrupts every figure downstream, so these rules
infer physical units from the codebase's suffix conventions (``_s``,
``_us``, ``_bytes``, ``_gb``, ``_flops``, ``_gbps``, ``_tokens``, ...)
plus explicit ``# simlint: unit=<u>`` declarations on dataclass fields,
and flag additions, subtractions, comparisons, min/max joins, returns and
assignments that mix dimensions.

Inference is deliberately conservative: multiplication clears the unit
(it is how conversions are written: ``latency_us * 1e-6``), division of
two known units produces the derived rate (``bytes / t_s`` → ``bytes/s``),
and anything unknown stays unknown — the checker under-reports rather
than cry wolf.  Scope is :mod:`repro.perfmodel` and :mod:`repro.hardware`,
where every expression is dimensioned.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.core import (
    Rule,
    SourceFile,
    Violation,
    per_file,
    register_rule,
)

__all__ = ["infer_unit", "name_unit", "UnitEnv", "unit_env",
           "MixedUnitsRule", "ReturnUnitRule", "AmbiguousNameRule"]

#: suffix → unit, longest suffix matched first.  ``_gbps`` means GB/s
#: (gigaBYTES) throughout this codebase — see HardwareSpec's docstrings.
SUFFIX_UNITS: tuple[tuple[str, str], ...] = (
    ("_tok_s", "tokens/s"),
    ("_tflops", "TFLOPS"),
    ("_flops", "flops"),
    ("_bytes", "bytes"),
    ("_gbps", "GB/s"),
    ("_tokens", "tokens"),
    ("_gb", "GB"),
    ("_mb", "MB"),
    ("_kb", "KB"),
    ("_us", "us"),
    ("_ms", "ms"),
    ("_ns", "ns"),
    ("_wh", "Wh"),
    ("_s", "s"),
    ("_w", "W"),
    ("_j", "J"),
    ("_hz", "Hz"),
    ("_time", "s"),  # *_time() cost functions return seconds
)

#: exact names whose unit the suffix grammar cannot express
FULL_NAME_UNITS: dict[str, str] = {
    "mem_bytes_per_s": "bytes/s",
    "bytes_per_s": "bytes/s",
    "peak_flops_per_s": "flops/s",
    "tokens_per_joule": "tokens/J",
    "bytes_": "bytes",   # local shadows of the builtin
    "flops": "flops",
}

#: bare names that denote a dimensioned quantity but carry no unit —
#: the UNIT003 normalization targets (e.g. `latency`: seconds? µs?)
AMBIGUOUS_NAMES = frozenset({
    "latency", "bw", "bandwidth", "elapsed", "duration", "runtime",
    "throughput", "mem", "freq",
})

#: call targets that preserve the common unit of their arguments
_JOIN_CALLS = frozenset({
    "min", "max", "sum", "abs", "round", "float",
    "maximum", "minimum",  # np.maximum / np.minimum (matched on last attr)
})

_UNIT_SCOPE = ("src/repro/perfmodel/", "src/repro/hardware/")


def name_unit(name: str, declared: dict[str, str] | None = None) -> str | None:
    """Public wrapper over the suffix grammar: the unit a bare name
    carries (``kv_bytes`` → ``bytes``), or None.  The interprocedural
    flow analysis uses this to lift units onto function signatures."""
    return _name_unit(name, declared or {})


def _name_unit(name: str, declared: dict[str, str]) -> str | None:
    if name in declared:
        return declared[name]
    if name in FULL_NAME_UNITS:
        return FULL_NAME_UNITS[name]
    if "_per_" in name:
        return None  # rates need a full-name entry to be inferred
    for suffix, unit in SUFFIX_UNITS:
        if name.endswith(suffix):
            return unit
    return None


class UnitEnv:
    """Declared units of one file: ``# simlint: unit=`` annotations bound
    to the assignment / dataclass-field line they sit on."""

    def __init__(self, sf: SourceFile) -> None:
        self.declared: dict[str, str] = {}
        if not sf.unit_decls:
            return
        for node in sf.nodes:
            line = getattr(node, "lineno", None)
            if line not in sf.unit_decls:
                continue
            unit = sf.unit_decls[line]
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                self.declared[node.target.id] = unit
            elif isinstance(node, ast.Assign):
                for tgt in node.targets:
                    if isinstance(tgt, ast.Name):
                        self.declared[tgt.id] = unit
                    elif isinstance(tgt, ast.Attribute):
                        self.declared[tgt.attr] = unit

    def lookup(self, name: str) -> str | None:
        return _name_unit(name, self.declared)


@per_file
def unit_env(sf: SourceFile) -> UnitEnv:
    """The file's :class:`UnitEnv`, built once and shared by the UNIT
    rules and the flow summarizer."""
    return UnitEnv(sf)


class _Mismatch(Exception):
    def __init__(self, node: ast.AST, left: str, right: str) -> None:
        self.node = node
        self.left = left
        self.right = right


def _join(node: ast.AST, a: str | None, b: str | None) -> str | None:
    """Common unit of two operands that must agree dimensionally."""
    if a is not None and b is not None and a != b:
        raise _Mismatch(node, a, b)
    return a if a is not None else b


def infer_unit(node: ast.AST, env: UnitEnv) -> str | None:
    """Inferred unit of an expression, or None when unknown.

    Raises :class:`_Mismatch` (internal) at the first dimension-mixing
    addition/subtraction/join encountered.
    """
    if isinstance(node, ast.Constant):
        return None
    if isinstance(node, ast.Name):
        return env.lookup(node.id)
    if isinstance(node, ast.Attribute):
        return env.lookup(node.attr)
    if isinstance(node, ast.Subscript):
        return infer_unit(node.value, env)
    if isinstance(node, ast.UnaryOp):
        return infer_unit(node.operand, env)
    if isinstance(node, ast.IfExp):
        return _join(node, infer_unit(node.body, env),
                     infer_unit(node.orelse, env))
    if isinstance(node, ast.BinOp):
        left = infer_unit(node.left, env)
        right = infer_unit(node.right, env)
        if isinstance(node.op, (ast.Add, ast.Sub)):
            return _join(node, left, right)
        if isinstance(node.op, ast.Div):
            if left is not None and right is not None and left != right:
                return f"{left}/{right}"
            return None
        return None  # Mult/Pow/FloorDiv/...: conversions clear the unit
    if isinstance(node, ast.Call):
        fname = None
        if isinstance(node.func, ast.Name):
            fname = node.func.id
        elif isinstance(node.func, ast.Attribute):
            fname = node.func.attr
        if fname in _JOIN_CALLS:
            unit: str | None = None
            for arg in node.args:
                unit = _join(node, unit, infer_unit(arg, env))
            return unit
        if fname is not None:
            return _name_unit(fname, env.declared)
        return None
    return None


@register_rule
class MixedUnitsRule(Rule):
    id = "UNIT001"
    name = "mixed-units"
    severity = "error"
    description = (
        "addition/comparison/assignment mixes physical dimensions "
        "(e.g. seconds + microseconds, bytes vs GB)"
    )
    include = _UNIT_SCOPE

    def check(self, sf: SourceFile) -> Iterator[Violation]:
        env = unit_env(sf)
        seen: set[int] = set()

        def probe(expr: ast.AST) -> str | None:
            try:
                return infer_unit(expr, env)
            except _Mismatch as mm:
                if id(mm.node) not in seen:
                    seen.add(id(mm.node))
                    return mm
                return None

        for node in sf.nodes:
            hit = None
            if isinstance(node, (ast.BinOp, ast.IfExp, ast.Call)):
                hit = probe(node)
            elif isinstance(node, ast.Compare):
                units = []
                try:
                    units.append(infer_unit(node.left, env))
                    for cmp in node.comparators:
                        units.append(infer_unit(cmp, env))
                except _Mismatch as mm:
                    hit = mm
                else:
                    known = [u for u in units if u is not None]
                    if len(set(known)) > 1:
                        a, b = sorted(set(known))[:2]
                        hit = _Mismatch(node, a, b)
                        if id(node) in seen:
                            hit = None
                        seen.add(id(node))
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                value = node.value
                if value is None:
                    continue
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                vunit = probe(value)
                if isinstance(vunit, _Mismatch):
                    hit = vunit
                elif vunit is not None:
                    for tgt in targets:
                        tname = None
                        if isinstance(tgt, ast.Name):
                            tname = tgt.id
                        elif isinstance(tgt, ast.Attribute):
                            tname = tgt.attr
                        if tname is None:
                            continue
                        tunit = env.lookup(tname)
                        if tunit is not None and tunit != vunit:
                            hit = _Mismatch(node, tunit, vunit)
                            break
            if isinstance(hit, _Mismatch):
                yield sf.violation(
                    self, hit.node if hasattr(hit.node, "lineno") else node,
                    f"mixing units {hit.left!r} and {hit.right!r} — insert "
                    f"the conversion (or fix the operand's suffix)",
                )


@register_rule
class ReturnUnitRule(Rule):
    id = "UNIT002"
    name = "return-unit-mismatch"
    severity = "error"
    description = (
        "function whose name carries a unit suffix returns a value "
        "inferred to have a different unit"
    )
    include = _UNIT_SCOPE

    def check(self, sf: SourceFile) -> Iterator[Violation]:
        env = unit_env(sf)
        for node in sf.nodes:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            declared = _name_unit(node.name, env.declared)
            if declared is None:
                continue
            for ret in ast.walk(node):
                if not isinstance(ret, ast.Return) or ret.value is None:
                    continue
                try:
                    actual = infer_unit(ret.value, env)
                except _Mismatch:
                    continue  # UNIT001 owns mixing inside the expression
                if actual is not None and actual != declared:
                    yield sf.violation(
                        self, ret,
                        f"{node.name}() is named in {declared!r} but returns "
                        f"a value in {actual!r}",
                    )


@register_rule
class AmbiguousNameRule(Rule):
    id = "UNIT003"
    name = "ambiguous-unit-name"
    severity = "warning"
    description = (
        "bare name for a dimensioned quantity (latency? in s or us?) — "
        "rename with a unit suffix so the checker can see it"
    )
    include = _UNIT_SCOPE

    def check(self, sf: SourceFile) -> Iterator[Violation]:
        for node in sf.nodes:
            if isinstance(node, ast.Assign):
                for tgt in node.targets:
                    if isinstance(tgt, ast.Name) and tgt.id in AMBIGUOUS_NAMES:
                        yield self._flag(sf, tgt, tgt.id)
            elif isinstance(node, ast.AnnAssign):
                if (isinstance(node.target, ast.Name)
                        and node.target.id in AMBIGUOUS_NAMES):
                    yield self._flag(sf, node.target, node.target.id)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                for arg in (args.posonlyargs + args.args + args.kwonlyargs):
                    if arg.arg in AMBIGUOUS_NAMES:
                        yield self._flag(sf, arg, arg.arg)

    def _flag(self, sf: SourceFile, node: ast.AST, name: str) -> Violation:
        return sf.violation(
            self, node,
            f"{name!r} is dimensioned but carries no unit suffix; rename "
            f"(e.g. {name}_s / {name}_us / {name}_gbps) so UNIT001 can "
            f"check its arithmetic",
        )
