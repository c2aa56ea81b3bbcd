"""Per-file extraction for the flow analyses.

One :class:`FileSummary` per source file holds everything the
interprocedural unit checks need — functions with their call sites,
unit facts and receiver-type hints — in plain JSON-serializable form, so
summaries round-trip through the SHA-keyed incremental cache
(:mod:`repro.lint.flow.cache`) and a warm run never re-extracts an
unchanged file.  Extraction reads the file's shared node list and
per-file facts (:func:`~repro.lint.core.per_file`).

Attribution is span-based: every call / return found in the tree
belongs to the innermost enclosing function (by line span), and
module-level code is attributed to the pseudo-function ``<module>``.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Any, Iterator

from repro.lint.core import SourceFile, dotted_name, import_aliases
from repro.lint.units import UnitEnv, infer_unit, name_unit, unit_env

__all__ = ["CallSite", "UnitMix", "ReturnCall",
           "FunctionSummary", "FileSummary", "module_name_for",
           "summarize_source", "SUMMARY_VERSION"]

SUMMARY_VERSION = 2

MODULE_FN = "<module>"


def module_name_for(rel: str) -> str:
    """Dotted module name of a repo-relative source path:
    ``src/repro/serving/engine.py`` → ``repro.serving.engine``."""
    parts = rel.split("/")
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _asdict_list(items) -> list:
    return [dataclasses.asdict(i) for i in items]


@dataclasses.dataclass
class CallSite:
    """One syntactic call: the raw dotted callee expression plus the
    locally inferable units of its arguments."""

    callee: str  # raw dotted expr: "self._plan", "kernel_time", "np.log"
    line: int
    end_line: int
    arg_units: list = dataclasses.field(default_factory=list)    # [idx, unit]
    kwarg_units: list = dataclasses.field(default_factory=list)  # [name, unit]


@dataclasses.dataclass
class UnitMix:
    """A call result combined (+, -, comparison) with a value of known
    unit while the call itself has no locally inferable unit — the
    callee's interprocedural return unit decides whether this mixes."""

    callee: str
    other_unit: str
    line: int
    end_line: int


@dataclasses.dataclass
class ReturnCall:
    """``return f(...)`` where the call has no locally inferable unit —
    the function's return unit flows from ``f``'s."""

    callee: str
    line: int
    end_line: int


@dataclasses.dataclass
class FunctionSummary:
    qualname: str            # dotted within the module: "Cls.method"
    line: int = 0
    end_line: int = 0
    params: list = dataclasses.field(default_factory=list)
    param_units: dict = dataclasses.field(default_factory=dict)
    name_unit: str | None = None
    return_units: list = dataclasses.field(default_factory=list)
    return_calls: list = dataclasses.field(default_factory=list)
    calls: list = dataclasses.field(default_factory=list)
    mixes: list = dataclasses.field(default_factory=list)
    class_name: str | None = None
    var_types: dict = dataclasses.field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        d = dataclasses.asdict(self)
        d["calls"] = _asdict_list(self.calls)
        d["mixes"] = _asdict_list(self.mixes)
        d["return_calls"] = _asdict_list(self.return_calls)
        return d

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "FunctionSummary":
        d = dict(d)
        d["calls"] = [CallSite(**c) for c in d.get("calls", [])]
        d["mixes"] = [UnitMix(**m) for m in d.get("mixes", [])]
        d["return_calls"] = [ReturnCall(**r) for r in d.get("return_calls", [])]
        return cls(**d)


@dataclasses.dataclass
class FileSummary:
    rel: str
    module: str
    sha: str
    aliases: dict = dataclasses.field(default_factory=dict)
    functions: list = dataclasses.field(default_factory=list)
    # class name -> {"bases": [raw names], "attr_types": {attr: raw name}}
    classes: dict = dataclasses.field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "version": SUMMARY_VERSION,
            "rel": self.rel,
            "module": self.module,
            "sha": self.sha,
            "aliases": self.aliases,
            "functions": [f.to_dict() for f in self.functions],
            "classes": self.classes,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "FileSummary":
        return cls(
            rel=d["rel"], module=d["module"], sha=d["sha"],
            aliases=dict(d.get("aliases", {})),
            functions=[FunctionSummary.from_dict(f)
                       for f in d.get("functions", [])],
            classes={k: dict(v) for k, v in d.get("classes", {}).items()},
        )


# --------------------------------------------------------------------- #
# extraction
# --------------------------------------------------------------------- #


def _iter_defs(tree: ast.Module) -> Iterator[tuple[str, str | None,
                                                   ast.FunctionDef]]:
    """(qualname, class name or None, def node) for every function."""

    def visit(node: ast.AST, prefix: str, cls: str | None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield f"{prefix}{child.name}", cls, child
                yield from visit(child, f"{prefix}{child.name}.", cls)
            elif isinstance(child, ast.ClassDef):
                yield from visit(child, f"{prefix}{child.name}.", child.name)

    yield from visit(tree, "", None)


class _SpanIndex:
    """Innermost enclosing function for a line, by def spans."""

    def __init__(self, defs: list[tuple[str, ast.FunctionDef]]) -> None:
        # sorted by start line so the last containing span is innermost
        self._spans = sorted(
            ((fn.lineno, fn.end_lineno or fn.lineno, qual)
             for qual, fn in defs), key=lambda s: s[0])

    def owner(self, line: int) -> str:
        best = MODULE_FN
        for start, end, qual in self._spans:
            if start > line:
                break
            if start <= line <= end:
                best = qual
        return best


def _probe_unit(expr: ast.AST, env: UnitEnv) -> str | None:
    try:
        return infer_unit(expr, env)
    except Exception:
        return None  # a local mismatch is UNIT001's beat, not ours


def _param_names(fn: ast.FunctionDef, is_method: bool) -> list[str]:
    a = fn.args
    names = [arg.arg for arg in (a.posonlyargs + a.args)]
    if is_method and names and names[0] in ("self", "cls"):
        names = names[1:]
    return names + [arg.arg for arg in a.kwonlyargs]


def summarize_source(sf: SourceFile, sha: str) -> FileSummary:
    """Extract the flow facts of one parsed source file."""
    env = unit_env(sf)
    defs = list(_iter_defs(sf.tree))
    span = _SpanIndex([(q, fn) for q, _, fn in defs])

    out = FileSummary(rel=sf.rel, module=module_name_for(sf.rel), sha=sha,
                      aliases=dict(import_aliases(sf)))
    by_qual: dict[str, FunctionSummary] = {}

    module_fn = FunctionSummary(qualname=MODULE_FN)
    by_qual[MODULE_FN] = module_fn

    for qual, cls, fn in defs:
        is_method = cls is not None and qual.startswith(f"{cls}.")
        fs = FunctionSummary(
            qualname=qual, line=fn.lineno, end_line=fn.end_lineno or fn.lineno,
            class_name=cls if is_method else None,
            name_unit=name_unit(fn.name, env.declared))
        fs.params = _param_names(fn, is_method)
        fs.param_units = {p: u for p in fs.params
                          if (u := name_unit(p, env.declared)) is not None}
        by_qual[qual] = fs
        # a nested def is conservatively assumed callable by its owner
        outer = span.owner(fn.lineno - 1) if fn.lineno > 1 else MODULE_FN
        if "." in qual and outer != qual and qual.startswith(outer + "."):
            by_qual[outer].calls.append(CallSite(
                callee=qual.rsplit(".", 1)[1], line=fn.lineno,
                end_line=fn.end_lineno or fn.lineno))

    def owner_of(node: ast.AST) -> FunctionSummary:
        return by_qual.get(span.owner(node.lineno), module_fn)

    # classes: bases + instance-attr types (self.x = ClassName(...))
    for node in sf.nodes:
        if not isinstance(node, ast.ClassDef):
            continue
        bases = [b for b in (dotted_name(base) for base in node.bases)
                 if b is not None]
        out.classes[node.name] = {"bases": bases, "attr_types": {}}
    for node in sf.nodes:
        if not isinstance(node, ast.Assign) or not isinstance(
                node.value, ast.Call):
            continue
        callee = dotted_name(node.value.func)
        if callee is None:
            continue
        owner = owner_of(node)
        for tgt in node.targets:
            if (isinstance(tgt, ast.Attribute)
                    and isinstance(tgt.value, ast.Name)
                    and tgt.value.id == "self" and owner.class_name
                    and owner.class_name in out.classes):
                out.classes[owner.class_name]["attr_types"].setdefault(
                    tgt.attr, callee)
            elif isinstance(tgt, ast.Name) and \
                    callee.rsplit(".", 1)[-1][:1].isupper():
                # CamelCase callee: a constructor — remember the receiver
                owner.var_types.setdefault(tgt.id, callee)

    # call sites with argument units
    for node in sf.nodes:
        if not isinstance(node, ast.Call):
            continue
        raw = dotted_name(node.func)
        if raw is None:
            continue
        site = CallSite(callee=raw, line=node.lineno,
                        end_line=node.end_lineno or node.lineno)
        for idx, arg in enumerate(node.args):
            if isinstance(arg, ast.Starred):
                break  # *args shifts positions: stop positional matching
            unit = _probe_unit(arg, env)
            if unit is not None:
                site.arg_units.append([idx, unit])
        for kw in node.keywords:
            if kw.arg is None:
                continue
            unit = _probe_unit(kw.value, env)
            if unit is not None:
                site.kwarg_units.append([kw.arg, unit])
        owner_of(node).calls.append(site)

    # returns: local units, plus bare calls whose unit must flow in
    for node in sf.nodes:
        if not isinstance(node, ast.Return) or node.value is None:
            continue
        owner = owner_of(node)
        unit = _probe_unit(node.value, env)
        if unit is not None:
            if unit not in owner.return_units:
                owner.return_units.append(unit)
        elif isinstance(node.value, ast.Call):
            raw = dotted_name(node.value.func)
            if raw is not None:
                owner.return_calls.append(ReturnCall(
                    callee=raw, line=node.lineno,
                    end_line=node.end_lineno or node.lineno))

    # unit mixes: call result +/-/compared with a known-united operand
    def record_mix(call: ast.AST, other: ast.AST, anchor: ast.AST) -> None:
        if not isinstance(call, ast.Call):
            return
        raw = dotted_name(call.func)
        if raw is None or _probe_unit(call, env) is not None:
            return
        unit = _probe_unit(other, env)
        if unit is not None:
            owner_of(anchor).mixes.append(UnitMix(
                callee=raw, other_unit=unit, line=anchor.lineno,
                end_line=anchor.end_lineno or anchor.lineno))

    for node in sf.nodes:
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.Add, ast.Sub)):
            record_mix(node.left, node.right, node)
            record_mix(node.right, node.left, node)
        elif isinstance(node, ast.Compare):
            operands = [node.left] + list(node.comparators)
            for i, a in enumerate(operands):
                for b in operands[:i] + operands[i + 1:]:
                    record_mix(a, b, node)

    out.functions = [by_qual[q] for q in sorted(by_qual)
                     if q != MODULE_FN or by_qual[q].calls]
    for fs in out.functions:
        fs.return_units.sort()
    return out
