"""Whole-program symbol table and call graph over the file summaries.

Resolution is module-level and deliberately conservative — an edge is
only added when the callee can be named statically:

* bare names → nested def of the caller, then module-level symbols,
  then import aliases;
* ``self.x`` / ``cls.x`` → methods of the enclosing class, searched
  through project-local base classes, or instance attributes whose type
  was pinned by a ``self.attr = ClassName(...)`` store;
* ``alias.x`` → the aliased module's symbols (``from repro.hardware
  import roofline; roofline.kernel_time``);
* ``var.x`` → the class a local ``var = ClassName(...)`` constructed;
* ``ClassName(...)`` → ``ClassName.__init__``.

Anything else stays unresolved (never guessed at).  Under-approximating
edges means the UNIT1xx checks can miss an exotic call but never invent
a mismatch — the right polarity for a CI gate.
"""

from __future__ import annotations

from repro.lint.flow.summary import (
    MODULE_FN,
    CallSite,
    FileSummary,
    FunctionSummary,
)

__all__ = ["Program", "ResolvedCall"]


class ResolvedCall:
    """One call edge: the syntactic site plus its resolved callee."""

    __slots__ = ("site", "callee")

    def __init__(self, site: CallSite, callee: str) -> None:
        self.site = site
        self.callee = callee  # fully-qualified function id


class Program:
    """The resolved whole-program view the analyses consume."""

    def __init__(self, files: dict[str, FileSummary]) -> None:
        self.files = files
        #: fq function id ("repro.mod.Cls.method") -> summary
        self.functions: dict[str, FunctionSummary] = {}
        #: fq function id -> repo-relative path of its file
        self.function_files: dict[str, str] = {}
        #: fq class id -> {"bases": [fq...], "attr_types": {...},
        #:                  "methods": {name: fq fn}}
        self.classes: dict[str, dict] = {}
        #: dotted module name -> FileSummary
        self.modules: dict[str, FileSummary] = {}
        #: caller fq -> resolved call edges (callee fq, site)
        self.edges: dict[str, list[ResolvedCall]] = {}
        self.stats: dict[str, int] = {}
        self._build()

    # ----------------------------------------------------------------- #
    # construction
    # ----------------------------------------------------------------- #

    def _build(self) -> None:
        for fs in self.files.values():
            self.modules[fs.module] = fs
            for fn in fs.functions:
                if fn.qualname == MODULE_FN:
                    fq = f"{fs.module}.{MODULE_FN}"
                else:
                    fq = f"{fs.module}.{fn.qualname}"
                self.functions[fq] = fn
                self.function_files[fq] = fs.rel
        for fs in self.files.values():
            for cname, info in fs.classes.items():
                fq_cls = f"{fs.module}.{cname}"
                methods = {
                    fn.qualname.split(".", 1)[1]: f"{fs.module}.{fn.qualname}"
                    for fn in fs.functions
                    if fn.class_name == cname
                    and fn.qualname.startswith(f"{cname}.")
                    and fn.qualname.count(".") == 1
                }
                self.classes[fq_cls] = {
                    "bases": [], "attr_types": {}, "methods": methods,
                }
        # second pass (all classes registered): resolve bases + attr types
        for fs in self.files.values():
            for cname, info in fs.classes.items():
                fq_cls = f"{fs.module}.{cname}"
                self.classes[fq_cls]["bases"] = [
                    b for b in (self._entity(raw, fs, None)
                                for raw in info["bases"])
                    if b is not None and b[0] == "class"]
                resolved_attrs = {}
                for attr, raw in sorted(info["attr_types"].items()):
                    ent = self._entity(raw, fs, None)
                    if ent is not None and ent[0] == "class":
                        resolved_attrs[attr] = ent[1]
                self.classes[fq_cls]["attr_types"] = resolved_attrs
        for fq, fn in sorted(self.functions.items()):
            fs = self.modules[self._module_of(fq, fn)]
            edges: list[ResolvedCall] = []
            for site in fn.calls:
                callee = self.resolve_call(site.callee, fn, fs)
                if callee is not None:
                    edges.append(ResolvedCall(site, callee))
            if edges:
                self.edges[fq] = edges
        self.stats["functions"] = len(self.functions)
        self.stats["edges"] = sum(len(e) for e in self.edges.values())

    def _module_of(self, fq: str, fn: FunctionSummary) -> str:
        suffix = f".{fn.qualname}"
        if fq.endswith(suffix):
            return fq[: -len(suffix)]
        return fq

    # ----------------------------------------------------------------- #
    # name resolution
    # ----------------------------------------------------------------- #

    def _entity(self, dotted: str, fs: FileSummary,
                caller: FunctionSummary | None) -> tuple[str, str] | None:
        """Resolve a dotted name to ("function"|"class"|"module", fq id)."""
        parts = dotted.split(".")
        head, rest = parts[0], parts[1:]
        ent = self._head_entity(head, fs, caller)
        if ent is None:
            return None
        for attr in rest:
            ent = self._attr_of(ent, attr)
            if ent is None:
                return None
        return ent

    def _head_entity(self, head: str, fs: FileSummary,
                     caller: FunctionSummary | None) -> tuple[str, str] | None:
        if caller is not None:
            if head in ("self", "cls") and caller.class_name:
                return ("class", f"{fs.module}.{caller.class_name}")
            # nested def of this very function
            nested = f"{fs.module}.{caller.qualname}.{head}"
            if nested in self.functions:
                return ("function", nested)
            if head in caller.var_types:
                ent = self._entity(caller.var_types[head], fs, None)
                if ent is not None and ent[0] == "class":
                    return ent
                return None
        local_cls = f"{fs.module}.{head}"
        if head in fs.classes:
            return ("class", local_cls)
        if local_cls in self.functions:
            return ("function", local_cls)
        target = fs.aliases.get(head)
        if target is None:
            return None
        if target in self.modules:
            return ("module", target)
        if target in self.classes:
            return ("class", target)
        if target in self.functions:
            return ("function", target)
        # alias of a module imported as "import repro.fleet" exposes the
        # package root; submodule attributes resolve through _attr_of
        if any(m == target or m.startswith(target + ".")
               for m in self.modules):
            return ("module", target)
        return None

    def _attr_of(self, ent: tuple[str, str],
                 attr: str) -> tuple[str, str] | None:
        kind, fq = ent
        if kind == "module":
            sub = f"{fq}.{attr}"
            if sub in self.classes:
                return ("class", sub)
            if sub in self.functions:
                return ("function", sub)
            if sub in self.modules or any(
                    m.startswith(sub + ".") for m in self.modules):
                return ("module", sub)
            return None
        if kind == "class":
            seen: set[str] = set()
            stack = [fq]
            while stack:
                cls = stack.pop(0)
                if cls in seen or cls not in self.classes:
                    continue
                seen.add(cls)
                info = self.classes[cls]
                if attr in info["methods"]:
                    return ("function", info["methods"][attr])
                if attr in info["attr_types"]:
                    return ("class", info["attr_types"][attr])
                stack.extend(b[1] for b in info["bases"])
            return None
        return None  # attribute of a function result: opaque

    def resolve_call(self, raw: str, caller: FunctionSummary,
                     fs: FileSummary) -> str | None:
        """Fully-qualified callee of a raw call expression, or None."""
        ent = self._entity(raw, fs, caller)
        if ent is None:
            return None
        kind, fq = ent
        if kind == "function":
            return fq
        if kind == "class":
            init = self._attr_of(ent, "__init__")
            if init is not None:
                return init[1]
        return None
