"""Flow-engine front door: build (or reuse) the whole-program view.

``program_for(project)`` is what the UNIT1xx rules call: it
hashes every source file, loads unchanged summaries from the on-disk
cache, extracts the rest, and assembles the
:class:`~repro.lint.flow.graph.Program`.  Programs are memoized
in-process on ``(root, file-hash vector)`` so the three UNIT1xx rules —
and repeated ``run_lint`` calls in one process — share one build.

Cache policy: enabled by default, disabled by ``configure(cache=False)``
(the CLI's ``--no-cache``) or the ``REPRO_LINT_NO_CACHE`` environment
variable.  Disabling the cache never changes results — only speed — and
cache hits/misses are recorded in ``program.stats`` so tests and the CI
log can prove a warm run was actually warm.
"""

from __future__ import annotations

import hashlib
import os
import pathlib

from repro.lint.core import LintProject
from repro.lint.flow.cache import FlowCache
from repro.lint.flow.graph import Program
from repro.lint.flow.summary import FileSummary, summarize_source

__all__ = ["configure", "program_for", "file_sha"]

_CONFIG = {"cache": True, "cache_path": None}

#: in-process memo: (resolved root, hash vector) -> Program
_MEMO: dict[tuple, Program] = {}
_MEMO_LIMIT = 8


def configure(cache: bool = True,
              cache_path: pathlib.Path | str | None = None) -> None:
    """Set cache behavior for subsequent :func:`program_for` calls."""
    _CONFIG["cache"] = cache
    _CONFIG["cache_path"] = (
        pathlib.Path(cache_path) if cache_path is not None else None)


def _cache_enabled() -> bool:
    if os.environ.get("REPRO_LINT_NO_CACHE"):
        return False
    return bool(_CONFIG["cache"])


def file_sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def program_for(project: LintProject) -> Program:
    """The resolved whole-program view of ``project`` (memoized)."""
    shas = {sf.rel: file_sha(sf.text) for sf in project.files}
    key = (str(pathlib.Path(project.root).resolve()),
           tuple(sorted(shas.items())))
    cached = _MEMO.get(key)
    if cached is not None:
        return cached

    disk = None
    if _cache_enabled():
        disk = FlowCache(project.root, path=_CONFIG["cache_path"])
    summaries: dict[str, FileSummary] = {}
    hits = misses = 0
    for sf in project.files:
        summary = disk.get(sf.rel, shas[sf.rel]) if disk is not None else None
        if summary is not None:
            hits += 1
        else:
            summary = summarize_source(sf, shas[sf.rel])
            misses += 1
        summaries[sf.rel] = summary
    if disk is not None and misses:
        disk.store(summaries)

    program = Program(summaries)
    program.stats["cache_hits"] = hits
    program.stats["cache_misses"] = misses
    if len(_MEMO) >= _MEMO_LIMIT:
        _MEMO.clear()
    _MEMO[key] = program
    return program
