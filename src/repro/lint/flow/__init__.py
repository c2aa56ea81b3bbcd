"""repro.lint.flow — whole-program interprocedural unit analysis.

Where the per-file rule families pattern-match inside one function, this
package builds a project-wide **symbol table** and **call graph** over
``src/repro`` (resolving ``self.method``, imported names, instance-attr
and local-variable receiver types) and runs the **UNIT1xx** checks on it
(:mod:`repro.lint.flow.unitflow`): the suffix unit lattice of
``repro.lint.units`` lifted to function signatures and returns, so units
are checked at call boundaries (argument vs parameter suffix, returned
unit vs use-site arithmetic) instead of going silent at the first call.
A unit mix-up that is wrong but deterministic replays bit-identically,
so ``repro gate`` cannot see it; this engine is what does.

Per-file summaries are cached on each file's SHA-256
(:mod:`repro.lint.flow.cache`), so a warm re-lint skips extraction for
unchanged files.
"""

from repro.lint.flow.engine import program_for
from repro.lint.flow.graph import Program

__all__ = ["Program", "program_for"]
