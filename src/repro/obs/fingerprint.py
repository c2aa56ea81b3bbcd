"""Experiment fingerprints: deterministic digests of what a figure produced.

A fingerprint condenses one :class:`~repro.core.experiment.ExperimentResult`
into two layers, ordered from coarse to exact:

* **sim metrics** — named numeric values derived from simulated time /
  counts (per-table column sums, means, and a simulated-time total).
  These are deterministic for a fixed tree, so the regression gate holds
  them to exact (float-tolerance) equality.
* **table digests** — SHA-256 of each result table's canonical CSV, the
  row-level "did anything at all change" check.

Only simulated outputs reach a fingerprint: the experiment's host
runtime does not (host cost is measured by ``hostledger/ledger.py``).

Fingerprints serialise to plain JSON and are stored as trajectories in
``BENCH_<figure>.json`` by :class:`repro.obs.regress.BaselineStore`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.experiment import ExperimentResult
    from repro.core.results import ResultTable

__all__ = ["Fingerprint", "fingerprint_result", "SCHEMA_VERSION"]

SCHEMA_VERSION = 1

_SIM_TIME_SUFFIXES = ("_s", "_ms", "_us", "time")
"""Column-name suffixes treated as simulated-time for the time total."""

_NOT_TIME_FRAGMENTS = ("tok_s", "per_s", "tok_ms", "req_s")
"""Rate columns whose names end in a time suffix but are not durations."""

def _numeric_cells(table: "ResultTable", column: str) -> list[float]:
    return [
        float(v) for v in table.column(column)
        if isinstance(v, (int, float)) and not isinstance(v, bool)
    ]


@dataclass
class Fingerprint:
    """Deterministic condensation of one experiment's output."""

    exp_id: str
    schema: int = SCHEMA_VERSION
    sim: dict[str, float] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    structure: dict[str, Any] = field(default_factory=dict)
    """Per-table shape: ``{table: {"rows": n, "columns": [...]}}``."""

    def to_dict(self) -> dict[str, Any]:
        return {
            "exp_id": self.exp_id,
            "schema": self.schema,
            "sim": dict(sorted(self.sim.items())),
            "digests": dict(sorted(self.digests.items())),
            "structure": self.structure,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Fingerprint":
        return cls(
            exp_id=data["exp_id"],
            schema=int(data.get("schema", SCHEMA_VERSION)),
            sim={k: float(v) for k, v in data.get("sim", {}).items()},
            digests=dict(data.get("digests", {})),
            structure=dict(data.get("structure", {})),
        )


def _table_digest(table: "ResultTable") -> str:
    """SHA-256 of the table's canonical CSV."""
    lines = [",".join(table.columns)]
    for row in table.rows:
        lines.append(",".join("" if row[c] is None else repr(row[c])
                              for c in table.columns))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def fingerprint_result(result: "ExperimentResult") -> Fingerprint:
    """Fingerprint one experiment result.

    Sim metrics are keyed ``"<table>.<column>:sum"`` / ``":mean"`` plus a
    cross-table ``sim_time_total_s``.
    """
    fp = Fingerprint(exp_id=result.exp_id)
    sim_time_total = 0.0
    for table in result.tables:
        fp.digests[table.name] = _table_digest(table)
        fp.structure[table.name] = {
            "rows": len(table),
            "columns": list(table.columns),
        }
        for col in table.columns:
            cells = _numeric_cells(table, col)
            if not cells:
                continue
            key = f"{table.name}.{col}"
            total = float(sum(cells))
            fp.sim[f"{key}:sum"] = total
            fp.sim[f"{key}:mean"] = total / len(cells)
            lowered = col.lower()
            if lowered.endswith(_SIM_TIME_SUFFIXES) and not any(
                    frag in lowered for frag in _NOT_TIME_FRAGMENTS):
                scale = 1e-3 if lowered.endswith("_ms") else (
                    1e-6 if lowered.endswith("_us") else 1.0)
                sim_time_total += total * scale
    fp.sim["sim_time_total_s"] = sim_time_total
    return fp
