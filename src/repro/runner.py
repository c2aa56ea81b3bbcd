"""Deterministic multiprocessing experiment runner.

``repro run --jobs N`` / ``repro bench --jobs N`` (and ``repro gate``'s
hash-seed worker) fan registered
experiments out across worker processes.  The determinism contract:

* **Merge order is fixed.**  Results are always yielded in the caller's
  input order, regardless of which worker finishes first, so anything
  derived from the stream — fingerprints, table digests, summary
  markdown, ``BENCH_<figure>.json`` trajectories — is byte-stable for
  any ``--jobs`` value.
* **Workers are hermetic.**  Each experiment function is pure given the
  process environment; the only cross-experiment state (the step cache,
  ``lru_cache``'d parameter counts) is an exact memo, so a cold worker
  computes the same floats a warm serial loop replays.  ``jobs <= 1``
  does not touch multiprocessing at all and is the exact historical
  serial loop.
* **Scheduling only affects wall time.**  Submission order is a
  longest-first heuristic fed by a static table of host-ledger runtimes
  (``_RUNTIME_SEED_S``) so the slowest figure does not become the tail
  of the pool; it cannot affect results, only speedup.

Workers inherit ``os.environ`` (fork or spawn), so escape hatches such
as ``REPRO_NO_VECTORIZE_ENGINE`` / ``REPRO_NO_STEPCACHE`` set in the environment
apply to every process in the pool.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Iterator, Sequence

from repro.core.experiment import ExperimentResult
from repro.core.registry import run_experiment

__all__ = ["default_jobs", "iter_experiments", "run_experiments"]


def default_jobs() -> int:
    """Worker-count default: ``REPRO_JOBS`` if set, else 1 (serial)."""
    env = os.environ.get("REPRO_JOBS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return 1


def _pool_context() -> multiprocessing.context.BaseContext:
    """Prefer fork (cheap, inherits the warmed import state); fall back to
    spawn where fork is unavailable."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _worker_run(exp_id: str) -> ExperimentResult:
    """Module-level so it pickles under the spawn start method."""
    return run_experiment(exp_id)


#: host runtimes (seconds) of the experiments that take more than ~0.1 s,
#: taken once from a ``hostledger/ledger.py --out`` record (its
#: ``op.<id>.wall_s`` values, scaled to the ledger's reference host).
#: Without a hint the slowest figure can land last and serialize the
#: pool; the values only need the right ordering, not precision.
_RUNTIME_SEED_S: dict[str, float] = {
    "fig15": 1.76,
    "ext_slo": 0.57,
    "ext_fleet_policy": 0.43,
    "ext_fleet_diurnal": 0.33,
    "ext_fleet_capacity": 0.27,
    "ext_placement": 0.21,
    "ext_serving_load": 0.18,
}


def _submission_order(exp_ids: Sequence[str]) -> list[str]:
    """Longest-first submission keeps the pool packed; ties (and figures
    without an entry in ``_RUNTIME_SEED_S``) keep input order.  Purely a
    wall-clock heuristic — the merge order is always the input order."""
    index = {eid: i for i, eid in enumerate(exp_ids)}
    return sorted(exp_ids, key=lambda eid: (-_RUNTIME_SEED_S.get(eid, 0.0),
                                            index[eid]))


def iter_experiments(
    exp_ids: Sequence[str],
    jobs: int = 1,
    return_exceptions: bool = False,
) -> Iterator[tuple[str, "ExperimentResult | Exception"]]:
    """Run experiments, yielding ``(exp_id, outcome)`` in input order.

    ``jobs <= 1`` runs in-process (the exact historical serial loop);
    otherwise a process pool computes results while this generator yields
    each experiment as soon as it — and everything before it — is done.
    With ``return_exceptions`` a failing experiment yields its exception
    instead of raising, so one broken figure cannot hide the rest
    (``repro run-all`` semantics).
    """
    exp_ids = list(exp_ids)
    if jobs <= 1 or len(exp_ids) <= 1:
        for exp_id in exp_ids:
            try:
                yield exp_id, run_experiment(exp_id)
            except Exception as exc:  # noqa: BLE001 - optional run-all mode
                if not return_exceptions:
                    raise
                yield exp_id, exc
        return

    ctx = _pool_context()
    with ProcessPoolExecutor(max_workers=min(jobs, len(exp_ids)),
                             mp_context=ctx) as pool:
        futures = {exp_id: pool.submit(_worker_run, exp_id)
                   for exp_id in _submission_order(exp_ids)}
        for exp_id in exp_ids:  # fixed merge order
            try:
                yield exp_id, futures[exp_id].result()
            except Exception as exc:  # noqa: BLE001 - optional run-all mode
                if not return_exceptions:
                    raise
                yield exp_id, exc


def run_experiments(
    exp_ids: Sequence[str],
    jobs: int = 1,
    return_exceptions: bool = False,
) -> list["ExperimentResult | Exception"]:
    """:func:`iter_experiments`, gathered into an input-ordered list."""
    return [outcome for _, outcome in
            iter_experiments(exp_ids, jobs=jobs,
                             return_exceptions=return_exceptions)]
