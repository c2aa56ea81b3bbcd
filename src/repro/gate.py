"""``repro gate``: every registered scenario, replayed in every mode.

Each scenario of :func:`repro.scenarios.registry` runs four ways, and
every mode must produce the rows of the first:

1. in-process;
2. in-process again, with every cache warm;
3. in a spawned worker under another ``PYTHONHASHSEED``, the experiments
   through the 2-job pool runner (set-order leaks, pool-merge drift);
4. in a spawned worker with every fast path off (:data:`FAST_PATHS_OFF`),
   pinned to one CPU so the router's serial path is gated too, under a
   third ``PYTHONHASHSEED``.

The two workers' hash seeds are fixed, differ from each other and from
the caller's, so a set-order leak cannot pass because a random seed
happened to match a worker's.

A ``bench.<id>`` scenario must also match its committed baseline under
:func:`repro.obs.regress.compare_fingerprints`.  On a mismatch the gate
prints the scenario, the mode and the first divergent row on both sides,
floats also as ``float.hex``; a BENCH drift adds the drift report with
its first-suspect module.  The disabled-instrumentation overhead check
runs once, before the workers start, so their load cannot reach it.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
import re
import subprocess
import sys
from typing import Sequence

from repro.scenarios import Outcome, Scenario, bench, fingerprint_outcome, \
    fingerprint_rows, registry

__all__ = ["FAST_PATHS_OFF", "replay", "first_divergence", "gate"]

FAST_PATHS_OFF = {"REPRO_NO_VECTORIZE_ENGINE": "1", "REPRO_NO_STEPCACHE": "1"}

_FLOAT = re.compile(r"(?<![\w.])-?\d+\.\d+(?:[eE][-+]?\d+)?(?![\w.])")
"""A decimal float literal (JSON or repr), never part of a hex float."""


def replay(scenarios: Sequence[Scenario],
           jobs: int = 1) -> dict[str, Outcome | str]:
    """Each scenario's outcome, or the error it raised as a string; with
    ``jobs > 1`` the ``bench`` scenarios run through the pool runner."""
    outcomes: dict[str, Outcome | str] = {}
    pooled = [s for s in scenarios if s.fn is bench and jobs > 1]
    if pooled:
        from repro.runner import iter_experiments

        for s, (_, result) in zip(pooled, iter_experiments(
                [s.args[0] for s in pooled], jobs, return_exceptions=True)):
            outcomes[s.name] = fingerprint_outcome(result.fingerprint()) \
                if not isinstance(result, Exception) else _error(result)
    for s in scenarios:
        if s.name not in outcomes:
            try:
                outcomes[s.name] = s.fn(*s.args)
            except Exception as exc:  # noqa: BLE001 - reported per scenario
                outcomes[s.name] = _error(exc)
    return {s.name: outcomes[s.name] for s in scenarios}


def _error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _spawn(scenarios: Sequence[Scenario], env: dict[str, str], jobs: int,
           one_cpu: bool) -> subprocess.Popen:
    path = os.pathsep.join(p for p in sys.path if p)
    proc = subprocess.Popen(
        [sys.executable, "-c", "from repro.gate import _worker; _worker()"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": path, **env})
    proc.stdin.write(pickle.dumps((list(scenarios), jobs, one_cpu)))
    proc.stdin.close()
    return proc


def _worker() -> None:
    """A spawned worker: scenarios in on stdin, outcomes pickled out on
    stdout.  Every other write to fd 1, native code's and child
    processes' included, goes to stderr."""
    scenarios, jobs, one_cpu = pickle.load(sys.stdin.buffer)
    if one_cpu and hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with os.fdopen(os.dup(1), "wb") as out:
        os.dup2(2, 1)
        pickle.dump(replay(scenarios, jobs), out)


def _collect(proc: subprocess.Popen,
             scenarios: Sequence[Scenario]) -> dict[str, Outcome | str]:
    out = proc.stdout.read()
    if proc.wait() != 0 or not out:
        return {s.name: f"worker exited with code {proc.returncode}"
                for s in scenarios}
    return pickle.loads(out)


def first_divergence(a: Sequence[str], b: Sequence[str]) -> int:
    """Index of the first row where ``a`` and ``b`` differ (the shorter
    length when one is a prefix of the other)."""
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y),
                min(len(a), len(b)))


def _show(rows: Sequence[str], i: int) -> str:
    if i >= len(rows):
        return "<no row>"
    row = rows[i].rstrip("\n")
    floats = [float(x).hex() for x in _FLOAT.findall(row)]
    return row + (f"  [{', '.join(floats)}]" if floats else "")


def _divergence(name: str, ref_mode: str, ref: Sequence[str], mode: str,
                rows: Sequence[str]) -> str:
    i = first_divergence(ref, rows)
    width = max(len(ref_mode), len(mode))
    return (f"[FAIL] {name}: {mode} diverged from {ref_mode} at row {i} "
            f"(rows: {len(ref)} vs {len(rows)})\n"
            f"  {ref_mode:<{width}} | {_show(ref, i)}\n"
            f"  {mode:<{width}} | {_show(rows, i)}")


def _bench_drift(s: Scenario, mode: str, rows: list[str], store,
                 bench_dir) -> str | None:
    """One mode's fingerprint against the committed baseline: the first
    divergent row and the drift report, or None when it matches."""
    from repro.obs.fingerprint import Fingerprint
    from repro.obs.regress import compare_fingerprints, first_suspect, \
        render_drift_report

    exp_id = s.args[0]
    baseline = store.latest_fingerprint(exp_id)
    if baseline is None:
        return (f"[FAIL] {s.name}: no BENCH_{exp_id}.json baseline — run "
                "`repro bench --record` first")
    drifts = compare_fingerprints(
        baseline, Fingerprint.from_dict(json.loads("".join(rows))))
    if not drifts:
        return None
    suspect = first_suspect(store.latest_sha(exp_id), bench_dir)
    return "\n".join([
        _divergence(s.name, "baseline", fingerprint_rows(baseline), mode,
                    rows),
        render_drift_report([dataclasses.replace(d, suspect=suspect)
                             for d in drifts])])


def _check(s: Scenario, runs: dict[str, dict[str, Outcome | str]], store,
           bench_dir) -> bool:
    """Print the scenario's verdict; True when every mode agrees (and a
    BENCH scenario matches its baseline)."""
    problems: list[str | None] = []
    errors: dict[str, list[str]] = {}  # error -> modes that raised it
    seen: dict[str, str] = {}  # digest -> first mode that produced it
    ref = None
    for mode, outcomes in runs.items():
        if isinstance(outcomes[s.name], str):
            errors.setdefault(outcomes[s.name], []).append(mode)
            continue
        digest, rows = outcomes[s.name]
        if ref is None:
            ref = (mode, digest, rows)
        elif digest in seen and digest != ref[1]:
            problems.append(f"[FAIL] {s.name}: {mode} diverged from "
                            f"{ref[0]} as {seen[digest]} did")
        elif digest not in seen:
            problems.append(_divergence(s.name, ref[0], ref[2], mode, rows))
        if s.fn is bench and digest not in seen:
            problems.append(_bench_drift(s, mode, rows, store, bench_dir))
        seen.setdefault(digest, mode)
    problems = [f"[FAIL] {s.name} ("
                f"{'every mode' if len(m) == len(runs) else '; '.join(m)}"
                f"): {error}" for error, m in errors.items()] \
        + [p for p in problems if p]
    print("\n".join(problems) if problems
          else f"[ok] {s.name} {ref[1][:16]}… ({len(runs)} modes)")
    return not problems


def gate(scenarios: Sequence[Scenario] | None = None,
         bench_dir: str | os.PathLike = ".") -> int:
    """Replay ``scenarios`` (default: the whole registry) in every mode:
    0 when all agree and match their baselines, else 1 (2 when a fast
    path is already switched off, so no mode would run it)."""
    from repro.obs.regress import BaselineStore, measure_disabled_overhead

    off = [k for k in FAST_PATHS_OFF if os.environ.get(k, "") not in ("", "0")]
    if off:
        print(f"[FAIL] {', '.join(off)} set: the gate switches the fast "
              "paths off itself, in its last mode only; unset it first")
        return 2
    scenarios = registry(bench_dir) if scenarios is None else list(scenarios)
    report = measure_disabled_overhead()
    print(report.describe())
    failed = not report.within()
    if failed:
        print("[FAIL] disabled-instrumentation overhead exceeds the 2% band")
    seed, off_seed = [s for s in ("1", "2", "3")
                      if s != os.environ.get("PYTHONHASHSEED")][:2]
    workers = [
        (f"worker, PYTHONHASHSEED={seed}, pool of 2",
         _spawn(scenarios, {"PYTHONHASHSEED": seed}, 2, False)),
        (f"worker, fast paths off, one CPU, PYTHONHASHSEED={off_seed}",
         _spawn(scenarios, {**FAST_PATHS_OFF, "PYTHONHASHSEED": off_seed},
                1, True)),
    ]
    try:
        runs = {"in-process": replay(scenarios),
                "in-process, warm": replay(scenarios)}
        for mode, proc in workers:
            runs[mode] = _collect(proc, scenarios)
    finally:  # every worker has exited (or been killed) before we return
        for _, proc in workers:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
    store = BaselineStore(bench_dir)
    bad = sum(not _check(s, runs, store, bench_dir) for s in scenarios)
    print(f"gate: {len(scenarios) - bad}/{len(scenarios)} scenarios agree "
          f"in {len(runs)} modes")
    return 1 if bad or failed else 0
