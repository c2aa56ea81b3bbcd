"""One ledger pass: a fresh interpreter that runs a list of operations.

``ledger.py`` starts this file once per pass, with a JSON spec as its only
argument::

    {"root": "<checkout>", "baseline_dir": "<dir>", "ops": ["fig15", ...],
     "mode": "plain" | "trace" | "profile"}

An operation is a registered experiment id (run through
``repro.core.registry.run_experiment`` and checked against the committed
``BENCH_<id>.json`` fingerprint) or ``lint_check`` (the CI lint gate, cold,
through ``repro.core.cli.main``).  The pass prints one JSON line: the
monotonic time at which imports were done, each operation's wall time and
verdict, the peak RSS, the host probe's time after the operations, and,
in the ``trace`` and ``profile`` modes, the per-layer spans or the profile
folded by ``repro`` subpackage.

Nothing here imports ``repro`` at module level: ``setup`` is exactly the
import work a user of the listed operations pays on every ``repro run``.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import importlib
import io
import json
import resource
import sys
import time
import traceback
from collections import defaultdict

LINT_OP = "lint_check"

PROFILE_PACKAGES = ("perfmodel", "hardware", "models", "moe", "workloads",
                    "serving", "fleet", "faults", "obs", "parallel",
                    "experiments", "core", "lint", "tensor")
"""``repro`` subpackages the profile pass reports; the rest is ``other``."""


# --------------------------------------------------------------------------- #
# host calibration
# --------------------------------------------------------------------------- #


def host_calibration_s() -> float:
    """Fastest of five runs of a fixed pure-Python + NumPy probe.

    It uses nothing from ``repro`` and runs with the garbage collector off,
    so what the code under test imported or kept alive does not change its
    cost: it moves with the host only."""
    import numpy as np

    rng = np.random.default_rng(12345)
    a = rng.standard_normal((192, 192))
    logits = rng.standard_normal((4096, 64)).astype(np.float32)
    best = float("inf")
    gc.disable()
    try:
        for _ in range(5):
            start = time.perf_counter()
            acc = 0
            for i in range(150_000):
                acc += i * i % 7
            table = {i: str(i) for i in range(20_000)}
            acc += sum(len(v) for v in table.values())
            for _ in range(4):
                a = a @ a
                a /= np.abs(a).max()
            np.argpartition(-logits, 7, axis=-1)
            best = min(best, time.perf_counter() - start)
    finally:
        gc.enable()
    return best


# --------------------------------------------------------------------------- #
# per-layer spans
# --------------------------------------------------------------------------- #


def _count_routed(counters, args, kwargs, out) -> None:
    x = args[1] if len(args) > 1 else kwargs["x"]
    counters["moe.routed_tokens"] += x.size // x.shape[-1]


def _count_window(counters, args, kwargs, out) -> None:
    counters["serving.window_iterations"] += out


def _count_step(counters, args, kwargs, out) -> None:
    counters["serving.scalar_iterations"] += bool(out)


def _count_lint_files(counters, args, kwargs, out) -> None:
    project = kwargs.get("project", args[2] if len(args) > 2 else None)
    if project is not None:
        counters["lint.files"] += len(project.files)


SPAN_POINTS = (
    # (span name, defining module, function or Class.method, counter hook)
    ("moe.route_counts", "repro.moe.router", "TopKRouter.route_counts",
     _count_routed),
    ("moe.layer_forward", "repro.moe.layer", "MoELayer.__call__", None),
    ("workloads.activation_study", "repro.workloads.multimodal",
     "run_activation_study", None),
    ("perfmodel.generate", "repro.perfmodel.inference",
     "InferencePerfModel.generate", None),
    ("experiments.metrics_rows", "repro.experiments.common", "metrics_rows",
     None),
    ("serving.engine_run", "repro.serving.engine", "ServingEngine.run", None),
    ("serving.step", "repro.serving.engine", "ServingEngine.step",
     _count_step),
    ("serving.advance_window", "repro.serving.engine",
     "ServingEngine.advance_window", _count_window),
    ("fleet.run", "repro.fleet.simulator", "FleetSimulator.run", None),
    ("faults.chaos_run", "repro.faults.harness", "chaos_serving_run", None),
    ("lint.program_for", "repro.lint.flow.engine", "program_for", None),
    ("lint.run_lint", "repro.lint.core", "run_lint", _count_lint_files),
)
"""The public entry point of each layer the traced pass wraps."""


class Spans:
    """Calls and self time per wrapped entry point, plus counters.

    Self time is a span's duration minus the time of the wrapped calls
    made inside it, so nested layers are not counted twice."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self._children: list[float] = []

    def wrap(self, name, fn, count=None):
        calls, self_s, counters = self.calls, self.self_s, self.counters
        children = self._children
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                self_s[name] += duration - children.pop()
                calls[name] += 1
                if children:
                    children[-1] += duration
            if count is not None:
                count(counters, args, kwargs, out)
            return out

        return span

    def install(self) -> None:
        """Wrap every span point, rebinding each ``repro.*`` module name
        that refers to a wrapped function: patching the defining module
        alone misses ``from module import fn`` callers."""
        for name, module_name, qualname, count in SPAN_POINTS:
            module = importlib.import_module(module_name)
            owner, _, attr = qualname.rpartition(".")
            if owner:
                cls = getattr(module, owner)
                setattr(cls, attr, self.wrap(name, cls.__dict__[attr], count))
                continue
            fn = getattr(module, attr)
            wrapped = self.wrap(name, fn, count)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "repro"
                                       or mod_name.startswith("repro.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)

    def report(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counters": dict(self.counters)}


# --------------------------------------------------------------------------- #
# profile folding
# --------------------------------------------------------------------------- #


def _package_of(filename: str) -> str | None:
    """``repro`` subpackage a source file belongs to, None outside repro."""
    parts = filename.replace("\\", "/").split("/")
    if "repro" not in parts:
        return None
    idx = len(parts) - 1 - parts[::-1].index("repro")
    sub = parts[idx + 1] if idx + 1 < len(parts) - 1 else ""
    return sub if sub in PROFILE_PACKAGES else "other"


def fold_profile(stats: dict) -> dict[str, float]:
    """Share of self time per ``repro`` subpackage.

    ``stats`` is ``pstats.Stats.stats``.  Time in NumPy and builtins is
    charged to the ``repro`` code that called it, split by how much of it
    each caller accounted for (so ``argpartition`` goes to ``moe``)."""
    owners: dict[tuple, dict[str, float]] = {}

    def owner(func: tuple, visiting: set) -> dict[str, float]:
        if func in owners:
            return owners[func]
        pkg = _package_of(func[0])
        if pkg is not None:
            return {pkg: 1.0}
        entry = stats.get(func)
        callers = entry[4] if entry else {}
        total = sum(c[2] for c in callers.values())
        if func in visiting or total <= 0:
            return {"other": 1.0}
        visiting.add(func)
        split: dict[str, float] = defaultdict(float)
        for caller, c in callers.items():
            for p, w in owner(caller, visiting).items():
                split[p] += w * c[2] / total
        visiting.discard(func)
        owners[func] = dict(split)
        return owners[func]

    charged: dict[str, float] = {p: 0.0 for p in PROFILE_PACKAGES + ("other",)}
    for func, (_, _, tt, _, _) in stats.items():
        for pkg, weight in owner(func, set()).items():
            charged[pkg] += tt * weight
    total = sum(charged.values()) or 1.0
    return {pkg: t / total for pkg, t in charged.items()}


# --------------------------------------------------------------------------- #
# the pass
# --------------------------------------------------------------------------- #


def _setup(spec: dict):
    """Import what the operations need (the work ``setup_s`` times);
    returns ``run(op, profiler) -> (wall_s, error or None)``."""
    from repro.obs.regress import BaselineStore, compare_fingerprints

    root, ops = spec["root"], spec["ops"]
    store = BaselineStore(spec["baseline_dir"])
    if any(op != LINT_OP for op in ops):
        from repro.core.registry import list_experiments, run_experiment

        list_experiments()  # loads every experiment module
    if LINT_OP in ops:
        import repro.lint.cli  # noqa: F401  (what `repro lint` imports)
        from repro.core.cli import main

    def run(op: str, profiler) -> tuple[float, str | None]:
        sink = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink), \
                profiler or contextlib.nullcontext():
            if op == LINT_OP:
                out = main(["lint", "--check", "--no-cache", "--root", root])
            else:
                out = run_experiment(op)
        wall_s = time.perf_counter() - start
        if op == LINT_OP:
            return wall_s, (f"lint exited {out}: {sink.getvalue()[-400:]}"
                            if out != 0 else None)
        baseline = store.latest_fingerprint(op)
        if baseline is None:
            return wall_s, f"no committed baseline BENCH_{op}.json"
        drifts = compare_fingerprints(baseline, out.fingerprint())
        return wall_s, "; ".join(d.describe() for d in drifts[:3]) or None

    return run


def run_pass(spec: dict) -> dict:
    run = _setup(spec)
    ready = time.monotonic()
    import repro
    from repro.perfmodel import stepcache

    expected = f"{spec['root']}/src/repro/__init__.py"
    if repro.__file__ != expected:
        raise RuntimeError(f"imported repro from {repro.__file__}, "
                           f"expected {expected}")

    spans = profiler = None
    if spec["mode"] == "trace":
        spans = Spans()
        spans.install()
    elif spec["mode"] == "profile":
        import cProfile

        profiler = cProfile.Profile()
    cache = stepcache.stats()
    lookups0, hits0 = cache.hits + cache.misses, cache.hits

    records = []
    for op in spec["ops"]:
        start = time.perf_counter()
        try:
            wall_s, error = run(op, profiler)
        except Exception:  # one failing op must not hide the others
            wall_s = time.perf_counter() - start
            error = traceback.format_exc(limit=3)
        records.append({"op": op, "wall_s": wall_s, "error": error})

    result = {
        "ready": ready,
        "ops": records,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        # after the peak memory is read, so the probe's arrays do not count
        "cal_s": host_calibration_s(),
    }
    if spans is not None:
        cache = stepcache.stats()
        spans.counters["perfmodel.stepcache.lookups"] = \
            cache.hits + cache.misses - lookups0
        spans.counters["perfmodel.stepcache.hits"] = cache.hits - hits0
        result["spans"] = spans.report()
    if profiler is not None:
        import pstats

        result["profile"] = fold_profile(pstats.Stats(profiler).stats)
    return result


if __name__ == "__main__":
    print(json.dumps(run_pass(json.loads(sys.argv[1]))))
