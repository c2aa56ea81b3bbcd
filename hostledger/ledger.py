"""Host-cost ledger: what the reproduction itself costs to run, end to end
and per layer, on five workloads that separate the layers.

Run one workload (the benchmark command)::

    python3 hostledger/ledger.py --workload router --seed 0 --seconds 24 --trace 0

A run is one driver process running passes one after another (a closed
loop with a single client) until ``--seconds`` is spent.  Each pass is a
fresh ``python`` subprocess (``worker.py``) that imports the package, runs
the workload's operations one at a time and checks every experiment's
output against its committed ``BENCH_<id>.json`` fingerprint, so caches
start cold exactly as they do for a user's ``repro run``.  Passes run with
one BLAS/OpenMP thread.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` adds one traced pass and reports the per-layer metrics;
``--profile`` runs one cProfile pass and reports host time per ``repro``
subpackage.  The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--out F`` also writes the full ledger record (host calibration, git sha,
per-pass and per-operation wall times) to ``F``.  Compare two sets of
records against the bounds in ``BENCHMARK.json``::

    python3 hostledger/ledger.py compare A1.json A2.json ... -- B1.json ...

See ``hostledger/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import random
import statistics
import subprocess
import sys
import time

from worker import LINT_OP, SPAN_POINTS

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = ROOT / "BENCHMARK.json"
# on a 2-vCPU host BLAS spin threads doubled CPU time on `router` and
# widened its run-to-run spread, so every pass runs single-threaded
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
CAL_REF_S = 0.0155
"""Calibration probe time on the host the bounds were set on (2-vCPU Xeon
at 2.0 GHz).  Times are reported at that host's speed: a shared virtual
machine drifts by 20 % and more over minutes, and scaling by the probe
measured at the end of every pass removes most of that drift."""

WORKLOADS: dict[str, tuple[str, ...]] = {
    # TopKRouter.route_counts dominates; perfmodel/serving barely run
    "router": ("fig15", "ext_placement", "ext_offload", "ext_capacity"),
    # analytical sweeps through InferencePerfModel; no router, little engine
    "sweep": ("table1", "fig1", "fig3", "fig4", "fig5", "fig6", "fig7",
              "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
              "fig16", "fig17", "fig18", "ablation_coverage",
              "ablation_efficiency", "ablation_engine",
              "ablation_ep_imbalance", "ext_a100", "ext_kv_quant",
              "ext_multinode", "ext_spec_batch"),
    # serving engine on its decode-window fast path, fleet routing, faults
    "serve": ("ext_serving_load", "ext_fleet_capacity", "ext_fleet_policy",
              "ext_fleet_diurnal", "ext_prefix_cache", "ext_resilience"),
    # the same engine with Instrumentation attached: never takes a window
    "observed": ("ext_slo", "ext_utilization"),
    # the CI lint gate, cold (the only workload that runs repro.lint)
    "lint": (LINT_OP,),
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

SPANS = [name for name, *_ in SPAN_POINTS]
PER_LAYER_UNITS = {
    **{f"{span}.{field}": unit for span in SPANS
       for field, unit in (("calls", "count"), ("self_s", "s"))},
    "moe.routed_tokens": "count",
    "moe.route_tokens_per_s": "1/s",
    "perfmodel.stepcache.lookups": "count",
    "perfmodel.stepcache.hit_rate": "ratio",
    "serving.window_iterations": "count",
    "serving.iterations": "count",
    "serving.window_fraction": "ratio",
    "serving.us_per_iteration": "us",
    "lint.files": "count",
    "trace.overhead_ratio": "ratio",
}


def pass_order(ops: list[str], seed: int, index: int) -> list[str]:
    """Operation order of pass ``index``: the listed order for seed 0, else
    a shuffle of its own per pass, so the passes of one run cover several
    orders and the run's fastest pass and peak memory depend less on one
    draw."""
    ops = list(ops)
    if seed:
        random.Random(f"{seed}:{index}").shuffle(ops)
    return ops


def git_sha() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


# --------------------------------------------------------------------------- #
# passes
# --------------------------------------------------------------------------- #


def run_pass(ops: list[str], mode: str, baseline_dir: pathlib.Path) -> dict:
    """One fresh-interpreter pass: the worker's record plus ``setup_s`` and
    ``wall_s`` (the sum of operation times), both unscaled."""
    spec = {"root": str(ROOT), "baseline_dir": str(baseline_dir),
            "ops": ops, "mode": mode}
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **THREAD_ENV)
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        error = f"pass exited {proc.returncode}"
        return {"ok": False, "setup_s": 0.0, "wall_s": 0.0, "maxrss_kb": 0,
                "ops": [{"op": op, "wall_s": 0.0, "error": error}
                        for op in ops]}
    record = json.loads(lines[-1])
    record["ok"] = True
    # CLOCK_MONOTONIC is system-wide, so the two processes' readings compare
    record["setup_s"] = record["ready"] - spawned
    record["wall_s"] = sum(o["wall_s"] for o in record["ops"])
    return record


def measure(ops: list[str], seed: int, seconds: float, trace: bool,
            baseline_dir: pathlib.Path = ROOT) -> dict:
    """Passes until ``seconds`` is spent (at least one), then, with
    ``trace``, one traced pass; returns the run's metrics and ledger."""
    start = time.monotonic()
    passes: list[dict] = []
    longest = 0.0
    while True:
        t0 = time.monotonic()
        passes.append(run_pass(pass_order(ops, seed, len(passes)), "plain",
                               baseline_dir))
        longest = max(longest, time.monotonic() - t0)
        # room for one more pass, and for the traced pass (a few % slower)
        reserve = longest * (2.1 if trace else 1)
        if time.monotonic() - start + reserve > seconds:
            break
    traced = run_pass(pass_order(ops, seed, len(passes)), "trace",
                      baseline_dir) if trace else None

    everything = passes + ([traced] if traced else [])
    attempted = sum(len(p["ops"]) for p in everything)
    failed = sum(1 for p in everything for o in p["ops"] if o["error"])
    good = [p for p in passes if p["ok"]] or passes
    host_cal_s = min((p["cal_s"] for p in good if p["ok"]), default=CAL_REF_S)
    scale = CAL_REF_S / host_cal_s
    run = {
        "host_cal_s": host_cal_s,
        "attempted": attempted,
        "failed": failed,
        "errors": sorted({f"{o['op']}: {o['error']}" for p in everything
                          for o in p["ops"] if o["error"]}),
        "end_to_end": {
            "wall_s": min(p["wall_s"] for p in good) * scale,
            "setup_s": statistics.median(p["setup_s"] for p in good) * scale,
            "peak_rss_mb": max(p["maxrss_kb"] for p in everything) / 1024,
        },
        "fail_ratio": failed / attempted,
        "ops": {op: min(o["wall_s"] for p in good for o in p["ops"]
                        if o["op"] == op) * scale for op in ops},
        "passes": [{"wall_s": p["wall_s"], "setup_s": p["setup_s"],
                    "cal_s": p.get("cal_s")} for p in passes],
    }
    if traced is not None:
        run["per_layer"] = per_layer_metrics(
            traced, statistics.median(p["wall_s"] for p in good))
    return run


def per_layer_metrics(traced: dict, untraced_wall_s: float) -> dict[str, float]:
    """Per-layer metrics of the traced pass; ``untraced_wall_s`` is the
    median unscaled wall of the same run's untraced passes."""
    spans = traced.get("spans", {"calls": {}, "self_s": {}, "counters": {}})
    self_s, counters = spans["self_s"], spans["counters"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {f"{span}.{field}": float(spans[field].get(span, 0))
           for span in SPANS for field in ("calls", "self_s")}
    routed = counters.get("moe.routed_tokens", 0.0)
    out["moe.routed_tokens"] = routed
    out["moe.route_tokens_per_s"] = ratio(routed,
                                          self_s.get("moe.route_counts", 0.0))
    lookups = counters.get("perfmodel.stepcache.lookups", 0.0)
    out["perfmodel.stepcache.lookups"] = lookups
    out["perfmodel.stepcache.hit_rate"] = ratio(
        counters.get("perfmodel.stepcache.hits", 0.0), lookups)
    window = counters.get("serving.window_iterations", 0.0)
    iterations = window + counters.get("serving.scalar_iterations", 0.0)
    out["serving.window_iterations"] = window
    out["serving.iterations"] = iterations
    out["serving.window_fraction"] = ratio(window, iterations)
    engine_s = (self_s.get("serving.step", 0.0)
                + self_s.get("serving.advance_window", 0.0))
    out["serving.us_per_iteration"] = 1e6 * ratio(engine_s, iterations)
    out["lint.files"] = counters.get("lint.files", 0.0)
    out["trace.overhead_ratio"] = ratio(traced["wall_s"], untraced_wall_s) - 1
    return out


# --------------------------------------------------------------------------- #
# run command
# --------------------------------------------------------------------------- #


def _print_table(title: str, rows: list[tuple[str, float, str]]) -> None:
    print(title)
    width = max(len(name) for name, _, _ in rows)
    for name, value, unit in rows:
        print(f"  {name:<{width}}  {value:>14.6g}  {unit}")


def _with_units(values: dict[str, float], units: dict[str, str]) -> dict:
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def cmd_run(argv: list[str]) -> int:
    p = argparse.ArgumentParser(prog="ledger.py", description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0,
                   help="shuffles the operation order (0 = listed order)")
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time (default: run_seconds of "
                        "BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: add a traced pass and report per-layer metrics")
    p.add_argument("--profile", action="store_true",
                   help="one cProfile pass: host-time share per subpackage")
    p.add_argument("--out", help="also write the full ledger record here")
    p.add_argument("--baseline-dir", default=str(ROOT),
                   help="directory of the BENCH_<id>.json fingerprints "
                        "(default: the repository root)")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"ledger: no src/repro under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None \
        else json.loads(BENCHMARK.read_text())["run_seconds"]
    ops = list(WORKLOADS[args.workload])
    baseline_dir = pathlib.Path(args.baseline_dir).resolve()

    if args.profile:
        prof = run_pass(pass_order(ops, args.seed, 0), "profile",
                        baseline_dir)
        failed = sum(1 for o in prof["ops"] if o["error"])
        metrics = {f"profile.{pkg}.share": {"value": share, "unit": "ratio"}
                   for pkg, share in prof.get("profile", {}).items()}
        _print_table(f"profile of {args.workload} (share of host self time)",
                     [(k, v["value"], v["unit"]) for k, v in metrics.items()])
        print(json.dumps({"correct": failed == 0, "attempted": len(ops),
                          "failed": failed, "metrics": metrics}))
        return 0 if failed == 0 else 1

    run = measure(ops, args.seed, seconds, bool(args.trace), baseline_dir)
    e2e = _with_units(run["end_to_end"], END_TO_END_UNITS)
    layers = _with_units(run.get("per_layer", {}), PER_LAYER_UNITS)

    print(f"workload {args.workload}, seed {args.seed}: "
          f"{len(run['passes'])} timed pass(es) of {len(ops)} operation(s) on "
          f"{os.cpu_count()} cpu(s); host_cal_s {run['host_cal_s']:.5f}, "
          f"times scaled by {CAL_REF_S / run['host_cal_s']:.3f}")
    _print_table("end to end", [(k, m["value"], m["unit"])
                                for k, m in e2e.items()]
                 + [("fail_ratio", run["fail_ratio"], "ratio")])
    _print_table("per operation (fastest pass)",
                 [(f"op.{op}.wall_s", s, "s") for op, s in run["ops"].items()])
    if layers:
        _print_table("per layer (traced pass)",
                     [(k, m["value"], m["unit"]) for k, m in layers.items()])
    for error in run["errors"]:
        print(f"FAILED {error}", file=sys.stderr)

    if args.out:
        import numpy

        record = {
            "git_sha": git_sha(),
            "seed": args.seed,
            "host_cal_s": run["host_cal_s"],
            "cal_ref_s": CAL_REF_S,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas_threads": THREAD_ENV["OPENBLAS_NUM_THREADS"],
            "workloads": {args.workload: {
                "metrics": {**e2e, **layers},
                "fail_ratio": run["fail_ratio"],
                "ops": run["ops"],
                "passes": run["passes"],
            }},
        }
        out = pathlib.Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(record, indent=1) + "\n")

    correct = run["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": run["failed"],
                      "metrics": layers if args.trace else e2e}))
    return 0 if correct else 1


# --------------------------------------------------------------------------- #
# compare command
# --------------------------------------------------------------------------- #


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(a: list[float], b: list[float], bound: float,
            better: str) -> str:
    """``ok``, ``regressed`` or ``unresolved`` for set ``b`` against set
    ``a``; ``bound`` is a share of ``a``'s median."""
    sign = 1.0 if better == "lower" else -1.0
    (qa1, ma, qa3), (qb1, mb, qb3) = _quartiles(a), _quartiles(b)
    if all(sign * y < sign * x for y in b for x in a):
        return "ok"  # every run of b beats every run of a
    if (qa3 - qa1) / ma > bound or (qb3 - qb1) / mb > bound:
        return "unresolved"
    return "regressed" if sign * (mb - ma) / ma > bound else "ok"


def cmd_compare(argv: list[str]) -> int:
    if "--" not in argv:
        print("usage: ledger.py compare A.json... -- B.json...",
              file=sys.stderr)
        return 2
    cut = argv.index("--")
    sets = [argv[:cut], argv[cut + 1:]]
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    values: list[dict[tuple[str, str], list[float]]] = []
    for paths in sets:
        acc: dict[tuple[str, str], list[float]] = {}
        for path in paths:
            record = json.loads(pathlib.Path(path).read_text())
            for workload, data in record["workloads"].items():
                for m in metrics:
                    if m["name"] in data["metrics"]:
                        acc.setdefault((workload, m["name"]), []).append(
                            data["metrics"][m["name"]]["value"])
        values.append(acc)

    status = 0
    print(f"{'workload':<10} {'metric':<12} {'runs':>5} "
          f"{'A q1 / median / q3':>28} {'B q1 / median / q3':>28}  "
          f"bound  verdict")
    for workload in sorted({w for w, _ in values[0]} & {w for w, _ in values[1]}):
        for m in metrics:
            a = values[0].get((workload, m["name"]), [])
            b = values[1].get((workload, m["name"]), [])
            if min(len(a), len(b)) < 2:
                print(f"{workload:<10} {m['name']:<12} needs at least 2 "
                      f"records per set", file=sys.stderr)
                status = 2
                continue
            v = verdict(a, b, m["bound"], m["better"])
            status = max(status, int(v != "ok"))
            cells = [" / ".join(f"{x:.4g}" for x in _quartiles(s))
                     for s in (a, b)]
            print(f"{workload:<10} {m['name']:<12} {len(a):>2},{len(b):<2} "
                  f"{cells[0]:>28} {cells[1]:>28}  {m['bound']:>5.2f}  {v}")
    return status


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        return cmd_compare(argv[1:])
    return cmd_run(argv)


if __name__ == "__main__":
    sys.exit(main())
