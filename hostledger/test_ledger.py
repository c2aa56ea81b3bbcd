"""Self-test of the host-cost ledger (about 10 s; not part of tier-1).

Run explicitly from the repository root::

    python3 -m pytest -q hostledger/test_ledger.py
"""

from __future__ import annotations

import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import ledger  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
CONFIG = json.loads(ledger.BENCHMARK.read_text())
TINY_OPS = ["fig1", "fig6", "ext_prefix_cache"]


def _git_status() -> str | None:
    try:
        out = subprocess.run(["git", "status", "--porcelain"],
                             cwd=ledger.ROOT, capture_output=True, text=True,
                             timeout=30)
    except OSError:
        return None
    return out.stdout if out.returncode == 0 else None


def _cli(*args: str) -> tuple[int, dict]:
    proc = subprocess.run([sys.executable, str(HERE / "ledger.py"), *args],
                          cwd=ledger.ROOT, capture_output=True, text=True,
                          timeout=120)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def tiny_traced_run() -> dict:
    return ledger.measure(TINY_OPS, seed=3, seconds=0, trace=True)


def test_names_are_well_formed(tiny_traced_run):
    names = [w["name"] for w in CONFIG["workloads"]]
    names += [m["name"] for m in CONFIG["end_to_end"] + CONFIG["per_layer"]]
    names += list(tiny_traced_run["end_to_end"])
    names += list(tiny_traced_run["per_layer"])
    names += [f"op.{op}.wall_s" for op in tiny_traced_run["ops"]]
    assert [n for n in names if not NAME.match(n)] == []


def test_benchmark_json_matches_what_is_emitted(tiny_traced_run):
    assert [w["name"] for w in CONFIG["workloads"]] == list(ledger.WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in CONFIG["end_to_end"]}
    assert e2e == ledger.END_TO_END_UNITS
    assert set(tiny_traced_run["end_to_end"]) == set(e2e)
    layers = {m["name"]: m["unit"] for m in CONFIG["per_layer"]}
    assert layers == ledger.PER_LAYER_UNITS
    assert set(tiny_traced_run["per_layer"]) == set(layers)


def test_workloads_cover_every_committed_experiment_once():
    committed = sorted(p.stem[len("BENCH_"):]
                       for p in ledger.ROOT.glob("BENCH_*.json")
                       if p.stem != "BENCH_wallclock")
    ops = [op for w, ops in ledger.WORKLOADS.items() if w != "lint"
           for op in ops]
    assert sorted(ops) == committed
    assert ledger.WORKLOADS["lint"] == (ledger.LINT_OP,)


def test_seed_zero_is_listed_order_and_seeds_are_stable():
    for ops in ledger.WORKLOADS.values():
        assert ledger.pass_order(ops, 0, 0) == ledger.pass_order(ops, 0, 5) \
            == list(ops)
        assert ledger.pass_order(ops, 7, 2) == ledger.pass_order(ops, 7, 2)
        assert sorted(ledger.pass_order(ops, 7, 2)) == sorted(ops)
    sweep = ledger.WORKLOADS["sweep"]
    assert ledger.pass_order(sweep, 1, 0) != list(sweep)
    assert ledger.pass_order(sweep, 1, 0) != ledger.pass_order(sweep, 1, 1)


def test_traced_pass_reports_serving_and_perfmodel_spans(tiny_traced_run):
    layers = tiny_traced_run["per_layer"]
    assert tiny_traced_run["failed"] == 0
    assert layers["serving.engine_run.calls"] >= 1
    assert layers["serving.iterations"] >= 1
    assert layers["experiments.metrics_rows.calls"] >= 1
    assert {"perfmodel.generate.calls", "perfmodel.stepcache.hit_rate",
            "serving.window_fraction"} <= set(layers)
    assert layers["moe.route_counts.calls"] == 0
    assert layers["lint.files"] == 0


def test_clean_run_passes_and_leaves_the_tree_unchanged(tmp_path):
    before = _git_status()
    rc, last = _cli("--workload", "serve", "--seconds", "0",
                    "--out", str(tmp_path / "record.json"))
    assert rc == 0
    assert last["correct"] is True and last["failed"] == 0
    assert set(last["metrics"]) == set(ledger.END_TO_END_UNITS)
    record = json.loads((tmp_path / "record.json").read_text())
    assert record["host_cal_s"] > 0 and record["blas_threads"] == "1"
    assert record["workloads"]["serve"]["fail_ratio"] == 0
    if before is None:
        pytest.skip("not a git checkout")
    assert _git_status() == before


def test_corrupted_baseline_fails_the_run(tmp_path):
    for path in ledger.ROOT.glob("BENCH_*.json"):
        shutil.copy(path, tmp_path / path.name)
    target = tmp_path / "BENCH_ext_resilience.json"
    data = json.loads(target.read_text())
    sim = data["records"][-1]["fingerprint"]["sim"]
    sim["sim_time_total_s"] = sim["sim_time_total_s"] * 1.5 + 1.0
    target.write_text(json.dumps(data))

    rc, last = _cli("--workload", "serve", "--seconds", "0",
                    "--baseline-dir", str(tmp_path),
                    "--out", str(tmp_path / "record.json"))
    assert rc != 0
    assert last["correct"] is False and last["failed"] >= 1
    record = json.loads((tmp_path / "record.json").read_text())
    assert record["workloads"]["serve"]["fail_ratio"] > 0


def test_compare_verdicts():
    a = [1.00, 1.01, 0.99, 1.00, 1.02]
    assert ledger.verdict(a, [1.01, 1.00, 1.02, 0.99, 1.01], 0.1, "lower") == "ok"
    assert ledger.verdict(a, [1.3, 1.31, 1.29, 1.3, 1.32], 0.1, "lower") \
        == "regressed"
    assert ledger.verdict(a, [0.5, 1.5, 1.0, 0.7, 1.4], 0.1, "lower") \
        == "unresolved"
    assert ledger.verdict(a, [0.5, 0.52, 0.51, 0.6, 0.7], 0.1, "lower") == "ok"
