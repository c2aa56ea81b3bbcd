"""The replay gate catches each planted fault and names where it shows.

One gate run replays two control scenarios and five planted defects (see
``tests/gate_plants.py``) in all four modes; each test reads its own
part of the printed verdict.  A perturbed BENCH baseline is planted in
``tests/test_cli_bench.py``, and the registry's own scenarios are gated
in ``tests/conftest.py``'s ``serving_gate`` fixture.
"""

from __future__ import annotations

import contextlib
import io
import os
import pathlib
import re
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

from repro.faults.harness import ChaosConfig
from repro.gate import FAST_PATHS_OFF, first_divergence, gate
from repro.scenarios import Scenario, registry, slo
from tests import gate_plants

ROOT = pathlib.Path(__file__).resolve().parent.parent
HASH_MODE = "worker, PYTHONHASHSEED="
SCALAR_MODE = "worker, fast paths off, one CPU"


@pytest.fixture(scope="module")
def planted(tmp_path_factory) -> SimpleNamespace:
    calm = ChaosConfig(num_requests=8, fault_rate=0.5, horizon_s=0.5)
    scenarios = [
        Scenario("steady", gate_plants.steady),
        Scenario("noisy", gate_plants.noisy_stdout),
        Scenario("warm_cache", gate_plants.warm_cache_drift),
        Scenario("set_order", gate_plants.set_order_leak),
        Scenario("scalar_flip", gate_plants.scalar_bit_flip),
        Scenario("invariant", gate_plants.broken_invariant),
        Scenario("slo_calm", slo, (calm,)),
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = gate(scenarios, bench_dir=tmp_path_factory.mktemp("none"))
    return SimpleNamespace(code=code, out=out.getvalue())


def _block(text: str, name: str) -> str:
    """The verdict lines of one scenario."""
    lines = text.splitlines()
    keep, inside = [], False
    for line in lines:
        if line.startswith("["):
            inside = line.startswith((f"[FAIL] {name}:", f"[FAIL] {name} (",
                                      f"[ok] {name} "))
        if inside:
            keep.append(line)
    return "\n".join(keep)


def test_gate_fails_on_plants_and_passes_the_controls(planted):
    assert planted.code == 1
    assert "[ok] steady " in planted.out
    assert "gate: 2/7 scenarios agree in 4 modes" in planted.out


def test_worker_output_on_fd_1_leaves_its_outcomes_intact(planted):
    assert "[ok] noisy " in planted.out


@pytest.mark.parametrize("var", sorted(FAST_PATHS_OFF))
def test_gate_refuses_to_run_with_a_fast_path_already_off(monkeypatch,
                                                          capsys, var):
    # every mode would take the scalar path, so the scalar-only flip
    # would pass unseen; the gate refuses before it replays anything
    def popen(*args, **kwargs):
        raise AssertionError("the gate spawned a worker")

    monkeypatch.setattr("subprocess.Popen", popen)
    monkeypatch.setenv(var, "1")
    assert gate([Scenario("scalar_flip", gate_plants.scalar_bit_flip)]) == 2
    out = capsys.readouterr().out
    assert f"[FAIL] {var} set" in out and "[ok]" not in out


def test_second_in_process_run_named_with_its_row(planted):
    block = _block(planted.out, "warm_cache")
    assert "in-process, warm diverged from in-process at row 1" in block
    # both sides of the row, floats also as float.hex
    assert "ttft 0.30000000000000004  [0x1.3333333333334p-2]" in block
    assert "ttft 0.3  [0x1.3333333333333p-2]" in block
    assert HASH_MODE not in block and SCALAR_MODE not in block


def test_set_order_leak_shows_under_another_hash_seed(planted):
    block = _block(planted.out, "set_order")
    assert f"{HASH_MODE}" in block and "diverged from in-process at row" \
        in block
    assert "in-process, warm" not in block
    # the first divergent row names an expert on each side
    row_lines = [line for line in block.splitlines() if " | " in line]
    assert len(row_lines) >= 2
    assert all("expert" in line for line in row_lines[:2])


def test_scalar_only_bit_flip_named_with_hex(planted):
    block = _block(planted.out, "scalar_flip")
    assert re.search(re.escape(SCALAR_MODE) + r", PYTHONHASHSEED=\d+ "
                     "diverged from in-process at row 1", block)
    assert "0x1.999999999999ap-4" in block
    assert "0x1.999999999999bp-4" in block
    assert HASH_MODE not in block


def test_both_workers_have_fixed_hash_seeds_of_their_own(tmp_path):
    # the three keys iterate alike under the caller's seed 5 and the
    # PYTHONHASHSEED worker's seed 1; only a fast-paths-off worker with
    # a third fixed seed, not the inherited 5, sees the leak
    script = ("import sys\n"
              "from repro.gate import gate\n"
              "from repro.scenarios import Scenario\n"
              "from tests import gate_plants\n"
              "sys.exit(gate([Scenario('keys', "
              "gate_plants.three_key_set_order)], bench_dir=sys.argv[1]))\n")
    env = {**os.environ, "PYTHONHASHSEED": "5",
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)])}
    for var in FAST_PATHS_OFF:
        env.pop(var, None)
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    block = _block(proc.stdout, "keys")
    assert f"{SCALAR_MODE}, PYTHONHASHSEED=2 diverged from in-process " \
        "at row 0" in block
    assert f"{HASH_MODE}1, pool of 2 diverged" not in block


def test_violated_invariant_fails_every_mode(planted):
    block = _block(planted.out, "invariant")
    assert "[FAIL] invariant (every mode): InvariantViolation: token " \
        "conservation broken for request" in block


def test_slo_run_without_a_page_fails(planted):
    block = _block(planted.out, "slo_calm")
    assert "[FAIL] slo_calm (every mode): InvariantViolation: fault-storm " \
        "scenario fired no burn-rate page" in block


def test_workers_are_reaped_when_the_gate_is_interrupted(monkeypatch):
    import subprocess

    spawned = []
    real_popen = subprocess.Popen

    def popen(*args, **kwargs):
        spawned.append(real_popen(*args, **kwargs))
        return spawned[-1]

    monkeypatch.setattr(subprocess, "Popen", popen)
    monkeypatch.setattr(gate_plants, "ABORT", True)
    with pytest.raises(KeyboardInterrupt):
        gate([Scenario("interrupted", gate_plants.interrupted)])
    assert len(spawned) == 2
    assert all(proc.returncode is not None for proc in spawned)


def test_disabled_overhead_plant_fails_the_overhead_step(monkeypatch,
                                                         tmp_path):
    # 1 ms more per run whenever a handle is passed: the disabled path
    # alone pays it, and the reference run lasts about as long again
    from repro.obs import harness

    run = harness.reference_serving_run

    def slower(*args, instrumentation=None, **kwargs):
        result = run(*args, instrumentation=instrumentation, **kwargs)
        if instrumentation is not None:
            time.sleep(1e-3)
        return result

    monkeypatch.setattr(harness, "reference_serving_run", slower)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = gate([], bench_dir=tmp_path)
    assert code == 1, out.getvalue()
    assert "[FAIL] disabled-instrumentation overhead exceeds the 2% band" \
        in out.getvalue()


def test_first_divergence_of_a_prefix_is_its_length():
    assert first_divergence(["a", "b"], ["a", "b", "c"]) == 2
    assert first_divergence(["a", "x"], ["a", "b"]) == 1
    assert first_divergence([], []) == 0


def test_registry_covers_every_committed_baseline():
    from repro.obs.regress import BaselineStore

    names = [s.name for s in registry(ROOT)]
    assert names[:6] == ["chaos", "fleet.round_robin", "fleet.least_kv",
                         "fleet.prefix_affinity", "slo", "slo_report"]
    bench_ids = BaselineStore(ROOT).known_ids()
    assert len(bench_ids) == 37
    assert names[6:] == [f"bench.{e}" for e in bench_ids]
