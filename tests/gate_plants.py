"""Planted faults for the replay-gate tests.

Each function is a scenario (``(digest, rows)`` from its seeds) with one
deliberate defect of the kind ``repro gate`` exists to catch.  They live
in an importable module, not in a test file, so the gate's spawned
workers can import them by name.
"""

from __future__ import annotations

import math
import os

from repro.faults.invariants import digest_rows, float_hex

_memo: dict[str, float] = {}

ABORT = False
"""Set in the test process only: spawned workers import this module
afresh and see False."""


def _outcome(rows: list[str]) -> tuple[str, list[str]]:
    return digest_rows(rows), rows


def steady() -> tuple[str, list[str]]:
    """No defect: the control."""
    return _outcome(["steady\n", repr(("ttft", float_hex(0.125)))])


def noisy_stdout() -> tuple[str, list[str]]:
    """No defect, but writes straight to file descriptor 1, as native
    code or a child process may: a worker's pickled outcomes must not
    take the bytes in."""
    os.write(1, b"noise on fd 1\n")
    return steady()


def warm_cache_drift() -> tuple[str, list[str]]:
    """A memo that hands back a rounded value once warm: the second
    in-process run differs from the first."""
    value = _memo.get("ttft", 0.1 + 0.2)
    _memo["ttft"] = 0.3
    return _outcome(["header\n", f"ttft {value!r}\n"])


def set_order_leak() -> tuple[str, list[str]]:
    """Rows in set-iteration order: stable inside one process, different
    under another ``PYTHONHASHSEED``."""
    experts = {f"expert{i}" for i in range(32)}
    return _outcome([f"{name}\n" for name in experts])


def three_key_set_order() -> tuple[str, list[str]]:
    """Rows in the set order of three keys, which few hash seeds tell
    apart: seeds 1 and 5 iterate ``r0 r2 r1``, seed 2 ``r1 r0 r2``."""
    return _outcome([f"{key}\n" for key in {"r0", "r1", "r2"}])


def scalar_bit_flip() -> tuple[str, list[str]]:
    """One ulp of drift that only the scalar engine path takes."""
    x = 0.1
    if os.environ.get("REPRO_NO_VECTORIZE_ENGINE"):
        x = math.nextafter(x, 1.0)
    return _outcome(["decode\n", repr(("itl", float_hex(x)))])


def broken_invariant() -> tuple[str, list[str]]:
    """A real chaos run whose result is doctored so the final invariant
    audit sees a broken token count."""
    from repro.faults.harness import ChaosConfig, chaos_serving_run
    from repro.faults.invariants import check_final_invariants, run_rows

    result = chaos_serving_run(ChaosConfig(
        num_requests=2, input_tokens=64, output_tokens=4)).result
    victim = next(r for r in result.requests if r.is_finished)
    victim.kv_tokens += 1
    check_final_invariants(result)
    return _outcome(list(run_rows(result)))


def interrupted() -> tuple[str, list[str]]:
    """Interrupted in the test process (as by Ctrl-C), clean elsewhere."""
    if ABORT:
        raise KeyboardInterrupt
    return steady()
