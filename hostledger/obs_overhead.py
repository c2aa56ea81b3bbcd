"""Enabled-instrumentation overhead report (informational, never gates).

Times the reference serving run of :mod:`repro.obs.harness` with no
instrumentation, with a fully enabled ``Instrumentation.on()`` handle and
with the lean SLO-only handle ``ext_slo`` builds (span tracer disabled),
and prints each ratio against the uninstrumented run next to the existing
disabled-overhead check (:func:`repro.obs.regress.measure_disabled_overhead`).

Any active handle makes the engine refuse its decode windows, so the lean
ratio is the cost an observed run pays for leaving the fast path; it is the
number that putting observed runs on the fast path must shrink.

Run from the repository root::

    PYTHONPATH=src python3 hostledger/obs_overhead.py
"""

from __future__ import annotations

import os
import time

ROUNDS = 5
WORKLOAD = dict(num_requests=16, input_tokens=256, output_tokens=64)


def min_time(fn, rounds: int = ROUNDS) -> float:
    fn()  # warm-up: imports and perf-model caches
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def main() -> None:
    # single-threaded BLAS, as in the ledger's passes (before NumPy loads)
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    from repro.experiments.slo import _lean_slo_obs
    from repro.obs.harness import reference_serving_run
    from repro.obs.instrument import Instrumentation
    from repro.obs.regress import measure_disabled_overhead

    base = min_time(lambda: reference_serving_run(**WORKLOAD))
    print(measure_disabled_overhead(rounds=ROUNDS, **WORKLOAD).describe())
    for label, make in (("Instrumentation.on()", Instrumentation.on),
                        ("lean SLO-only handle (ext_slo)", _lean_slo_obs)):
        t = min_time(lambda: reference_serving_run(instrumentation=make(),
                                                   **WORKLOAD))
        print(f"enabled overhead, {label}: baseline {base:.4f}s, "
              f"instrumented {t:.4f}s, ratio {t / base:.2f}x "
              f"(min of {ROUNDS})")


if __name__ == "__main__":
    main()
