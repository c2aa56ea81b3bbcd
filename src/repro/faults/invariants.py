"""Invariants the simulator must keep — healthy or under chaos.

These checks are the contract the property-based suite drives: whatever a
seeded fault schedule does to the engine, the simulation must stay
physically coherent.  Each checker raises :class:`InvariantViolation` with
a precise message on the first breach.

* :func:`check_kv_integrity` — the KV block pool is an exact partition:
  every block is free, parked-reusable, or owned; shared blocks' refcounts
  match their owners; nothing is leaked or double-freed.
* :func:`check_engine_invariants` — mid-run: simulated time is monotone,
  queue membership matches request state, token counters stay in bounds.
* :func:`check_final_invariants` — at drain: every admitted request is
  terminal (finished or failed-with-reason), finished requests conserve
  tokens (``kv_tokens == prompt + generated - 1``), and the pool is empty.
* :func:`run_digest` — a deterministic SHA-256 of the full event log and
  request outcomes, hashed from the rows :func:`run_rows` yields; the
  replay gate (``repro gate``) compares runs by this digest and names the
  first row that differs.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.serving.kv_cache import PagedKVCache
from repro.serving.request import Request, RequestState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.serving.engine import ServingEngine, ServingResult

__all__ = [
    "InvariantViolation",
    "check_kv_integrity",
    "check_engine_invariants",
    "check_final_invariants",
    "float_hex",
    "event_row",
    "request_row",
    "digest_rows",
    "run_rows",
    "run_digest",
]


class InvariantViolation(AssertionError):
    """A simulator invariant was broken."""


def _violate(message: str) -> None:
    raise InvariantViolation(message)


# --------------------------------------------------------------------------- #
# KV pool partition audit
# --------------------------------------------------------------------------- #


def check_kv_integrity(kv: PagedKVCache) -> None:
    """Audit the block pool: free ∪ reusable ∪ owned must partition
    ``range(num_blocks)`` exactly, with sharing accounted by refcount."""
    free = list(kv._free)
    if len(set(free)) != len(free):
        _violate("duplicate block id on the free list (double free)")
    reusable = list(getattr(kv, "_reusable", {}).values())
    if len(set(reusable)) != len(reusable):
        _violate("duplicate block id in the reusable pool")
    owned = Counter(b for t in kv._tables.values() for b in t.blocks)

    refcounts = kv.refcounts() if hasattr(kv, "refcounts") else {}
    for block, n in owned.items():
        expected = refcounts.get(block, 1)
        if expected == 0:
            _violate(f"block {block} is owned but registered at refcount 0")
        if n != expected and block in refcounts:
            _violate(
                f"shared block {block}: owned by {n} sequence(s) but "
                f"refcount is {expected}"
            )
        if n > 1 and block not in refcounts:
            _violate(f"unshared block {block} owned by {n} sequences")

    free_set, reusable_set, owned_set = set(free), set(reusable), set(owned)
    for a, b, what in (
        (free_set, owned_set, "free and owned"),
        (free_set, reusable_set, "free and reusable"),
        (reusable_set, owned_set, "reusable and owned"),
    ):
        both = a & b
        if both:
            _violate(f"block(s) {sorted(both)[:4]} are both {what}")
    universe = free_set | reusable_set | owned_set
    expected_universe = set(range(kv.num_blocks))
    if universe != expected_universe:
        leaked = sorted(expected_universe - universe)
        phantom = sorted(universe - expected_universe)
        if leaked:
            _violate(f"block(s) {leaked[:8]} leaked (not free, reusable, "
                     "or owned)")
        _violate(f"phantom block id(s) {phantom[:8]} outside the pool")
    if kv.reserved_blocks < 0:
        _violate(f"negative KV reservation: {kv.reserved_blocks}")


# --------------------------------------------------------------------------- #
# mid-run engine invariants
# --------------------------------------------------------------------------- #


def _check_request_bounds(req: Request) -> None:
    if req.generated_tokens < 0 or req.generated_tokens > req.sampling.max_tokens:
        _violate(
            f"request {req.request_id}: generated {req.generated_tokens} "
            f"outside [0, {req.sampling.max_tokens}]"
        )
    if req.kv_tokens < 0 or req.kv_tokens > req.total_length_budget:
        _violate(
            f"request {req.request_id}: kv_tokens {req.kv_tokens} outside "
            f"[0, {req.total_length_budget}]"
        )


def check_engine_invariants(engine: "ServingEngine",
                            prev_clock: float | None = None) -> None:
    """Checks that must hold between any two engine iterations."""
    if prev_clock is not None and engine.clock < prev_clock - 1e-12:
        _violate(
            f"simulated time went backwards: {engine.clock} < {prev_clock}"
        )
    check_kv_integrity(engine.kv)
    sched = engine.scheduler
    for req in sched.running:
        if req.state is not RequestState.RUNNING:
            _violate(f"request {req.request_id} in running list but state "
                     f"is {req.state.value}")
        if not engine.kv.has_sequence(req.request_id):
            _violate(f"running request {req.request_id} has no KV allocation")
        _check_request_bounds(req)
    for req in sched.waiting:
        if req.state not in (RequestState.WAITING, RequestState.PREEMPTED):
            _violate(f"request {req.request_id} in waiting queue but state "
                     f"is {req.state.value}")
        _check_request_bounds(req)
    for req in engine._all:
        if req.is_terminal:
            in_queues = any(r is req for r in sched.running) or \
                any(r is req for r in sched.waiting)
            if in_queues:
                _violate(f"terminal request {req.request_id} still queued")
            if engine.kv.has_sequence(req.request_id):
                _violate(f"terminal request {req.request_id} still holds KV")


# --------------------------------------------------------------------------- #
# end-of-run invariants
# --------------------------------------------------------------------------- #


def check_final_invariants(result: "ServingResult",
                           engine: "ServingEngine | None" = None) -> None:
    """Checks that must hold once the engine has drained."""
    last_time = 0.0
    for event in result.log.events:
        if event.time < last_time - 1e-12:
            _violate(f"event log out of order at t={event.time}")
        last_time = max(last_time, event.time)
    for req in result.requests:
        if not req.is_terminal:
            _violate(
                f"request {req.request_id} ended the run in state "
                f"{req.state.value} — every admitted request must finish, "
                "be retried to completion, or fail with a reason"
            )
        if req.is_finished:
            if req.generated_tokens < 1:
                _violate(f"finished request {req.request_id} generated no tokens")
            if req.generated_tokens > req.sampling.max_tokens:
                _violate(f"finished request {req.request_id} overran its "
                         "generation budget")
            expected_kv = req.prompt_tokens + req.generated_tokens - 1
            if req.kv_tokens != expected_kv:
                _violate(
                    f"token conservation broken for request {req.request_id}: "
                    f"kv_tokens {req.kv_tokens} != prompt + generated - 1 "
                    f"= {expected_kv}"
                )
            if req.first_token_time is None or req.finish_time is None:
                _violate(f"finished request {req.request_id} lacks timestamps")
            elif not (req.arrival_time <= req.first_token_time
                      <= req.finish_time + 1e-12):
                _violate(f"request {req.request_id} timestamps out of order")
        else:
            if not req.failure_reason:
                _violate(f"failed request {req.request_id} has no recorded "
                         "reason")
            if req.kv_tokens != 0:
                _violate(f"failed request {req.request_id} still counts "
                         f"{req.kv_tokens} KV tokens")
    if engine is not None:
        check_kv_integrity(engine.kv)
        if engine.kv._tables:
            _violate(
                f"KV leak at drain: sequence(s) "
                f"{sorted(engine.kv._tables)[:8]} still allocated"
            )
        if engine.scheduler.has_unfinished:
            _violate("scheduler still has queued work after drain")


# --------------------------------------------------------------------------- #
# determinism digest
# --------------------------------------------------------------------------- #


def float_hex(x: float | None) -> str:
    """``float.hex`` of ``x`` (exact), or ``"None"``."""
    return "None" if x is None else float(x).hex()


def event_row(e) -> str:
    """One event-log entry as the exact text a digest hashes."""
    return repr((float_hex(e.time), e.type.value, e.request_ids,
                 e.num_tokens, float_hex(e.duration_s),
                 float_hex(e.kv_utilization), e.detail))


def request_row(r: Request) -> str:
    """One request outcome as the exact text a digest hashes."""
    return repr((
        r.request_id, r.state.value, r.prompt_tokens, r.generated_tokens,
        r.kv_tokens, float_hex(r.arrival_time),
        float_hex(r.first_scheduled_time), float_hex(r.first_token_time),
        float_hex(r.finish_time), r.num_preemptions, r.fault_retries,
        float_hex(r.retry_time), r.failure_reason,
    ))


def digest_rows(rows: Iterable[str]) -> str:
    """SHA-256 over ``rows`` in order: the digest of their concatenation."""
    h = hashlib.sha256()
    for row in rows:
        h.update(row.encode())
    return h.hexdigest()


def run_rows(result: "ServingResult") -> Iterator[str]:
    """The full event log, then every request outcome by id: the rows
    :func:`run_digest` hashes, with floats as ``float.hex``."""
    for e in result.log.events:
        yield event_row(e)
    for r in sorted(result.requests, key=lambda r: r.request_id):
        yield request_row(r)


def run_digest(result: "ServingResult") -> str:
    """SHA-256 over :func:`run_rows`.

    Floats are hashed via ``float.hex`` so the digest is exact: two runs
    agree iff they are bit-identical, which is what the replay gate
    asserts for same-seed replays.
    """
    return digest_rows(run_rows(result))
