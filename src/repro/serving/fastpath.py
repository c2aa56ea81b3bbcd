"""Batched decode advance for the serving engine (fast path, phase 2).

The engine's inner loop is one Python iteration per decode step: schedule
(grow every running sequence by one KV slot), price the step through the
perf model, advance the clock, record one event.  Between scheduling
boundaries — an arrival being admitted, a sequence finishing, the KV pool
running dry — nothing about the *decision structure* of those iterations
changes: the batch is the same ``running`` list every time, no request
finishes, no preemption fires.  :class:`EngineFastPath` detects such a
run and advances it at once, planning one iteration at a time only as
far as it will actually go (the fleet horizon, the next arrival, the
earliest completion or a dry KV pool): each iteration's duration is a
decode-memo lookup, the KV block-crossing iterations follow from one
first-crossing residue (mod ``block_size``) per sequence, and
request/block-table counters are committed with one addition per
sequence instead of one per token.

The decode memo is keyed on ``(batch, context // DECODE_BLOCK)`` and
filled a row at a time: a miss prices the whole aligned block of
:data:`DECODE_BLOCK` contexts around the missing one in one
:meth:`~repro.perfmodel.phases.StepModel.decode_totals` array pass and
keeps the returned list as the row, so a run of windows (and the
completing step after each) pays one array pass per 64 contexts instead
of one per window.  The iterations a window cannot take — admission
prefills and the completing decode step at each request's end — still
run through the scalar ``step()``, but their durations are priced
through :meth:`EngineFastPath.step_total`: decode shapes through the
same block-priced memo, prefill shapes through one-point
:meth:`~repro.perfmodel.phases.StepModel.step_total_one`, which skips
building a breakdown.

**Bit-identity contract.**  The fingerprint gate digests ``repr()`` of
every float and the chaos/fleet digests hash the event stream via
``float.hex``, so the fast path must reproduce the scalar path operand
for operand:

* the clock stays *sequential* accumulation (``clock = clock + d`` per
  iteration — ``n`` additions are not a multiplication in IEEE-754);
* the mean context of ``_iteration_cost`` is replayed as the exact
  integer sum ``(kv_sum + j * batch) / batch`` (``np.mean`` over Python
  ints is a pairwise float64 sum, exact below 2**53, divided by the
  batch — the same correctly-rounded division);
* durations come from the step model's one float/array core, so a
  block's array pass and a one-point probe give the same bits as
  ``decode_step_time`` / ``step_breakdown().total``;
* KV blocks are popped through ``PagedKVCache.append_block`` in the
  scalar order — iteration-major, then running order — so prefix-cache
  eviction (which pops LRU reusable blocks) sees the identical request
  stream.

**Fallback rules.**  A window is only entered when the scalar iteration
would be "quiet"; anything else returns 0 and the caller runs the plain
``step()``.  The window refuses to start (or breaks) when:

* ``REPRO_NO_VECTORIZE_ENGINE`` is set (checked once at engine
  construction — see ``ServingEngine.fastpath``);
* active instrumentation carries a hook without a window contract: an
  enabled span tracer, a request tracer, a routing probe or cluster
  telemetry (see ``Instrumentation.windowable``);
* a fault schedule is armed (faults advance on the scalar clock and may
  perturb durations);
* the waiting queue is non-empty (the next iteration may prefill) or a
  pending arrival is due at or before the current clock;
* the next iteration would finish a request (windows stop one iteration
  short of the earliest ``max_tokens`` completion) or needs more KV
  blocks than are available (the preemption decision stays scalar);
* a block table holds a whole spare block (the allocators never leave
  one, and the crossing residues assume fewer than ``block_size`` free
  slots per sequence);
* an armed alert rule could fire on it: the window is planned first, as
  one DECODE event per iteration, and cut to
  ``AlertMonitor.quiet_iterations`` before any state is committed (a rule
  without a window contract answers 0).

The hooks a window keeps see it as the scalar loop would have: metrics
take one batch commit through ``Instrumentation.record_iterations``
(exact counter products, durations observed in iteration order, metrics
created in scalar order), and the SLO tracker has nothing to record,
because no request arrives, completes or is preempted inside a window.
Only the two step-cache gauges differ, since window iterations make no
step-cache lookups.  Nor do the scalar steps of a lean handle (span
tracer off, no cluster telemetry): like unobserved steps they price
through :meth:`EngineFastPath.step_total`, so those gauges count fewer
lookups than under a handle that reads each step's components.

A window bounded by a fleet horizon plans nothing past it: fleet events
come every couple of iterations, so a call pays for the iterations it
advances, and the next ``Replica.advance_to`` resumes against the
block-priced memo.
"""

from __future__ import annotations

import math
import os
from typing import TYPE_CHECKING

import numpy as np

from repro.perfmodel import stepcache
from repro.serving.events import Event, EventType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.instrument import Instrumentation
    from repro.serving.engine import ServingEngine

__all__ = ["DECODE_BLOCK", "EngineFastPath", "engine_fastpath_enabled"]

_MAX_WINDOW = 4096
"""Iterations advanced per window (bounds its event batch; longer decode
runs simply split)."""

DECODE_BLOCK = 64
"""Decode contexts priced per memo miss: the aligned block
``[64 * q, 64 * q + 64)`` for the missing context's batch, kept as one
row of the memo.  A row's batch is a scalar, so its token-only terms come
from the step cache's token memo and one array pass prices the attention
core over the contexts: 31-32 us for 1 point and 47-50 us for 64 on a
2-vCPU Xeon (OLMoE-1B-7B, memo warm, min of 200 calls; 71-76 us for 64
with the memo cold).  Windows and completing steps walk contexts upwards one at a
time."""


def engine_fastpath_enabled() -> bool:
    """Whether the batched decode window is enabled (the escape hatch is
    ``REPRO_NO_VECTORIZE_ENGINE=1``)."""
    return os.environ.get("REPRO_NO_VECTORIZE_ENGINE", "") in ("", "0")


class EngineFastPath:
    """Batched decode-window advance for one :class:`ServingEngine`."""

    def __init__(self, engine: "ServingEngine") -> None:
        self.engine = engine
        self.steps = engine.perf.steps
        self._cache = stepcache.GLOBAL
        shared = self._cache.enabled
        self._totals = self._cache.totals if shared else {}
        """Prefill-shape → step-total-seconds memo, filled one point at a
        time by :meth:`step_total` misses and keyed
        ``(setup_id, num_tokens, batch, kv_len, attended_len)``.  Shared
        through the global step cache so fleet replicas (one perf model,
        many engines) and sweep points (equal setups intern to one id)
        reuse each other's evaluations.  Values are bit-identical to the
        scalar calls, so sharing affects wallclock only.  Private
        per-engine when the step cache is disabled."""
        self._decode_plans = self._cache.decode_plans if shared else {}
        """``(setup_id, batch) -> {block: row}`` decode memo (see
        ``StepCache.decode_plans``), filled one :data:`DECODE_BLOCK` row
        at a time by :meth:`_price_block`."""
        self._plan_by_batch: dict[int, dict[int, list[float]]] = {}
        """This engine's view of :attr:`_decode_plans` keyed by batch
        alone (the setup id is fixed per engine), so hot probes skip the
        outer tuple key."""
        self._sid = self.steps.setup_id

    # ------------------------------------------------------------------ #

    def _put(self, key: tuple, total: float) -> None:
        """Bounded memo insert (deterministic wholesale clear, matching the
        step cache's eviction discipline)."""
        memo = self._totals
        if len(memo) >= self._cache.max_entries:
            memo.clear()
        memo[key] = total

    def _plan(self, batch: int) -> dict[int, list[float]]:
        """The shared ``{block: row}`` decode memo for ``batch``."""
        plan = self._plan_by_batch.get(batch)
        if plan is None:
            plans = self._decode_plans
            if len(plans) >= self._cache.max_entries:
                plans.clear()
                self._plan_by_batch.clear()
            plan = plans.setdefault((self._sid, batch), {})
            self._plan_by_batch[batch] = plan
        return plan

    def _price_block(self, plan: dict[int, list[float]], batch: int,
                     block: int) -> list[float]:
        """Price contexts ``[block, block + 1) * DECODE_BLOCK`` for
        ``batch`` in one array pass and memoize them as ``plan[block]``.
        Context 0 never occurs (the mean context is at least 1), so block
        0 prices from context 1 and holds NaN in its slot."""
        low = block * DECODE_BLOCK
        contexts = np.arange(low or 1, low + DECODE_BLOCK, dtype=np.float64)
        row = self.steps.decode_totals(batch, contexts)
        if not low:
            row.insert(0, math.nan)
        plan[block] = row
        return row

    def step_total(self, num_tokens: int, batch: int, kv_len: float,
                   phase: str, attended_len: float | None = None) -> float:
        """One iteration's total seconds — the values
        ``step_breakdown(...).total`` / ``decode_step_time`` produce,
        without building a breakdown.  Decode shapes go through the
        block-priced decode memo (``kv_len`` is then the integer mean
        context), every other shape through the shared totals memo."""
        if phase == "decode":
            plan = self._plan(batch)
            block, offset = divmod(kv_len, DECODE_BLOCK)
            row = plan.get(block)
            if row is None:
                row = self._price_block(plan, batch, block)
            return row[offset]
        key = (self._sid, num_tokens, batch, kv_len, attended_len)
        total = self._totals.get(key)
        if total is None:
            total = self.steps.step_total_one(
                num_tokens, batch, kv_len, attended_len)
            self._put(key, total)
        return total

    def decode_window(self, horizon: float) -> int:
        """Advance as many pure decode iterations as possible, bounded by
        ``horizon`` (exclusive on entry: an iteration starts only while
        ``clock < horizon``, matching ``Replica.advance_to``'s may-
        overshoot-by-one contract).  Returns the number of iterations
        advanced; 0 means the scalar ``step()`` must take the next one.
        State is untouched whenever 0 is returned."""
        engine = self.engine
        obs = engine._active_obs()
        if obs is not None and not obs.windowable:
            return 0
        if engine.faults is not None and engine.faults.active:
            return 0
        scheduler = engine.scheduler
        running = scheduler.running
        if not running or scheduler.waiting:
            return 0
        pending = engine._pending
        next_arrival = pending[0].effective_arrival_time if pending else None
        clock = engine.clock
        if next_arrival is not None and next_arrival <= clock + 1e-12:
            return 0
        if clock >= horizon:
            return 0

        # window length: one short of the earliest max_tokens finish (the
        # completing iteration mutates the running set, so step() owns it)
        limit = _MAX_WINDOW
        kv_sum = 0
        for req in running:
            headroom = req.sampling.max_tokens - req.generated_tokens - 1
            if headroom < limit:
                limit = headroom
            kv_sum += req.kv_tokens
        if limit < 1:
            return 0

        # KV block crossings: a sequence with `spare` free slots first needs
        # a block at (1-based) iteration spare + 1, then every block_size
        # iterations, so iteration n pops for the sequences filed under
        # n % block_size, in running order (the scalar pop order)
        kv = engine.kv
        batch = len(running)
        block_size = kv.block_size
        kv_tables = kv._tables
        tables = [kv_tables[r.request_id] for r in running]
        crossers: dict[int, list] = {}
        for table in tables:
            spare = len(table.blocks) * block_size - table.num_tokens
            if spare >= block_size:
                return 0  # a whole spare block: leave it to the scalar path
            crossers.setdefault((spare + 1) % block_size, []).append(table)
        crossing = crossers.get

        # plan one DECODE event per iteration up to the first stop, state
        # untouched; durations come from the block-priced decode memo
        plan = self._plan(batch)
        per_row = DECODE_BLOCK
        request_ids = tuple([r.request_id for r in running])
        num_blocks = kv.num_blocks
        free = kv.free_blocks
        available = kv.available_blocks
        if next_arrival is None:
            next_arrival = math.inf
        events: list[Event] = []
        record = events.append
        decode = EventType.DECODE
        tokens = kv_sum
        done = 0
        while (done < limit and clock < horizon
               and not next_arrival <= clock + 1e-12):
            pops = crossing((done + 1) % block_size)
            if pops:
                if len(pops) > available:
                    break  # pool dry: the preemption decision stays scalar
                free -= len(pops)
                available -= len(pops)
            # _iteration_cost's exact context: max(1, int(mean kv_tokens))
            context = int(tokens / batch) or 1
            row = plan.get(context // per_row)
            if row is None:
                row = self._price_block(plan, batch, context // per_row)
            duration_s = row[context % per_row]
            clock = clock + duration_s
            record(Event(
                clock, decode, request_ids,
                num_tokens=batch, duration_s=duration_s,
                kv_utilization=(num_blocks - free) / num_blocks,
            ))
            tokens += batch
            done += 1

        if done and obs is not None and obs.alerts is not None:
            done = obs.alerts.quiet_iterations(engine, events)
            del events[done:]
        if not done:
            return 0

        # commit: pops in scalar order, then counters, clock and log
        append_block = kv.append_block
        popped = 0
        for n in range(1, done + 1):
            pops = crossing(n % block_size)
            if pops:
                popped += len(pops)
                for table in pops:
                    append_block(table)
        for req in running:
            req.generated_tokens += done
            req.kv_tokens += done
        for table in tables:
            table.num_tokens += done
        engine.clock = events[-1].time
        engine.log.extend(events)
        if obs is not None:
            obs.now = engine.clock
            self._record_metrics(obs, events, len(crossing(1 % block_size)
                                                  or ()), popped, batch)
        return done

    @staticmethod
    def _record_metrics(obs: "Instrumentation", events: list[Event],
                        first_pops: int, pops: int, batch: int) -> None:
        """The window's metrics as two batch commits: its first iteration
        (``first_pops`` of the window's ``pops`` block pops), then the
        rest.  A window's first iteration may create the decode metrics
        and a later one ``kv_blocks_total{op="append"}``, so the split
        keeps the registry's insertion order equal to the scalar loop's."""
        for span, blocks in ((events[:1], first_pops),
                             (events[1:], pops - first_pops)):
            if not span:
                break
            obs.record_iterations(
                kv_op="append", kv_ops=batch * len(span), kv_blocks=blocks,
                kv_utilization=span[-1].kv_utilization,
                phase="decode", num_tokens=batch,
                durations=[e.duration_s for e in span])
